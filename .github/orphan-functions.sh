#!/usr/bin/env bash
# Lists the non-test functions under internal/ that no binary links, and
# fails on any whose doc comment (or declaration line) lacks
# `//em2:reference-only <reason>` — the mark for a function a test
# deliberately checks production code against.
#
# Every main package (cmd/*, examples/*, benchmark) is built with inlining
# off, so a function the binaries call survives as a symbol; the linker
# drops the rest. Run from the repository root: bash .github/orphan-functions.sh
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

i=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	i=$((i + 1))
	go build -gcflags=all=-l -o "$tmp/bin$i" "$pkg"
done
# Type arguments are dropped on both sides: a generic function or method
# counts as linked when any instantiation is.
for b in "$tmp"/bin*; do
	go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { $1 = $2 = ""; print substr($0, 3) }' |
	sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' | sort -u >"$tmp/linked"

status=0
while read -r imp dir files; do
	for f in $files; do
		# One line per declaration: "<line> <symbol> <marked>", where the
		# symbol is spelled as go tool nm spells it.
		awk -v imp="$imp" '
			/^\/\// { if (/em2:reference-only [^ ]/) marked = 1; next }
			/^func / {
				line = $0
				sym = ""
				if (match(line, /^func \([^)]*\) [A-Za-z0-9_]+/)) {
					recv = substr(line, 7, index(line, ")") - 7)
					n = split(recv, parts, " ")
					typ = parts[n]
					sub(/\[.*\]/, "", typ)
					name = substr(line, RSTART, RLENGTH)
					sub(/^func \([^)]*\) /, "", name)
					if (typ ~ /^\*/) sym = imp ".(" typ ")." name
					else sym = imp "." typ "." name
				} else if (match(line, /^func [A-Za-z0-9_]+/)) {
					name = substr(line, 6, RLENGTH - 5)
					sub(/\[.*/, "", name)
					if (name != "init") sym = imp "." name
				}
				if (line ~ /em2:reference-only [^ ]/) marked = 1
				if (sym != "") print NR, sym, marked
			}
			{ marked = 0 }
		' "$dir/$f" | while read -r n sym marked; do
			grep -qxF "$sym" "$tmp/linked" && continue
			if [ "$marked" = 1 ]; then
				echo "reference-only  $dir/$f:$n  $sym"
			else
				echo "ORPHAN          $dir/$f:$n  $sym"
				echo x >>"$tmp/failed"
			fi
		done
	done
done < <(go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./internal/...)

if [ -s "$tmp/failed" ]; then
	echo "unannotated orphans: link them from a binary, delete them, or mark them //em2:reference-only <reason>" >&2
	exit 1
fi
