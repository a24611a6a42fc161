// Package analysis is em2lint: a suite of project-specific static
// analyzers that mechanically enforce the repo's determinism and
// wire-protocol invariants (DESIGN.md "Determinism invariants,
// mechanically enforced").
//
// The contract the analyzers police is the one every PR has had to re-prove
// by hand: results must be bit-identical across the channel, TCP and
// multi-node backends, and every wire frame must round-trip. An unsorted
// map walk in a deterministic package, a stray time.Now in a report, a
// frame kind added without a decoder arm, a flush under a shard lock, or a
// silently discarded send error each corrupts that contract in ways a
// differential test only catches after the fact — so CI rejects the whole
// bug class up front.
//
// The five analyzers:
//
//   - detrange:   range over a map in a deterministic package (iteration
//     order is randomized) unless the loop is the collect-keys-then-sort
//     idiom, has no iteration variables, or carries //em2:unordered-ok.
//   - noclock:    time.Now/Since/Sleep/NewTicker/Tick and package-global
//     math/rand functions in deterministic packages, minus
//     //em2:wallclock-ok.
//   - framecheck: every FrameKind constant must appear in the AppendFrame
//     encode switch, the parseFrame decode switch, and at least one
//     _test.go file of the package (the round-trip corpus).
//   - locksend:   transport Send*/Flush calls made while a sync.Mutex or
//     sync.RWMutex is held (the flush-under-lock deadlock class), minus
//     //em2:locksend-ok.
//   - errsink:    discarded error results from transport Send*/Flush and
//     machine Part lifecycle calls, minus //em2:errsink-ok.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite could migrate to the real framework if the
// dependency ever becomes available; everything here is standard library
// only. The suite has one driver: the unitchecker subpackage, which speaks
// cmd/go's vet protocol and is built into cmd/em2lint. CI and the tests
// run that binary the same way, `go vet -vettool=em2lint ./...`: on the
// tree, which must stay clean, and on the fixture modules under
// internal/analysis/testdata, whose diagnostics must match their `// want`
// comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis and how to run it. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer (minus facts and requires, which
// no em2lint analyzer needs: every check is package-local).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the one-paragraph documentation string.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // the package's parsed files, comments included
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full em2lint suite, ordered by name. cmd/em2lint runs
// exactly this list, so adding an analyzer here is the single registration
// point.
func All() []*Analyzer {
	return []*Analyzer{
		Detrange,
		Errsink,
		Framecheck,
		Locksend,
		Noclock,
	}
}

// deterministicSegments names the packages whose outputs feed deterministic
// reports: any package with one of these as an import-path segment is held
// to the bit-identical contract. transport is included whole — its
// deterministic surfaces (wire encoding, local delivery, collection) are
// the bulk of the package — with tcp.go's legitimate wall-clock sites
// annotated one by one instead of a package-level exemption.
var deterministicSegments = map[string]bool{
	"cache":     true,
	"core":      true,
	"dircc":     true,
	"machine":   true,
	"serve":     true,
	"sim":       true,
	"stats":     true,
	"sweep":     true,
	"telemetry": true,
	"trace":     true,
	"transport": true,
	"wprog":     true,
}

// deterministicPkg reports whether the package at path is held to the
// determinism contract. An external test package (transport_test) is held
// to it like the package it tests.
func deterministicPkg(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if deterministicSegments[strings.TrimSuffix(seg, "_test")] {
			return true
		}
	}
	return false
}

// The annotation escape hatches. An annotation suppresses its analyzer on
// the line it appears on and the line immediately below it, so both
// trailing comments and a comment line above the statement work:
//
//	co.hb[node] = ... // em2:wallclock-ok: advisory liveness stamp
//
//	//em2:unordered-ok: keys feed a commutative sum
//	for a, v := range mem { ... }
//
// Each marker should carry a justification after a colon — the annotation
// records that a human argued the site is safe, not merely that the linter
// was in the way.
const (
	markUnorderedOK = "em2:unordered-ok"
	markWallclockOK = "em2:wallclock-ok"
	markLocksendOK  = "em2:locksend-ok"
	markErrsinkOK   = "em2:errsink-ok"
)

// annotated reports whether pos's line carries marker: a comment containing
// marker whose line equals pos's line (trailing comment) or the line just
// above it (leading comment line).
func annotated(pass *Pass, pos token.Pos, marker string) bool {
	f := fileOf(pass, pos)
	if f == nil {
		return false
	}
	line := pass.Fset.Position(pos).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, marker) {
				continue
			}
			cl := pass.Fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// fileOf returns the pass file whose range contains pos.
func fileOf(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// calleeFunc resolves a call expression to the *types.Func it invokes via a
// selector or plain identifier, or nil for non-function callees
// (conversions, builtins, function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.Ident:
		id = fn
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// fromTransportPackage reports whether obj is declared in a package whose
// import path has a "transport" segment (the repo's transport layer, or a
// fixture standing in for it).
func fromTransportPackage(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	for _, seg := range strings.Split(obj.Pkg().Path(), "/") {
		if seg == "transport" {
			return true
		}
	}
	return false
}
