package analysis_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	// Linked in only so that go test's cache of these tests, which run the
	// vettool in a subprocess, is invalidated when the driver changes.
	_ "repro/internal/analysis/unitchecker"
)

// The analyzers are tested only through the built em2lint vettool, run by
// `go vet -vettool` exactly as CI runs it: over the fixture modules under
// testdata and over the tree.

// lintBin is the em2lint binary TestMain builds once for every test here.
var lintBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "em2lint")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	lintBin = filepath.Join(dir, "em2lint")
	code := 1
	if out, err := exec.Command("go", "build", "-o", lintBin, "repro/cmd/em2lint").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building em2lint: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// vet runs `go vet -vettool=em2lint ./...` in dir and returns its combined
// output. A nonzero exit is not an error here: it is how vet reports
// diagnostics, which the callers judge from the output.
func vet(t *testing.T, dir string) string {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+lintBin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("go vet in %s: %v", dir, err)
	}
	return string(out)
}

// Each fixture is a module under testdata named for the analyzer whose
// corpus it holds; its module name makes its import paths gate the
// analyzers (det/machine is deterministic, det/other is not). Every
// analyzer runs on every fixture, so a diagnostic no want expects fails
// the test whichever analyzer reported it.

func TestDetrange(t *testing.T)   { checkFixture(t, "det") }
func TestErrsink(t *testing.T)    { checkFixture(t, "errsink") }
func TestFramecheck(t *testing.T) { checkFixture(t, "framecheck") }
func TestLocksend(t *testing.T)   { checkFixture(t, "locksend") }
func TestNoclock(t *testing.T)    { checkFixture(t, "noclock") }

// TestFramecheckIgnoresFramelessPackages: a package with no FrameKind type
// is out of framecheck's scope even when deterministic.
func TestFramecheckIgnoresFramelessPackages(t *testing.T) {
	for _, line := range strings.Split(vet(t, filepath.Join("testdata", "det")), "\n") {
		if strings.HasSuffix(line, "[em2lint/framecheck]") {
			t.Errorf("framecheck reported on a frameless package: %s", line)
		}
	}
}

// TestSelfCheckRepoClean pins the tree at zero em2lint diagnostics, test
// files included, so that `go test ./internal/analysis` — what a change to
// an analyzer is tested with — fails when an analyzer starts crying wolf
// on existing, argued-safe code, and a new violation anywhere fails it
// too. cmd/em2lint's TestVettoolRepoClean holds the same pin for that
// package.
func TestSelfCheckRepoClean(t *testing.T) {
	root := filepath.Join("..", "..")
	// go test caches a pass keyed by the files the test process itself
	// reads, and vet's reads happen in a subprocess: stat every Go file so
	// that an edit anywhere in the tree reruns the test.
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err == nil && strings.HasSuffix(path, ".go") {
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := vet(t, root); out != "" {
		t.Fatalf("go vet -vettool=em2lint ./... not clean:\n%s", out)
	}
}

// wantRE captures the quoted regexps of a `// want` comment; chunkRE
// splits them. Each backquoted or double-quoted string is a regexp that
// must match exactly one diagnostic reported on the comment's line:
//
//	for k := range m { // want `range over map`
var (
	wantRE  = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")
	chunkRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// diagRE parses one em2lint diagnostic line of vet's output.
var diagRE = regexp.MustCompile(`^(.+?):(\d+):\d+: (.*) \[em2lint/\w+\]$`)

type want struct {
	pos string // file:line, the file relative to the fixture module
	re  *regexp.Regexp
	hit bool
}

// checkFixture runs the built em2lint over the fixture module
// testdata/<name> and matches the output against the fixture's `// want`
// comments. It fails on a diagnostic no want expects, on a want no
// diagnostic met, and on any output line that is neither a diagnostic nor
// a `# pkg` header (a fixture that does not type-check, or a vettool
// error).
func checkFixture(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	wants := readWants(t, dir)
	for _, line := range strings.Split(vet(t, dir), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unexpected vet output: %s", line)
			continue
		}
		// vet prints file names relative to the module directory.
		if !hitWant(wants, filepath.ToSlash(m[1])+":"+m[2], m[3]) {
			t.Errorf("unexpected diagnostic: %s", line)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: no diagnostic matched %q", w.pos, w.re)
		}
	}
}

// hitWant marks the first unmet want at pos whose regexp matches msg.
func hitWant(wants []*want, pos, msg string) bool {
	for _, w := range wants {
		if !w.hit && w.pos == pos && w.re.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}

// readWants collects the `// want` expectations of every Go file in the
// fixture module at dir.
func readWants(t *testing.T, dir string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pos := filepath.ToSlash(rel) + ":" + strconv.Itoa(i+1)
			for _, chunk := range chunkRE.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(chunk)
				if err != nil {
					t.Fatalf("%s: bad want pattern %s: %v", pos, chunk, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants = append(wants, &want{pos: pos, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func TestAllIsComplete(t *testing.T) {
	want := []string{"detrange", "errsink", "framecheck", "locksend", "noclock"}
	got := analysis.All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
	}
}
