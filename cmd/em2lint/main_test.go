package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the real em2lint binary into a temp dir and returns
// its path. The test drives the exact artifact CI uses, through the exact
// `go vet -vettool` protocol — not the analyzers in-process. (The fixture
// tests in internal/analysis build and run it the same way.)
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "em2lint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building em2lint: %v\n%s", err, out)
	}
	return bin
}

// vet runs `go vet -vettool=bin ./...` in dir and returns its combined
// output. A nonzero exit is not an error here: it is how vet reports
// diagnostics, which the caller judges from the output.
func vet(t *testing.T, bin, dir string) string {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("go vet in %s: %v", dir, err)
	}
	return string(out)
}

// TestVettoolRepoClean pins the tree at zero em2lint diagnostics, test
// files included, so a new violation fails the ordinary test suite even
// without CI's lint-em2 job — and an analyzer that starts crying wolf on
// existing, argued-safe code fails the same way.
func TestVettoolRepoClean(t *testing.T) {
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
	bin := buildLint(t)
	if out := vet(t, bin, root); out != "" {
		t.Fatalf("go vet -vettool=em2lint ./... not clean:\n%s", out)
	}
}
