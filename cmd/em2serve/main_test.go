package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI and returns exit code, stdout, stderr.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestChannelRun pins the default in-process path: exit 0, a parseable
// report on stdout, and full accounting.
func TestChannelRun(t *testing.T) {
	code, out, errw := capture(t, "-jobs", "6", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	var rep map[string]interface{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out)
	}
	if rep["version"] != "em2serve/v1" {
		t.Fatalf("report version %v", rep["version"])
	}
	if rep["sc_checked"] != rep["completed"] {
		t.Fatalf("sc_checked %v != completed %v", rep["sc_checked"], rep["completed"])
	}
}

// TestTransportsAgree is the CLI-level determinism check: the same seed
// through -transport channel and -transport tcp (self-hosted 2-node
// cluster) emits byte-identical reports.
func TestTransportsAgree(t *testing.T) {
	code, chOut, errw := capture(t, "-jobs", "6", "-seed", "9")
	if code != 0 {
		t.Fatalf("channel: exit %d, stderr: %s", code, errw)
	}
	code, tcpOut, errw := capture(t, "-transport", "tcp", "-nodes", "2", "-jobs", "6", "-seed", "9")
	if code != 0 {
		t.Fatalf("tcp: exit %d, stderr: %s", code, errw)
	}
	if chOut != tcpOut {
		t.Fatalf("transports disagree:\n--- channel\n%s\n--- tcp\n%s", chOut, tcpOut)
	}
}

// TestTraceFileAndOutput exercises -trace and -o together.
func TestTraceFileAndOutput(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "arrivals.txt")
	if err := os.WriteFile(tracePath, []byte("# three arrivals\n0\n5000\n10000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "report.json")
	code, out, errw := capture(t, "-trace", tracePath, "-o", outPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if out != "" {
		t.Fatalf("-o still wrote to stdout: %s", out)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]interface{}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep["submitted"] != float64(3) {
		t.Fatalf("submitted %v, want 3 (the trace length)", rep["submitted"])
	}
}

// TestBadFlags pins the error paths: a non-zero exit and an em2serve
// error line carrying the wanted text.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-transport", "carrier-pigeon"}, "unknown transport"},
		{[]string{"-workload", "nope"}, "nope"},
		{[]string{"-placement", "first-touch"}, "first-touch"},
		{[]string{"-trace", "/nonexistent/trace.txt"}, "/nonexistent/trace.txt"},
		{[]string{"-transport", "tcp", "-scheme", "bogus"}, "unknown scheme"},
		// A window only NewPart rejects: the coordinator's parse passes and
		// the self-hosted nodes fail their load, so the error names one.
		{[]string{"-transport", "tcp", "-scheme", "hybrid:70000"}, "node "},
	} {
		if code, _, errw := capture(t, tc.args...); code == 0 {
			t.Fatalf("args %v exited 0, stderr: %s", tc.args, errw)
		} else if !strings.Contains(errw, "em2serve:") || !strings.Contains(errw, tc.want) {
			t.Fatalf("args %v: stderr lacks an em2serve line with %q: %s", tc.args, tc.want, errw)
		}
	}
}
