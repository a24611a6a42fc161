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

// TestSoakBothTransports is the command's reason to exist: a short mix on
// channel and a real 2-node TCP cluster, byte-compared streams and
// reports, zero violations, exit 0.
func TestSoakBothTransports(t *testing.T) {
	code, out, errw := capture(t, "-jobs", "8", "-seed", "11", "-sample-every", "2000")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errw, out)
	}
	var rep map[string]interface{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out)
	}
	if rep["version"] != "em2soak/v1" {
		t.Fatalf("report version %v", rep["version"])
	}
	if rep["ok"] != true || rep["streams_identical"] != true || rep["reports_identical"] != true {
		t.Fatalf("soak not clean: %s", out)
	}
	if rep["samples"].(float64) == 0 || rep["stream_bytes"].(float64) == 0 {
		t.Fatalf("no telemetry flowed: %s", out)
	}
	if rep["sc_checked"] != rep["completed"] {
		t.Fatalf("sc_checked %v != completed %v", rep["sc_checked"], rep["completed"])
	}
	if vs, ok := rep["violations"].([]interface{}); !ok || len(vs) != 0 {
		t.Fatalf("violations in a clean soak: %s", out)
	}
}

// TestSoakChannelWithSinkCopy exercises -transport channel, -o and the
// -telemetry stream copy in one short run.
func TestSoakChannelWithSinkCopy(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "soak.json")
	streamPath := filepath.Join(dir, "stream.lp")
	code, out, errw := capture(t,
		"-transport", "channel", "-jobs", "5", "-seed", "3",
		"-sample-every", "1500", "-telemetry", streamPath, "-o", repPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errw, out)
	}
	b, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]interface{}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report file is not JSON: %v\n%s", err, b)
	}
	if rep["ok"] != true || rep["transports"] != "channel" {
		t.Fatalf("unexpected report: %s", b)
	}
	stream, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if int(rep["stream_bytes"].(float64)) != len(stream) {
		t.Fatalf("stream copy is %d bytes, report says %v", len(stream), rep["stream_bytes"])
	}
	if !bytes.Contains(stream, []byte("core,core=0 ")) || !bytes.Contains(stream, []byte("serve submitted=")) {
		t.Fatalf("stream copy lacks expected points:\n%s", stream)
	}
}

// TestSoakFlagValidation pins the loud rejections.
func TestSoakFlagValidation(t *testing.T) {
	if code, _, errw := capture(t, "-transport", "carrier-pigeon"); code != 1 || errw == "" {
		t.Fatalf("bad transport: exit %d, stderr %q", code, errw)
	}
	if code, _, errw := capture(t, "-sample-every", "0"); code != 1 || errw == "" {
		t.Fatalf("zero cadence: exit %d, stderr %q", code, errw)
	}
	// A window only NewPart rejects: the coordinator's parse passes and the
	// self-hosted nodes fail their load, so the error names one.
	if code, _, errw := capture(t, "-transport", "tcp", "-scheme", "hybrid:70000"); code != 1 || !strings.Contains(errw, "node ") {
		t.Fatalf("node load failure: exit %d, stderr %q", code, errw)
	}
}
