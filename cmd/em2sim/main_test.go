package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestListSchemes: the -list-schemes flag enumerates every scheme and
// placement wire name (including the stateful history:N and the trace-only
// oracle) and documents the first-touch cluster restriction.
func TestListSchemes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-schemes"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range append(machine.SchemeNames(),
		"oracle", "first-touch", "striped", "page-striped", "single-home") {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list-schemes output missing %q:\n%s", want, out.String())
		}
	}
}

// TestUnknownSchemeErrorIsActionable: a bad -scheme must name every valid
// scheme so the user can fix the invocation without reading source.
func TestUnknownSchemeErrorIsActionable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "pingpong", "-cores", "4", "-threads", "2",
		"-scale", "8", "-scheme", "nope"}, &out, &errb)
	if code == 0 {
		t.Fatal("unknown scheme exited 0")
	}
	for _, want := range append(machine.SchemeNames(), "oracle") {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("error %q does not mention %q", errb.String(), want)
		}
	}
}

// TestUnknownPlacementError mirrors the scheme check for -placement.
func TestUnknownPlacementError(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "pingpong", "-cores", "4", "-threads", "2",
		"-scale", "8", "-placement", "nope"}, &out, &errb)
	if code == 0 {
		t.Fatal("unknown placement exited 0")
	}
	for _, want := range []string{"first-touch", "striped", "page-striped"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("error %q does not mention %q", errb.String(), want)
		}
	}
}

// TestTraceModePlacementArguments: trace mode parses placements as
// cluster mode does, so the sized forms -list-schemes documents for both
// modes run, and the bare names keep their default sizes.
func TestTraceModePlacementArguments(t *testing.T) {
	base := []string{"-workload", "pingpong", "-cores", "4", "-threads", "4", "-scale", "8", "-iters", "1", "-json"}
	migrations := map[string]int64{}
	for _, pl := range []string{"striped:128", "page-striped:8192", "striped", "striped:64"} {
		var out, errb bytes.Buffer
		if code := run(append(base, "-placement", pl), &out, &errb); code != 0 {
			t.Fatalf("-placement %s: exit %d, stderr: %s", pl, code, errb.String())
		}
		var res struct {
			Placement  string `json:"placement"`
			Migrations int64  `json:"migrations"`
			Accesses   int64  `json:"accesses"`
		}
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("-placement %s: output is not JSON: %v\n%s", pl, err, out.String())
		}
		if res.Placement != pl || res.Accesses == 0 {
			t.Errorf("-placement %s: result %+v", pl, res)
		}
		migrations[pl] = res.Migrations
	}
	if migrations["striped"] != migrations["striped:64"] {
		t.Errorf("striped ran %d migrations, striped:64 %d; want the default line of 64", migrations["striped"], migrations["striped:64"])
	}
}

// TestTraceModeHistoryJSON: trace mode accepts history:N and emits valid
// JSON with the scheme's rendered name.
func TestTraceModeHistoryJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "pingpong", "-cores", "4", "-threads", "4",
		"-scale", "8", "-iters", "1", "-scheme", "history:2", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res struct {
		Scheme   string `json:"scheme"`
		Accesses int64  `json:"accesses"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if res.Scheme != "history>=2" || res.Accesses == 0 {
		t.Errorf("result = %+v", res)
	}
}

// TestTraceModeHybridJSON: trace mode accepts the lease-caching schemes
// and exports their counters — a sharing workload under hybrid must show
// lease traffic in the JSON counters map.
func TestTraceModeHybridJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "pingpong", "-cores", "4", "-threads", "4",
		"-scale", "8", "-iters", "1", "-scheme", "hybrid:16", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res struct {
		Scheme   string           `json:"scheme"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if res.Scheme != "hybrid:16" {
		t.Errorf("scheme = %q, want hybrid:16", res.Scheme)
	}
	for _, key := range []string{"lease_hits", "lease_misses", "lease_invals"} {
		if _, ok := res.Counters[key]; !ok {
			t.Errorf("counters missing %q: %v", key, res.Counters)
		}
	}
	if res.Counters["lease_hits"]+res.Counters["lease_misses"] == 0 {
		t.Errorf("hybrid run shows no lease traffic at all: %v", res.Counters)
	}
}

// TestExplicitZeroFlagIsCleanError: an explicit -iters 0 (or a zero in the
// workload suffix) must exit with the workload package's error message, not
// a generator panic.
func TestExplicitZeroFlagIsCleanError(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "ocean", "-iters", "0"},
		{"-workload", "ocean:0", "-cores", "4", "-threads", "4"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if !strings.Contains(errb.String(), "non-positive") {
			t.Errorf("run(%v) error %q does not explain the zero field", args, errb.String())
		}
	}
}

// TestWorkloadSpecParsing pins the `name[:scale,iters,seed]` suffix
// grammar, including positionally skipped fields and rejections.
func TestWorkloadSpecParsing(t *testing.T) {
	cases := []struct {
		spec string
		name string
		ov   parsedWorkloadOverrides
		err  bool
	}{
		{spec: "ocean", name: "ocean"},
		{spec: "ocean:32", name: "ocean", ov: parsedWorkloadOverrides{scale: 32, hasScale: true}},
		{spec: "fft:8,3", name: "fft", ov: parsedWorkloadOverrides{scale: 8, iters: 3, hasScale: true, hasIters: true}},
		{spec: "barnes:4,1,9", name: "barnes", ov: parsedWorkloadOverrides{scale: 4, iters: 1, seed: 9, hasScale: true, hasIters: true, hasSeed: true}},
		{spec: "ocean:,3", name: "ocean", ov: parsedWorkloadOverrides{iters: 3, hasIters: true}},
		{spec: "ocean:,,7", name: "ocean", ov: parsedWorkloadOverrides{seed: 7, hasSeed: true}},
		{spec: "ocean:1,2,3,4", err: true},
		{spec: "ocean:x", err: true},
		{spec: "ocean:-1", err: true},
	}
	for _, c := range cases {
		name, ov, err := parseWorkloadSpec(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("parseWorkloadSpec(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseWorkloadSpec(%q): %v", c.spec, err)
			continue
		}
		if name != c.name || ov != c.ov {
			t.Errorf("parseWorkloadSpec(%q) = %q %+v, want %q %+v", c.spec, name, ov, c.name, c.ov)
		}
	}
}

// TestTraceModeWorkloadSuffix: the suffix overrides -scale/-iters/-seed in
// trace mode too, visible in the JSON export.
func TestTraceModeWorkloadSuffix(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "pingpong:8,1,5", "-cores", "4", "-threads", "4", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res struct {
		Seed     uint64 `json:"seed"`
		Accesses int64  `json:"accesses"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if res.Seed != 5 || res.Accesses == 0 {
		t.Errorf("result = %+v, want seed 5 from the workload suffix", res)
	}
}

// runBinary runs cmd and returns its stdout, which is all the cluster
// tests parse. The binary's stderr is kept apart, so a node's shutdown
// line there cannot break a -json parse, and is logged if the test fails.
func runBinary(t *testing.T, cmd *exec.Cmd) ([]byte, error) {
	t.Helper()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t.Cleanup(func() {
		if t.Failed() && stderr.Len() > 0 {
			t.Logf("%s stderr:\n%s", filepath.Base(cmd.Path), stderr.Bytes())
		}
	})
	return cmd.Output()
}

// TestClusterCompiledWorkloadBinary is the workload-scale acceptance test:
// build the real em2sim binary and drive the ISSUE's command — the ocean
// stand-in compiled to ISA programs across three node processes under the
// stateful history scheme — demanding an SC-clean run whose runtime
// counters match the trace model exactly. Skipped in -short (go toolchain
// plus a full multi-process cluster).
func TestClusterCompiledWorkloadBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("building cmd/em2sim needs the go toolchain; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "em2sim")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/em2sim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/em2sim: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-workload", "ocean", "-cluster", "3", "-scheme", "history:2")
	out, err := runBinary(t, cmd)
	if err != nil {
		t.Fatalf("em2sim -workload ocean -cluster 3 -scheme history:2: %v\n%s", err, out)
	}
	for _, want := range []string{"SC check : OK", "litmus   : OK", "-> exact", "compiled :"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("compiled cluster output missing %q:\n%s", want, out)
		}
	}
}

// TestClusterHistoryBinary is the CLI acceptance test: build the real
// em2sim binary and drive `em2sim -cluster 3 -scheme history:2` — three
// node processes, predictor state crossing real sockets, SC-checked, with
// the -stats per-core metrics table. Skipped in -short (invokes the go
// toolchain and a full multi-process cluster).
func TestClusterHistoryBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("building cmd/em2sim needs the go toolchain; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "em2sim")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/em2sim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/em2sim: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-cluster", "3", "-scheme", "history:2",
		"-cores", "4", "-threads", "6", "-stats")
	out, err := runBinary(t, cmd)
	if err != nil {
		t.Fatalf("em2sim -cluster 3 -scheme history:2: %v\n%s", err, out)
	}
	for _, want := range []string{"SC check : OK", "litmus   : OK", "per-core runtime metrics"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("cluster output missing %q:\n%s", want, out)
		}
	}
}

// TestClusterHybridBinary drives the hybrid coherence scheme through the
// real binary on a two-node cluster with -json: leases are granted and
// invalidated across real sockets, the run is SC-clean, and the runtime's
// lease counters match the trace model exactly. Skipped in -short.
func TestClusterHybridBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("building cmd/em2sim needs the go toolchain; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "em2sim")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/em2sim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/em2sim: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-cluster", "2", "-workload", "fft:8,1,7",
		"-cores", "4", "-threads", "4", "-scheme", "hybrid:16", "-json")
	out, err := runBinary(t, cmd)
	if err != nil {
		t.Fatalf("em2sim -cluster 2 -workload fft -scheme hybrid:16: %v\n%s", err, out)
	}
	var res struct {
		Scheme      string `json:"scheme"`
		SC          string `json:"sc"`
		ModelCheck  string `json:"model_check"`
		LeaseHits   int64  `json:"lease_hits"`
		LeaseMisses int64  `json:"lease_misses"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if res.Scheme != "hybrid:16" || res.SC != "ok" || res.ModelCheck != "exact" {
		t.Errorf("scheme/sc/model_check = %q/%q/%q, want hybrid:16/ok/exact\n%s",
			res.Scheme, res.SC, res.ModelCheck, out)
	}
	if res.LeaseHits+res.LeaseMisses == 0 {
		t.Errorf("cluster hybrid run shows no lease traffic:\n%s", out)
	}
}
