package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// testSeconds is 1/200 of the 12 s window the workloads were sized for:
// every workload still does its whole set-up and at least one full op or
// session, so the golden digests must hold.
const testSeconds = "0.06"

type specFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) (specFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s, raw
}

// runCLI drives the command in-process and returns its exit code, its
// standard output and the parsed last line.
func runCLI(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("%v: last line is not a result: %v\n%s", args, err, stdout.String())
	}
	if code != 0 {
		t.Logf("%v: exit %d\nstdout: %s\nstderr: %s", args, code, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics requires exactly the declared names, each once (a JSON
// object cannot repeat a key, and the human table is checked for it), each
// with its declared unit.
func checkMetrics(t *testing.T, stdout string, got map[string]reported, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if n := strings.Count(stdout, "\n  "+name+" "); n != 1 {
			t.Errorf("metric %s printed %d times in the table, want once", name, n)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
		}
	}
}

// TestSpecMatchesProgram pins BENCHMARK.json to the program's own tables:
// the file is exactly what -spec prints, and every name and unit is inside
// the contract's alphabet.
func TestSpecMatchesProgram(t *testing.T) {
	spec, raw := loadSpec(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-spec"}, &out, &errb); code != 0 {
		t.Fatalf("-spec exited %d: %s", code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the contract's alphabet", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s outside the contract's alphabet", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if len(spec.Workloads) != 6 || len(spec.EndToEnd) != 12 {
		t.Errorf("%d workloads and %d end-to-end metrics, want 6 and 12", len(spec.Workloads), len(spec.EndToEnd))
	}
}

// TestWorkloadsAtTestScale runs every workload untraced and traced at
// 1/200 scale at the default seed: all checks pass, the golden digests
// hold, and exactly the declared metrics come out.
func TestWorkloadsAtTestScale(t *testing.T) {
	spec, _ := loadSpec(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	t.Chdir(t.TempDir()) // the traced pass writes benchmark/out/ under the working directory
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, stdout, res := runCLI(t, "-workload", w.Name, "-seconds", testSeconds, "-trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: exit %d, %+v", code, res)
			}
			checkMetrics(t, stdout, res.Metrics, e2e)
			for name, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0; the contract wants metrics that never are", name)
				}
			}
			code, stdout, res = runCLI(t, "-workload", w.Name, "-seconds", testSeconds, "-trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced: exit %d, %+v", code, res)
			}
			checkMetrics(t, stdout, res.Metrics, layers)
			if _, err := os.Stat(filepath.Join("benchmark", "out", "trace-"+w.Name+".json")); err != nil {
				t.Errorf("no Chrome trace written: %v", err)
			}
		})
	}
}

// TestGoldenPinsCrossTransportIdentity: the hop kernel's digest is the
// same over channels and over TCP, in the committed file itself.
func TestGoldenPinsCrossTransportIdentity(t *testing.T) {
	g, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := g.Workloads["hop-chan"], g.Workloads["hop-tcp"]; a != b || a.Digest == "" {
		t.Errorf("hop-chan %+v and hop-tcp %+v must pin the same outputs", a, b)
	}
	for _, w := range workloads {
		if _, ok := g.Workloads[w.name]; !ok {
			t.Errorf("golden file has no entry for %s", w.name)
		}
	}
}

// TestCorruptedGoldenFails: a wrong expected digest must fail the run, or
// the output checks are decoration.
func TestCorruptedGoldenFails(t *testing.T) {
	g, err := loadGolden("")
	if err != nil {
		t.Fatal(err)
	}
	e := g.Workloads["lease-chan"]
	e.Digest = "0000000000000bad"
	g.Workloads["lease-chan"] = e
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, res := runCLI(t, "-workload", "lease-chan", "-seconds", testSeconds, "-golden", path)
	if code == 0 || res.Correct {
		t.Errorf("corrupted golden digest: exit %d, correct %v; want a non-zero exit and correct=false", code, res.Correct)
	}
	// Another seed is not pinned by the file and must still pass.
	if code, _, res := runCLI(t, "-workload", "lease-chan", "-seconds", testSeconds, "-golden", path, "-seed", "7"); code != 0 || !res.Correct {
		t.Errorf("seed 7 with a corrupted default-seed golden: exit %d, correct %v; want a clean pass", code, res.Correct)
	}
}
