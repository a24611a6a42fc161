package sweep_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestRegistryNamesAndOrder(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "t1", "t2", "t3", "t4", "t5", "m3", "m4", "m5"}
	got := sweep.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, name := range want {
		e, err := sweep.Get(name)
		if err != nil {
			t.Errorf("Get(%q): %v", name, err)
		}
		if e.Name != name {
			t.Errorf("Get(%q).Name = %q", name, e.Name)
		}
	}
	if _, err := sweep.Get("nope"); err == nil {
		t.Error("Get of unknown experiment succeeded")
	}
}

func TestMatch(t *testing.T) {
	for _, tt := range []struct {
		pattern string
		want    int
	}{
		{"", 11},
		{"fig.", 3},
		{"t2|t4", 2},
		{"t1", 1},
	} {
		exps, err := sweep.Match(tt.pattern)
		if err != nil {
			t.Errorf("Match(%q): %v", tt.pattern, err)
			continue
		}
		if len(exps) != tt.want {
			t.Errorf("Match(%q) = %d experiments, want %d", tt.pattern, len(exps), tt.want)
		}
	}
	// Anchored: "t" alone must not match t1..t5.
	if _, err := sweep.Match("t"); err == nil {
		t.Error(`Match("t") matched despite anchoring`)
	}
	if _, err := sweep.Match("("); err == nil {
		t.Error("bad regexp accepted")
	}
}

// testExperiments is the determinism suite the ISSUE pins: Figure1, Figure3,
// and TableT1 on the small platform (T1 at reduced lengths so -short stays
// fast).
func testExperiments(t *testing.T) ([]sweep.Experiment, sweep.Options) {
	t.Helper()
	exps, err := sweep.Match("fig1|fig3|t1")
	if err != nil {
		t.Fatal(err)
	}
	return exps, sweep.Options{Params: sweep.Params{Lengths: []int{500, 1500}}}
}

// render concatenates every result's rendered table; byte equality of two
// renders is the determinism property the sweep guarantees.
func render(results []sweep.Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Table.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDeterministicAcrossParallelism is the regression test for the sweep's
// core guarantee: -parallel 1 and -parallel N produce byte-identical
// rendered tables, and both match the serial per-experiment wrappers'
// cell path.
func TestDeterministicAcrossParallelism(t *testing.T) {
	p := sim.SmallPlatform()
	exps, opts := testExperiments(t)

	opts.Parallel = 1
	serial := render(sweep.Run(p, exps, opts))

	for _, workers := range []int{2, 8} {
		opts.Parallel = workers
		if got := render(sweep.Run(p, exps, opts)); got != serial {
			t.Errorf("parallel=%d output differs from parallel=1:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}

	// The registry path must agree with each experiment's own cell
	// decomposition run serially.
	var direct strings.Builder
	for _, e := range exps {
		cs := e.Cells(p, sweep.Params{Lengths: []int{500, 1500}}.Merged(e.Defaults))
		direct.WriteString(cs.RunSerial(p.Seed).String())
		direct.WriteByte('\n')
	}
	if direct.String() != serial {
		t.Errorf("sweep output differs from serial CellSet.RunSerial:\n--- RunSerial ---\n%s\n--- sweep ---\n%s",
			direct.String(), serial)
	}
}

// TestSeedChangesOutput sanity-checks that the base seed actually reaches
// the cells: a different seed must change at least one workload-driven
// table.
func TestSeedChangesOutput(t *testing.T) {
	p := sim.SmallPlatform()
	exps, opts := testExperiments(t)
	a := render(sweep.Run(p, exps, opts))
	opts.BaseSeed = 99
	b := render(sweep.Run(p, exps, opts))
	if a == b {
		t.Error("changing BaseSeed left every table unchanged")
	}
}

// TestGolden pins the rendered small-platform tables byte-for-byte. Refresh
// with `go test ./internal/sweep -run Golden -update`.
func TestGolden(t *testing.T) {
	p := sim.SmallPlatform()
	exps, opts := testExperiments(t)
	opts.Parallel = 4
	for _, r := range sweep.Run(p, exps, opts) {
		checkGolden(t, r.Experiment+"_small.golden", []byte(r.Table.String()))
	}

	// The runtime-vs-model tables (every count model/local/tcp, every
	// verdict) in one file: exactly what `figures -platform small -run
	// 'm3|m4|m5'` prints.
	m345, err := sweep.Match("m3|m4|m5")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := sweep.WriteText(&got, sweep.Run(p, m345, sweep.Options{Parallel: 4})); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "m345_small.golden", got.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: rendered table drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestConcurrentSweeps runs two full sweeps at the same time and checks
// both against a reference — the race-detector target for the sweep layer
// (`go test -race ./internal/sweep`).
func TestConcurrentSweeps(t *testing.T) {
	p := sim.SmallPlatform()
	exps, opts := testExperiments(t)
	opts.Parallel = 4
	want := render(sweep.Run(p, exps, opts))

	var wg sync.WaitGroup
	got := make([]string, 2)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = render(sweep.Run(p, exps, opts))
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent sweep %d diverged from reference", i)
		}
	}
}

func TestRunDefaultsAndCellCounts(t *testing.T) {
	p := sim.SmallPlatform()
	e, err := sweep.Get("t4")
	if err != nil {
		t.Fatal(err)
	}
	results := sweep.Run(p, []sweep.Experiment{e}, sweep.Options{Params: sweep.Params{Scale: 32, Iters: 1}})
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.Experiment != "t4" || r.Cells != 4 {
		t.Errorf("result = %q with %d cells, want t4 with 4 (one per workload)", r.Experiment, r.Cells)
	}
	if r.Table.NumRows() != 4 {
		t.Errorf("rows = %d, want one per workload", r.Table.NumRows())
	}
}

// TestCellPanicAborts: a panicking cell must surface on the calling
// goroutine with the experiment name and original value attached.
func TestCellPanicAborts(t *testing.T) {
	p := sim.SmallPlatform()
	boom := sweep.Experiment{
		Name: "boom",
		Cells: func(sim.Platform, sweep.Params) sim.CellSet {
			return sim.CellSet{Name: "boom", Title: "boom", Headers: []string{"a"},
				Cells: []sim.Cell{{Label: "p", Run: func(uint64) [][]string { panic("kaboom") }}}}
		},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cell panic did not propagate")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "boom") {
			t.Errorf("panic lost context: %q", msg)
		}
	}()
	sweep.Run(p, []sweep.Experiment{boom}, sweep.Options{Parallel: 2})
}

func TestExportJSONAndCSV(t *testing.T) {
	p := sim.SmallPlatform()
	exps, opts := testExperiments(t)
	results := sweep.Run(p, exps, opts)

	var jb bytes.Buffer
	if err := sweep.WriteJSON(&jb, results); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Experiment string `json:"experiment"`
		Cells      int    `json:"cells"`
		Table      struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"table"`
	}
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(decoded) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(decoded), len(results))
	}
	for i, d := range decoded {
		if d.Experiment != results[i].Experiment {
			t.Errorf("result %d experiment = %q, want %q", i, d.Experiment, results[i].Experiment)
		}
		if len(d.Table.Rows) != results[i].Table.NumRows() {
			t.Errorf("result %d rows = %d, want %d", i, len(d.Table.Rows), results[i].Table.NumRows())
		}
	}

	var cb bytes.Buffer
	if err := sweep.WriteCSV(&cb, results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !strings.Contains(cb.String(), "# "+r.Table.Title()) {
			t.Errorf("CSV export missing title comment for %s", r.Experiment)
		}
	}
}
