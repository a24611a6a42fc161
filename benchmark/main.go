// Command benchmark is the repository's benchmark: six workloads, twelve
// end-to-end metrics from untraced runs, and a per-layer ladder from a
// separate traced run. It drives the runtime through its public entry
// points only (see adapter.go) and verifies every operation's output.
//
//	go run ./benchmark                         every workload, untraced then traced
//	go run ./benchmark -workload hop-chan      one workload's end-to-end metrics
//	go run ./benchmark -workload hop-chan -trace 1   its per-layer metrics
//	go run ./benchmark -repeat 2               the full set twice, compared
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; the exit code is non-zero when
// any check failed. README.md documents the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 2011
	// runSeconds is the window the driver is told to ask for
	// (BENCHMARK.json run_seconds) and the default of -seconds.
	runSeconds = 12
)

type kind int

const (
	batchChan kind = iota
	batchTCP
	serveJobs
)

// workloadDef is one benchmark workload. Batch workloads build a program
// from the seed; serve workloads run sessions of `jobs` arrivals.
type workloadDef struct {
	name, why string
	kind      kind
	build     func(seed int64) (*batchProgram, error)
	jobs      int
	tcp       bool
	// rate is the workload's units (ops, or sessions) per second on the
	// box it was sized on. It fixes the warm-up at a count, 5 % of what a
	// window of -seconds holds there, so set-up time measures a fixed
	// amount of work and not a fixed amount of time.
	rate float64
}

// Session sizes put a serve.Run at about a quarter second on the reference
// box, so a 10 s window holds some forty sessions and a test-scale run one.
const (
	serveChanJobs = 5000
	serveTCPJobs  = 1000
)

func hopUnder(scheme string) func(int64) (*batchProgram, error) {
	return func(seed int64) (*batchProgram, error) { return newHop(seed, scheme) }
}

var workloads = []workloadDef{
	{name: "ocean-chan", kind: batchChan, build: newOcean, rate: 67,
		why: "paper's flagship app at 64 threads on 8x8: interpreter, shard, placement and predictor do the work, transport almost none; bypass for transport changes"},
	{name: "hop-chan", kind: batchChan, build: hopUnder("history:2"), rate: 42,
		why: "generated kernel, 16k migrations per op over channels: context shipping dominates; claim workload for the channel ship path, bypass for TCP and lease work"},
	{name: "lease-chan", kind: batchChan, build: hopUnder("hybrid:64"), rate: 75,
		why: "the hop kernel under hybrid:64: leased remote reads beside owner writes that update holders; hop-chan is its no-lease twin"},
	{name: "hop-tcp", kind: batchTCP, build: hopUnder("history:2"), rate: 10,
		why: "the hop kernel as one ClusterRun on a fresh 2-node loopback cluster: sockets, frames, codec and one-shot bring-up; hop-tcp minus hop-chan isolates the TCP plane"},
	{name: "serve-chan", kind: serveJobs, jobs: serveChanJobs, rate: 4,
		why: "serve.Run sessions of tiny mixed jobs on the local backend: per-job lifecycle, logged events, reclaim, SC check, sampling; fixed per-job overhead is everything"},
	{name: "serve-tcp", kind: serveJobs, jobs: serveTCPJobs, tcp: true, rate: 3.5,
		why: "the same sessions on a warm 2-node cluster backend: control-plane round trips per job; serve-chan is its bypass"},
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// --- golden ------------------------------------------------------------------

//go:embed golden.json
var embeddedGolden []byte

// goldenEntry pins one workload's outputs at the default seed.
type goldenEntry struct {
	Digest    string  `json:"digest"`          // per-op digest (batch) or session digest (serve)
	Image     string  `json:"image,omitempty"` // batch: digest of the whole final memory image
	SimMsgs   float64 `json:"sim_msgs_per_op"`
	SimFlits  float64 `json:"sim_flits_per_op"`
	SimCycles float64 `json:"sim_cycles_per_op"`
}

type goldenFile struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

func loadGolden(path string) (*goldenFile, error) {
	b := embeddedGolden
	if path != "" {
		var err error
		if b, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return &g, nil
}

// --- set-up ------------------------------------------------------------------

// prepared is a workload after one set-up: inputs generated, expectations
// recorded by the oracle pass, caches warm.
type prepared struct {
	def  *workloadDef
	prog *batchProgram // batch
	spec serveSpec     // serve
	want *session      // serve: the session every later one must reproduce
	sim  *session      // serve: the session simulated time is read from
}

// warmShare is the warm-up's size as a share of the timed window's.
const warmShare = 0.05

// prepare runs one full set-up: generation, compile, oracle pass, backend
// or cluster bring-up, and warm-up ops (at least one).
func prepare(def *workloadDef, seed int64, seconds float64) (*prepared, error) {
	p := &prepared{def: def}
	warm := max(1, int(math.Round(warmShare*seconds*def.rate)))
	if def.kind == serveJobs {
		p.spec = serveSpec{seed: seed, jobs: def.jobs, tcp: def.tcp}
		// Simulated time is read from a local session at the default
		// seed, whatever -seed is: arrivals and job programs are drawn from
		// the seed, and a figure that moved with it could not be held to
		// equality. The batch workloads' simulated figures do not depend
		// on the seed to begin with.
		var err error
		if p.sim, err = runSession(serveSpec{seed: defaultSeed, jobs: def.jobs}, nil); err != nil {
			return nil, fmt.Errorf("reference session: %w", err)
		}
		if def.tcp {
			// The TCP backend must reproduce the local backend's report
			// byte for byte: replay this seed's configuration locally.
			if p.want, err = runSession(serveSpec{seed: seed, jobs: def.jobs}, nil); err != nil {
				return nil, fmt.Errorf("local replay: %w", err)
			}
		}
		w := runServeFor(0, warm, p.spec, func(s *session) error {
			if p.want == nil {
				p.want = s
			}
			return p.checkSession(s)
		})
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d jobs failed: %w", w.failed, w.attempted, w.firstErr)
		}
		return p, nil
	}
	var err error
	if p.prog, err = def.build(seed); err != nil {
		return nil, err
	}
	if err := p.prog.oracle(); err != nil {
		return nil, fmt.Errorf("oracle pass: %w", err)
	}
	if w := runBatchFor(0, warm, p.op); w.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %w", w.failed, w.attempted, w.firstErr)
	}
	return p, nil
}

// op runs one untraced batch op and checks it.
func (p *prepared) op() error {
	if p.def.kind == batchTCP {
		_, err := p.prog.runTCP(nil)
		return err
	}
	_, err := p.prog.runChan()
	return err
}

func (p *prepared) checkSession(s *session) error {
	if s.scChecked != s.completed {
		return fmt.Errorf("%d of %d completed jobs passed the SC check", s.scChecked, s.completed)
	}
	if !bytes.Equal(s.report, p.want.report) {
		return errors.New("report JSON differs from the reference session's")
	}
	if s.digest != p.want.digest {
		return fmt.Errorf("session digest %016x differs from the reference's %016x", s.digest, p.want.digest)
	}
	return nil
}

// observed is what the set-up pinned, in golden-file form.
func (p *prepared) observed() goldenEntry {
	if p.def.kind == serveJobs {
		return goldenEntry{
			Digest:  fmt.Sprintf("%016x", p.want.digest),
			SimMsgs: p.sim.simMsgs, SimFlits: p.sim.simFlits, SimCycles: p.sim.simCycles,
		}
	}
	w := p.prog.want
	return goldenEntry{
		Digest:  fmt.Sprintf("%016x", w.digest),
		Image:   fmt.Sprintf("%016x", p.prog.imageDigest),
		SimMsgs: float64(w.ctr.simMsgs()), SimFlits: float64(w.ctr.simFlits()), SimCycles: float64(w.cycles),
	}
}

// checkGolden compares the set-up's expectations with the committed file.
// Simulated time is the same at every seed and always checked; the digests
// are pinned at the file's seed only, and other seeds are self-consistent
// only.
func (p *prepared) checkGolden(g *goldenFile, seed int64) error {
	want, ok := g.Workloads[p.def.name]
	if !ok {
		return fmt.Errorf("golden file has no entry for %s", p.def.name)
	}
	got := p.observed()
	if seed != g.Seed {
		got.Digest, got.Image = want.Digest, want.Image
	}
	if got != want {
		return fmt.Errorf("golden mismatch at seed %d: got %+v, want %+v", seed, got, want)
	}
	return nil
}

// --- one untraced run ----------------------------------------------------------

const setupRepeats = 5

func runUntraced(out io.Writer, def *workloadDef, seed int64, seconds float64, g *goldenFile) (*result, error) {
	// Set-up runs several times and reports its median; the first pass
	// also pays the process's cold start, as a user would. A window of
	// under two seconds (the tests' scale) sets up once.
	var p *prepared
	setups := make([]float64, max(1, min(setupRepeats, int(seconds))))
	for i := range setups {
		t0 := processStart
		if i > 0 {
			t0 = time.Now()
		}
		var err error
		if p, err = prepare(def, seed, seconds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	goldenErr := p.checkGolden(g, seed)

	runtime.GC()
	var w *window
	if def.kind == serveJobs {
		w = runServeFor(seconds, 1, p.spec, p.checkSession)
	} else {
		w = runBatchFor(seconds, 1, p.op)
	}
	if w.ops == 0 {
		return nil, fmt.Errorf("no op completed: %w", w.firstErr)
	}

	obs := p.observed()
	ops := float64(w.ops)
	v := values{
		"setup_s":           median(setups),
		"ops_per_s":         w.opsPerSecond(),
		"op_ms_p50":         w.opNsPercentile(0.50) / 1e6,
		"op_ms_p90":         w.opNsPercentile(0.90) / 1e6,
		"cpu_ms_per_op":     w.cpuNsPerOp() / 1e6,
		"allocs_per_op":     float64(w.mallocs) / ops,
		"alloc_kb_per_op":   float64(w.bytes) / 1024 / ops,
		"peak_rss_mb":       peakRSSMiB(),
		"ok_ratio":          1 - float64(w.failed)/float64(w.attempted),
		"sim_msgs_per_op":   obs.SimMsgs,
		"sim_flits_per_op":  obs.SimFlits,
		"sim_cycles_per_op": obs.SimCycles,
	}
	m, err := report(endToEnd, v)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "end-to-end (untraced; %d timed ops in %d chunks of about %d op-time samples; host times are medians over the chunks):\n",
		w.ops, len(w.chunks), w.attempted/len(w.chunks))
	printTable(out, endToEnd, m)
	res := &result{Correct: w.failed == 0 && goldenErr == nil, Attempted: w.attempted, Failed: w.failed, Metrics: m}
	if w.failed > 0 {
		fmt.Fprintf(out, "FAILED: %d of %d ops; first: %v\n", w.failed, w.attempted, w.firstErr)
	}
	if goldenErr != nil {
		fmt.Fprintf(out, "FAILED: %v\n", goldenErr)
	}
	return res, nil
}

// --- command line ----------------------------------------------------------------

var processStart = time.Now()

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	repeat       int
	golden       string
	updateGolden string
	spec         bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (default: all of them, each in its own process)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of the input generators")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed window")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from the traced pass and probes")
	fs.IntVar(&o.repeat, "repeat", 0, "run the full untraced set this many times, alternating order, and compare the sets against the bounds")
	fs.StringVar(&o.golden, "golden", "", "golden file to check against (default: the one compiled in)")
	fs.StringVar(&o.updateGolden, "update-golden", "", "write the default seed's golden file to this path and exit")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	err := dispatch(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

var errChecksFailed = errors.New("checks failed")

func dispatch(o options, stdout, stderr io.Writer) error {
	switch {
	case o.spec:
		return writeSpec(stdout)
	case o.updateGolden != "":
		return updateGolden(o.updateGolden, stdout)
	case o.workload != "":
		return runOne(o, stdout)
	case o.repeat > 0:
		return runRepeat(o, stdout, stderr)
	default:
		return runAll(o, stdout, stderr)
	}
}

// runOne is the contract's entry point: one workload in this process, at
// one P, its result as the last line of standard output.
func runOne(o options, stdout io.Writer) error {
	def, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	g, err := loadGolden(o.golden)
	if err != nil {
		return err
	}
	// One P: wall time equals CPU time, layer self times add up, and the
	// numbers measure the program rather than the scheduler's work
	// stealing. The per-core efficiency currency of ROADMAP.md.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %d  GOMAXPROCS 1  nproc %d\n",
		def.name, o.seed, o.seconds, o.trace, runtime.NumCPU())
	var res *result
	if o.trace == 1 {
		res, err = runTraced(stdout, def, o.seed, o.seconds)
	} else {
		res, err = runUntraced(stdout, def, o.seed, o.seconds, g)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

// child re-executes this binary for one workload, so heap, GC state and
// peak RSS are per workload, and returns its parsed last line.
func child(o options, workload string, trace int, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}
	if o.golden != "" {
		args = append(args, "-golden", o.golden)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s: %w", workload, runErr)
	}
	return &res, nil
}

func runAll(o options, stdout, stderr io.Writer) error {
	var failed []string
	for _, def := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(o, def.name, trace, stdout, stderr); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				failed = append(failed, fmt.Sprintf("%s/trace=%d", def.name, trace))
			}
		}
		fmt.Fprintln(stdout)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: %s", errChecksFailed, strings.Join(failed, ", "))
	}
	return nil
}

// runRepeat runs the untraced set o.repeat times on the same code,
// reversing the workload order on alternate sets, and compares every later
// set with the first: host metrics must agree within their bounds, the
// exact ones exactly.
func runRepeat(o options, stdout, stderr io.Writer) error {
	sets := make([]map[string]*result, o.repeat)
	for i := range sets {
		sets[i] = make(map[string]*result)
		order := slices.Clone(workloads)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, def := range order {
			res, err := child(o, def.name, 0, io.Discard, stderr)
			if err != nil {
				return err
			}
			sets[i][def.name] = res
			fmt.Fprintf(stderr, "set %d: %s done\n", i+1, def.name)
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-11s %-18s %14s %14s %9s %8s\n", "workload", "metric", "set 1", "set n", "rel diff", "bound")
	for _, def := range workloads {
		for _, d := range endToEnd {
			a := sets[0][def.name].Metrics[d.Name].Value
			for i := 1; i < len(sets); i++ {
				b := sets[i][def.name].Metrics[d.Name].Value
				diff := 0.0
				if a != b {
					diff = math.Abs(a-b) / ((math.Abs(a) + math.Abs(b)) / 2)
				}
				bound := d.Bound
				if bound == exact {
					bound = 0
				}
				mark := ""
				if diff > bound {
					mark = "  <-- outside"
					bad++
				}
				fmt.Fprintf(stdout, "%-11s %-18s %14.6g %14.6g %8.2f%% %7.2f%%%s\n",
					def.name, d.Name, a, b, 100*diff, 100*bound, mark)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric pairs disagree by more than their bound", bad)
	}
	return nil
}

// updateGolden regenerates the golden file from one set-up per workload at
// the default seed.
func updateGolden(path string, stdout io.Writer) error {
	runtime.GOMAXPROCS(1)
	g := goldenFile{Seed: defaultSeed, Workloads: make(map[string]goldenEntry)}
	for i := range workloads {
		p, err := prepare(&workloads[i], defaultSeed, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", workloads[i].name, err)
		}
		g.Workloads[workloads[i].name] = p.observed()
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
