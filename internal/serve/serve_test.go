package serve

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func testCfg(jobs int) Config {
	return Config{
		W: 2, H: 2,
		Workload:    "mix",
		Jobs:        jobs,
		Seed:        7,
		MeanGap:     1500,
		MaxInflight: 8,
		Timeout:     60 * time.Second,
	}
}

func runLocal(t *testing.T, cfg Config) *Report {
	t.Helper()
	be, err := NewLocalBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	rep, err := Run(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// runCluster serves cfg on a self-hosted loopback cluster of the given
// node count; a node's failure fails the test.
func runCluster(t *testing.T, cfg Config, nodes int) *Report {
	t.Helper()
	man, join, err := machine.Loopback(nodes, cfg.W, cfg.H)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewClusterBackend(cfg, man)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg, be)
	be.Close()
	if err = errors.Join(err, join()); err != nil {
		t.Fatal(err)
	}
	return rep
}

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeLocalDeterministic pins the seeded-replay guarantee on the
// channel backend: the same Config yields a byte-identical report, every
// job is SC-checked, and the admission accounting balances.
func TestServeLocalDeterministic(t *testing.T) {
	t.Parallel()
	cfg := testCfg(12)
	a := runLocal(t, cfg)
	b := runLocal(t, cfg)
	if a.Submitted != 12 || a.Completed+a.Rejected != a.Submitted {
		t.Fatalf("admission accounting: submitted=%d completed=%d rejected=%d", a.Submitted, a.Completed, a.Rejected)
	}
	if a.Completed == 0 {
		t.Fatal("no jobs completed")
	}
	if a.SCChecked != a.Completed {
		t.Fatalf("SC-checked %d of %d completed jobs", a.SCChecked, a.Completed)
	}
	if a.LatencyCycles.N != a.Completed || a.LatencyCycles.Min <= 0 {
		t.Fatalf("latency summary over %d samples with min %v", a.LatencyCycles.N, a.LatencyCycles.Min)
	}
	ab, bb := reportBytes(t, a), reportBytes(t, b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("same seed produced different reports:\n--- run A\n%s\n--- run B\n%s", ab, bb)
	}
}

// TestServeDifferentialTransports is the tentpole acceptance test: the
// same seeded serving run produces a byte-identical SLO report on the
// in-process channel transport and on a real 2-node TCP cluster.
func TestServeDifferentialTransports(t *testing.T) {
	t.Parallel()
	cfg := testCfg(9)
	local := runLocal(t, cfg)

	clustered := runCluster(t, cfg, 2)

	lb, cb := reportBytes(t, local), reportBytes(t, clustered)
	if !bytes.Equal(lb, cb) {
		t.Fatalf("channel and TCP transports produced different reports:\n--- channel\n%s\n--- tcp\n%s", lb, cb)
	}
}

// TestServeDifferential8Node extends the channel-vs-TCP byte-identity
// check to a maximally sharded cluster: 8 node processes, one core each,
// over the fan-out injection, retirement-barrier, and incremental-collect
// control plane. Any partitioning dependence in the new paths — chunk
// reassembly, drained-event merging, heartbeat traffic leaking into the
// report — breaks the byte comparison.
func TestServeDifferential8Node(t *testing.T) {
	t.Parallel()
	cfg := testCfg(9)
	cfg.W, cfg.H = 4, 2
	local := runLocal(t, cfg)

	clustered := runCluster(t, cfg, 8)

	lb, cb := reportBytes(t, local), reportBytes(t, clustered)
	if !bytes.Equal(lb, cb) {
		t.Fatalf("channel and 8-node TCP produced different reports:\n--- channel\n%s\n--- 8-node tcp\n%s", lb, cb)
	}
}

// TestServeReportUnchangedBySampling pins the advisory-plane guarantee:
// turning telemetry on (sink + observer, aggressive cadence) changes not
// one byte of the deterministic report.
func TestServeReportUnchangedBySampling(t *testing.T) {
	t.Parallel()
	cfg := testCfg(12)
	plain := runLocal(t, cfg)

	var sink telemetry.MemorySink
	var checker telemetry.Checker
	cfg.Sink = &sink
	cfg.SampleEvery = 1000
	cfg.Observe = func(s *transport.Sample, cycle uint64) {
		// Every serve sampling point is an arrival-processing boundary, so
		// the machine is physically quiescent: gauges must read zero.
		checker.Check(s, true)
	}
	sampled := runLocal(t, cfg)

	pb, sb := reportBytes(t, plain), reportBytes(t, sampled)
	if !bytes.Equal(pb, sb) {
		t.Fatalf("sampling changed the report:\n--- off\n%s\n--- on\n%s", pb, sb)
	}
	if len(sink.Bytes()) == 0 || checker.Checked() == 0 {
		t.Fatalf("sampling emitted %d bytes over %d observations; expected a live stream", len(sink.Bytes()), checker.Checked())
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("telemetry invariants violated: %+v", v)
	}
	// The stream itself replays byte-identically at the same seed.
	var again telemetry.MemorySink
	cfg.Sink = &again
	cfg.Observe = nil
	runLocal(t, cfg)
	if !bytes.Equal(sink.Bytes(), again.Bytes()) {
		t.Fatal("same seed produced different telemetry streams")
	}
}

// TestServeTelemetryDifferential8Node pins the tentpole telemetry
// guarantee: the sampled stream at a fixed seed is byte-identical between
// the in-process channel transport and a maximally sharded 8-node TCP
// cluster — per-core counter attribution, merge ordering and virtual-time
// stamping all agree, and nothing transport-dependent (NetStats, wire
// batching, heartbeat traffic) leaks into the stream.
func TestServeTelemetryDifferential8Node(t *testing.T) {
	t.Parallel()
	cfg := testCfg(9)
	cfg.W, cfg.H = 4, 2
	cfg.SampleEvery = 2000
	var localSink telemetry.MemorySink
	cfg.Sink = &localSink
	local := runLocal(t, cfg)

	var tcpSink telemetry.MemorySink
	cfg.Sink = &tcpSink
	clustered := runCluster(t, cfg, 8)

	lb, cb := reportBytes(t, local), reportBytes(t, clustered)
	if !bytes.Equal(lb, cb) {
		t.Fatalf("channel and 8-node TCP produced different reports:\n--- channel\n%s\n--- tcp\n%s", lb, cb)
	}
	if len(localSink.Bytes()) == 0 {
		t.Fatal("no telemetry emitted")
	}
	if !bytes.Equal(localSink.Bytes(), tcpSink.Bytes()) {
		t.Fatalf("telemetry streams diverged:\n--- channel\n%s\n--- 8-node tcp\n%s", localSink.Bytes(), tcpSink.Bytes())
	}
}

// TestServeSoakBounded is the long-run regression for the unbounded-
// serving bugs: 2000 jobs on a 64-core mesh, every one at the one region
// base. Run itself enforces the boundedness invariant — every retire must
// have emptied the machine of the job's words and events, and the final
// drain errors on any stray state — so completing the soak is the
// assertion that an open-loop server no longer grows O(jobs).
func TestServeSoakBounded(t *testing.T) {
	t.Parallel()
	cfg := testCfg(2000)
	cfg.W, cfg.H = 8, 8
	rep := runLocal(t, cfg)
	if rep.Submitted != 2000 || rep.Completed+rep.Rejected != 2000 {
		t.Fatalf("admission accounting: submitted=%d completed=%d rejected=%d", rep.Submitted, rep.Completed, rep.Rejected)
	}
	if rep.Completed < 1000 {
		t.Fatalf("only %d of 2000 jobs completed (window stuck?)", rep.Completed)
	}
	if rep.SCChecked != rep.Completed {
		t.Fatalf("SC-checked %d of %d completed jobs", rep.SCChecked, rep.Completed)
	}
}

// TestServeHybridSoakReclaimsLeases is the lease-lifecycle companion to
// TestServeSoakBounded: the same soak under the hybrid caching scheme.
// Every job runs at the one base, so its retire must drop the shards'
// lease records with the words (shard.drain), and a lease cache is
// resident only with a live context, which no retire runs beside
// (Part.RetireJob panics on one): a later job can never be served a
// stale lease. Run enforces boundedness on every retirement, and the
// seeded-replay check pins that lease traffic — grants, write-updates,
// expiries — never perturbs the byte-identical report.
func TestServeHybridSoakReclaimsLeases(t *testing.T) {
	t.Parallel()
	cfg := testCfg(300)
	cfg.W, cfg.H = 4, 4
	cfg.Scheme = "hybrid:16"
	a := runLocal(t, cfg)
	if a.Submitted != 300 || a.Completed+a.Rejected != 300 {
		t.Fatalf("admission accounting: submitted=%d completed=%d rejected=%d", a.Submitted, a.Completed, a.Rejected)
	}
	if a.Completed < 150 {
		t.Fatalf("only %d of 300 jobs completed under hybrid (window stuck?)", a.Completed)
	}
	if a.SCChecked != a.Completed {
		t.Fatalf("SC-checked %d of %d completed jobs", a.SCChecked, a.Completed)
	}
	b := runLocal(t, cfg)
	ab, bb := reportBytes(t, a), reportBytes(t, b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("hybrid serving broke seeded replay:\n--- run A\n%s\n--- run B\n%s", ab, bb)
	}
}

// TestServeAdmissionRejects fills the in-flight window with simultaneous
// arrivals: exactly MaxInflight jobs are admitted, the rest are rejected
// with a count, and the rejected jobs leave no trace in the latency sample.
func TestServeAdmissionRejects(t *testing.T) {
	t.Parallel()
	cfg := testCfg(0)
	cfg.Arrivals = []uint64{0, 0, 0, 0, 0, 0}
	cfg.MaxInflight = 2
	rep := runLocal(t, cfg)
	if rep.Submitted != 6 || rep.Completed != 2 || rep.Rejected != 4 {
		t.Fatalf("submitted=%d completed=%d rejected=%d, want 6/2/4", rep.Submitted, rep.Completed, rep.Rejected)
	}
	if rep.LatencyCycles.N != 2 {
		t.Fatalf("latency sample has %d entries, want the 2 admitted jobs", rep.LatencyCycles.N)
	}
}

// retireRecorder is a pass-through Backend that keeps every job's retired
// events, in retirement order.
type retireRecorder struct {
	Backend
	events [][]machine.Event
}

func (b *retireRecorder) Retire(j *Job, timeout time.Duration) ([]machine.Event, error) {
	ev, err := b.Backend.Retire(j, timeout)
	b.events = append(b.events, slices.Clone(ev))
	return ev, err
}

// TestServeLocalJobsRepeatExactly: an in-process job lands in one round,
// so its whole schedule — every event's home sequence number and the
// order its shards log them in — repeats run to run. The report cannot
// show this, since it is schedule-independent; the retired events can.
// Contexts pushed into the running executor one at a time used to land
// over however many rounds goroutine timing allowed.
func TestServeLocalJobsRepeatExactly(t *testing.T) {
	t.Parallel()
	cfg := testCfg(40)
	run := func() [][]machine.Event {
		be, err := NewLocalBackend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		rec := &retireRecorder{Backend: be}
		if _, err := Run(cfg, rec); err != nil {
			t.Fatal(err)
		}
		return rec.events
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("retired %d and %d jobs", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("job %d retired different events:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestServeTraceArrivals drives the run from an explicit arrival trace
// spaced wider than any job latency: every job is admitted even with a
// window of one.
func TestServeTraceArrivals(t *testing.T) {
	t.Parallel()
	cfg := testCfg(0)
	cfg.Arrivals = []uint64{0, 1 << 20, 2 << 20, 3 << 20}
	cfg.MaxInflight = 1
	rep := runLocal(t, cfg)
	if rep.Completed != 4 || rep.Rejected != 0 {
		t.Fatalf("completed=%d rejected=%d, want 4/0", rep.Completed, rep.Rejected)
	}
	if rep.MakespanCycles <= 3<<20 {
		t.Fatalf("makespan %d does not extend past the last arrival", rep.MakespanCycles)
	}
}

// TestRunRejectsBackwardsTrace pins the trace validation.
func TestRunRejectsBackwardsTrace(t *testing.T) {
	t.Parallel()
	cfg := testCfg(0)
	cfg.Arrivals = []uint64{100, 50}
	be, err := NewLocalBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if _, err := Run(cfg, be); err == nil || !strings.Contains(err.Error(), "goes backwards") {
		t.Fatalf("got %v, want a backwards-trace error", err)
	}
}

func TestPoissonArrivals(t *testing.T) {
	t.Parallel()
	a := PoissonArrivals(3, 50, 1000)
	b := PoissonArrivals(3, 50, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d (%d) before arrival %d (%d)", i, a[i], i-1, a[i-1])
		}
	}
	c := PoissonArrivals(4, 50, 1000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival sequences")
	}
}

func TestParseTrace(t *testing.T) {
	t.Parallel()
	got, err := ParseTrace(strings.NewReader("# header\n10\n\n20\n20\n35\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 20, 20, 35}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"10\n5\n", "abc\n", "", "# only comments\n"} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseTrace(%q) accepted a bad trace", bad)
		}
	}
}

// TestRebase pins the relocation rules: memory operands move from r0 to
// the base register, the base register is pinned in the initial registers,
// the memory image shifts, and non-relocatable programs are rejected.
func TestRebase(t *testing.T) {
	t.Parallel()
	lit := machine.StoreBufferingLitmus(64)
	base := uint32(5 * RegionBytes)
	threads, mem, err := Rebase(lit, base)
	if err != nil {
		t.Fatal(err)
	}
	for ti, spec := range threads {
		if got := spec.Regs[baseReg]; got != base {
			t.Fatalf("thread %d: r%d = %d, want base %d", ti, baseReg, got, base)
		}
		for i, in := range spec.Program {
			orig := lit.Threads[ti].Program[i]
			if orig.IsMem() {
				if in.Rs != baseReg || in.Imm != orig.Imm {
					t.Fatalf("thread %d instr %d: rebased to %+v", ti, i, in)
				}
			} else if in != orig {
				t.Fatalf("thread %d instr %d: non-memory instruction changed: %+v -> %+v", ti, i, orig, in)
			}
		}
	}
	//em2:unordered-ok: independent per-address assertions; any failing word is fatal
	for a, v := range lit.Mem {
		if mem[base+a] != v {
			t.Fatalf("memory word %#x did not shift to %#x", a, base+a)
		}
	}

	reject := func(name string, lit machine.Litmus, want string) {
		t.Helper()
		if _, _, err := Rebase(lit, base); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got %v, want error mentioning %q", name, err, want)
		}
	}
	reject("writes-base-reg", machine.Litmus{Threads: []machine.ThreadSpec{{
		Program: []isa.Instr{{Op: isa.ADDI, Rd: baseReg, Rs: 0, Imm: 1}, {Op: isa.HALT}},
	}}}, "reserved region base register")
	reject("non-absolute-addressing", machine.Litmus{Threads: []machine.ThreadSpec{{
		Program: []isa.Instr{{Op: isa.LW, Rd: 1, Rs: 2, Imm: 0}, {Op: isa.HALT}},
	}}}, "only absolute r0 addressing")
	reject("address-outside-region", machine.Litmus{Threads: []machine.ThreadSpec{{
		Program: []isa.Instr{{Op: isa.LW, Rd: 1, Rs: 0, Imm: RegionBytes}, {Op: isa.HALT}},
	}}}, "outside")
	reject("initial-reg-collision", machine.Litmus{Threads: []machine.ThreadSpec{{
		Program: []isa.Instr{{Op: isa.HALT}},
		Regs:    map[int]uint32{baseReg: 9},
	}}}, "collides")
}

// TestWorkloadsGenerate sanity-checks every named workload end to end on a
// tiny run.
func TestWorkloadsGenerate(t *testing.T) {
	t.Parallel()
	for _, w := range Workloads() {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			cfg := testCfg(4)
			cfg.Workload = w
			rep := runLocal(t, cfg)
			if rep.Completed == 0 || rep.SCChecked != rep.Completed {
				t.Fatalf("workload %s: completed=%d sc_checked=%d", w, rep.Completed, rep.SCChecked)
			}
		})
	}
}

// TestRebasedJobMatchesOriginal runs the counter litmus raw at region 0 on
// one machine and rebased into a high region on another: the final
// counter, read at the shifted address, must match — the rebase is a pure
// relocation.
func TestRebasedJobMatchesOriginal(t *testing.T) {
	t.Parallel()
	lit := machine.AtomicCounterLitmus(3, 4)
	base := uint32(10 * RegionBytes)
	threads, mem, err := Rebase(lit, base)
	if err != nil {
		t.Fatal(err)
	}
	run := func(th []machine.ThreadSpec, image map[uint32]uint32) *machine.ClusterResult {
		t.Helper()
		res, err := machine.ClusterRun{Manifest: transport.Manifest{W: 2, H: 2}, Threads: th, Mem: image}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	orig := run(lit.Threads, lit.Mem)
	moved := run(threads, mem)
	if o, m := orig.Mem[0], moved.Mem[base]; o != m || m != 12 {
		t.Fatalf("counter at %#x is %d, original at 0 is %d, want both 12", base, m, o)
	}
}

// TestClusterDrainNodeDiesDuringCollect is the serve face of the collect
// barrier's death arm: a fake node loads and drops its connection when
// the drain's collect request arrives (it installs no control handler, so
// the request is protocol corruption to it). Drain must fail at once
// naming the node, not wait out its timeout.
func TestClusterDrainNodeDiesDuringCollect(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := transport.ListenNode(man, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.Close() })
	go func() {
		spec := <-tn.Loads()
		tn.Prepare(spec.NumThreads)
		tn.Ready()
		_ = tn.SendReply(transport.Reply{}) //em2:errsink-ok: stub node; coordinator teardown is the condition under test
	}()
	be, err := NewClusterBackend(testCfg(1), man)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	start := time.Now() //em2:wallclock-ok: the test's subject is how long a failure takes to surface
	_, err = be.Drain(10 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "connection to node 0 lost") {
		t.Fatalf("got error %v, want the drain to name the lost node", err)
	}
	if took := time.Since(start); took > 5*time.Second { //em2:wallclock-ok: see above
		t.Fatalf("node death during drain took %v to surface (timeout bleed-out)", took)
	}
}

// TestClusterStuckJobTimeoutNamesNodes runs a job that never halts on a
// 2-node cluster backend. The timeout must come back as a diagnosis — the
// coordinator's last heartbeat from each node — as ClusterRun's does; the
// serve path used to report only "timed out with k of n threads halted".
func TestClusterStuckJobTimeoutNamesNodes(t *testing.T) {
	t.Parallel()
	cfg := testCfg(1)
	man, join, err := machine.Loopback(2, cfg.W, cfg.H)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewClusterBackend(cfg, man)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until both nodes have heartbeated, so the diagnosis has a line
	// with a sequence number for each.
	co := be.(*backend).cl.(*machine.TCPCluster)
	for deadline := time.After(10 * time.Second); len(co.Heartbeats()) < 2; {
		select {
		case <-deadline:
			t.Fatalf("heartbeats from %d of 2 nodes after 10s", len(co.Heartbeats()))
		case <-time.After(10 * time.Millisecond):
		}
	}
	spin := isa.MustAssemble(`
	spin:
		lw   r1, 128(r0)
		beq  r1, r0, spin
		halt
	`)
	job := &Job{Index: 0, Name: "spin", Threads: []machine.ThreadSpec{{Program: spin}}}
	_, err = be.RunJob(job, 300*time.Millisecond)
	be.Close()
	if jerr := join(); jerr != nil {
		t.Fatal(jerr)
	}
	if err == nil {
		t.Fatal("a job that never halts completed")
	}
	for _, want := range []string{"timed out with 0 of 1 threads halted", "last heartbeats", "node 0 seq", "node 1 seq"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("timeout surfaced as %q, want it to contain %q", err, want)
		}
	}
}

// TestServeSlotReuseStateFree pins that a serve slot carries nothing from
// one job to the next. A Part keeps one context object per slot and reuses
// it on every arrival, so a job run in the slots (and region) of an earlier,
// different job must report exactly what it reports on a fresh machine: the
// same halts (Regs, Cycles, Msgs) and the same lease counters, under both
// stateful schemes, on the channel and the 2-node TCP backend.
func TestServeSlotReuseStateFree(t *testing.T) {
	t.Parallel()
	for _, scheme := range []string{"history:2", "hybrid:64"} {
		cfg := testCfg(1)
		cfg.Workload, cfg.Scheme = "rand-priv", scheme
		cfg = cfg.withDefaults()
		// Both jobs use region 1, as the pool hands it out again after a
		// retirement, so stale predictor or lease state would meet its pages.
		prev, job := mustBuildJob(t, cfg, 0), mustBuildJob(t, cfg, 1)
		for _, nodes := range []int{0, 2} {
			fresh := runJobs(t, cfg, nodes, job)
			reused := runJobs(t, cfg, nodes, prev, job)
			if fresh.lease != reused.lease {
				t.Errorf("%s, %d nodes: lease hits/misses/invals %v on a reused slot, %v on a fresh one",
					scheme, nodes, reused.lease, fresh.lease)
			}
			for i := range fresh.halts {
				if fresh.halts[i] != reused.halts[i] {
					t.Errorf("%s, %d nodes, slot %d: halt %+v on a reused slot, %+v on a fresh one",
						scheme, nodes, i, reused.halts[i], fresh.halts[i])
				}
			}
		}
	}
}

func mustBuildJob(t *testing.T, cfg Config, i int) *Job {
	t.Helper()
	j, err := buildJob(cfg, i)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// jobOutcome is what one job leaves behind: its halts and the lease
// counters (hits, misses, own-write invalidations) it moved.
type jobOutcome struct {
	halts []transport.HaltMsg
	lease [3]int64
}

// runJobs runs jobs one after another on a new backend (channel when nodes
// is 0, else a loopback TCP cluster) and returns the last job's outcome.
func runJobs(t *testing.T, cfg Config, nodes int, jobs ...*Job) jobOutcome {
	t.Helper()
	var be Backend
	join := func() error { return nil }
	var err error
	if nodes == 0 {
		be, err = NewLocalBackend(cfg)
	} else {
		var man transport.Manifest
		if man, join, err = machine.Loopback(nodes, cfg.W, cfg.H); err == nil {
			be, err = NewClusterBackend(cfg, man)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	leases := func() [3]int64 {
		s, err := be.Sample()
		if err != nil {
			t.Fatal(err)
		}
		m := transport.SumMetrics(s.PerCore)
		return [3]int64{m.LeaseHits, m.LeaseMisses, m.LeaseInvals}
	}
	var out jobOutcome
	for _, j := range jobs {
		before := leases()
		if out.halts, err = be.RunJob(j, cfg.Timeout); err != nil {
			t.Fatal(err)
		}
		if _, err = be.Retire(j, cfg.Timeout); err != nil {
			t.Fatal(err)
		}
		after := leases()
		for i := range out.lease {
			out.lease[i] = after[i] - before[i]
		}
	}
	be.Close()
	if err := join(); err != nil {
		t.Fatal(err)
	}
	return out
}
