package core

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testConfig returns a small 2x2-mesh model-fidelity configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Mesh = geom.NewMesh(2, 2)
	cfg.GuestContexts = 0 // unlimited (model fidelity)
	cfg.ChargeMemory = false
	return cfg
}

// testPlacement homes page k (4 KB) at core k for k=0..3, so address
// 0x0000 is homed at core 0, 0x1000 at core 1, etc.
func testPlacement() placement.Policy { return placement.NewPageStriped(4096, 4) }

func mustRun(t *testing.T, cfg Config, pl placement.Policy, s Scheme, tr *trace.Trace,
	cb func(int, AccessInfo, Outcome)) (*Engine, *Result) {
	t.Helper()
	e, err := NewEngine(cfg, pl, s)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.Run(tr, cb)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e, res
}

// TestFigure1LocalHit exercises the left path of Figure 1: address cacheable
// at the current core → access memory and continue.
func TestFigure1LocalHit(t *testing.T) {
	tr := trace.New("f1-local", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x0000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x0004, Write: true})
	var outcomes []Outcome
	_, res := mustRun(t, testConfig(), testPlacement(), AlwaysMigrate{}, tr,
		func(_ int, _ AccessInfo, o Outcome) { outcomes = append(outcomes, o) })
	for i, o := range outcomes {
		if o != OutcomeLocal {
			t.Errorf("access %d outcome = %v, want local", i, o)
		}
	}
	if res.Cycles != 0 {
		t.Errorf("local accesses cost %d cycles in model fidelity, want 0", res.Cycles)
	}
	if res.Migrations != 0 || res.NonNative != 0 {
		t.Errorf("unexpected migrations=%d nonNative=%d", res.Migrations, res.NonNative)
	}
}

// TestFigure1Migration exercises the middle path: the thread migrates to the
// home core and continues there.
func TestFigure1Migration(t *testing.T) {
	cfg := testConfig()
	tr := trace.New("f1-mig", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000}) // migrate 0->1
	tr.Append(trace.Access{Thread: 0, Addr: 0x1004}) // local at 1
	tr.Append(trace.Access{Thread: 0, Addr: 0x0000}) // migrate back 1->0
	var outcomes []Outcome
	eng, res := mustRun(t, cfg, testPlacement(), AlwaysMigrate{}, tr,
		func(_ int, _ AccessInfo, o Outcome) { outcomes = append(outcomes, o) })
	want := []Outcome{OutcomeMigrated, OutcomeLocal, OutcomeMigrated}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("access %d = %v, want %v", i, outcomes[i], want[i])
		}
	}
	if res.Migrations != 2 {
		t.Errorf("migrations = %d, want 2", res.Migrations)
	}
	wantCycles := cfg.MigrationCost(0, 1, cfg.ContextBits) + cfg.MigrationCost(1, 0, cfg.ContextBits)
	if res.Cycles != wantCycles {
		t.Errorf("cycles = %d, want %d", res.Cycles, wantCycles)
	}
	if eng.Location(0) != 0 {
		t.Errorf("thread 0 ended at %d, want 0", eng.Location(0))
	}
	if res.BitsMoved != 2*int64(cfg.ContextBits) {
		t.Errorf("bits moved = %d", res.BitsMoved)
	}
}

// TestFigure1Eviction exercises the right path of Figure 1: a migration into
// a full core evicts a guest thread back to its native core on the separate
// eviction network.
func TestFigure1Eviction(t *testing.T) {
	cfg := testConfig()
	cfg.GuestContexts = 1
	tr := trace.New("f1-evict", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000}) // t0 migrates to core 1 (guest)
	tr.Append(trace.Access{Thread: 2, Addr: 0x1004}) // t2 migrates to core 1: full -> evict t0
	var outcomes []Outcome
	eng, res := mustRun(t, cfg, testPlacement(), AlwaysMigrate{}, tr,
		func(_ int, _ AccessInfo, o Outcome) { outcomes = append(outcomes, o) })
	if outcomes[0] != OutcomeMigrated {
		t.Errorf("first migration = %v", outcomes[0])
	}
	if outcomes[1] != OutcomeMigratedEvict {
		t.Errorf("second migration = %v, want migrated+evict", outcomes[1])
	}
	if res.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", res.Evictions)
	}
	// t0 must be back home in its native context; t2 is the guest at core 1.
	if eng.Location(0) != 0 {
		t.Errorf("evicted thread at %d, want native 0", eng.Location(0))
	}
	if eng.Location(2) != 1 {
		t.Errorf("migrating thread at %d, want 1", eng.Location(2))
	}
	if eng.GuestOccupancy(1) != 1 {
		t.Errorf("guest occupancy = %d, want 1", eng.GuestOccupancy(1))
	}
}

// TestNativeContextNeverEvicted: a thread executing at its native core is
// never displaced by incoming migrations — the deadlock-freedom invariant.
func TestNativeContextNeverEvicted(t *testing.T) {
	cfg := testConfig()
	cfg.GuestContexts = 1
	tr := trace.New("native-safe", 4)
	// Threads 1,2,3 all hammer page 0 (homed at core 0) while thread 0
	// stays home: every migration lands at core 0, evicting each other, but
	// never thread 0.
	for i := 0; i < 6; i++ {
		tr.Append(trace.Access{Thread: 1 + i%3, Addr: trace.Addr(i * 4)})
		tr.Append(trace.Access{Thread: 0, Addr: trace.Addr(0x20 + i*4)})
	}
	eng, _ := mustRun(t, cfg, testPlacement(), AlwaysMigrate{}, tr, nil)
	if eng.Location(0) != 0 {
		t.Errorf("native thread displaced to %d", eng.Location(0))
	}
}

// TestGuestOccupancyBounded: the guest-context pool never exceeds its
// capacity no matter the pressure (experiment M2, trace-driven side).
func TestGuestOccupancyBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mesh = geom.NewMesh(2, 2)
	cfg.GuestContexts = 2
	cfg.ChargeMemory = false
	tr := workload.Hotspot(workload.Config{Threads: 4, Scale: 64, Iters: 2, Seed: 3})
	pl := placement.NewFirstTouch(4096)
	eng, res := mustRun(t, cfg, pl, AlwaysMigrate{}, tr, nil)
	for c := geom.CoreID(0); int(c) < cfg.Mesh.Cores(); c++ {
		if occ := eng.GuestOccupancy(c); occ > cfg.GuestContexts {
			t.Errorf("core %d guest occupancy %d > %d", c, occ, cfg.GuestContexts)
		}
	}
	if res.Evictions == 0 {
		t.Error("hotspot with 2 guest contexts produced no evictions")
	}
}

// TestFigure3RemoteAccess exercises the EM²-RA remote path: the thread stays
// put and pays a round trip.
func TestFigure3RemoteAccess(t *testing.T) {
	cfg := testConfig()
	tr := trace.New("f3-ra", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000})              // read
	tr.Append(trace.Access{Thread: 0, Addr: 0x1004, Write: true}) // write
	var outcomes []Outcome
	eng, res := mustRun(t, cfg, testPlacement(), AlwaysRemote{}, tr,
		func(_ int, _ AccessInfo, o Outcome) { outcomes = append(outcomes, o) })
	for i, o := range outcomes {
		if o != OutcomeRemote {
			t.Errorf("access %d = %v, want remote", i, o)
		}
	}
	if eng.Location(0) != 0 {
		t.Errorf("thread moved under always-remote: %d", eng.Location(0))
	}
	wantCycles := cfg.RemoteAccessCost(0, 1, false) + cfg.RemoteAccessCost(0, 1, true)
	if res.Cycles != wantCycles {
		t.Errorf("cycles = %d, want %d", res.Cycles, wantCycles)
	}
	if res.RemoteAccesses != 2 || res.Migrations != 0 {
		t.Errorf("ra=%d mig=%d", res.RemoteAccesses, res.Migrations)
	}
}

// TestFigure3Decision: a hybrid scheme takes both paths depending on the
// access, exactly the decision box of Figure 3.
func TestFigure3Decision(t *testing.T) {
	cfg := testConfig()
	// Distance threshold 1: core 1 (1 hop) migrates, core 3 (2 hops) goes remote.
	scheme := NewDistance(cfg.Mesh, 1)
	tr := trace.New("f3-mixed", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000}) // 1 hop -> migrate
	tr.Append(trace.Access{Thread: 0, Addr: 0x0000}) // back home (1 hop)
	tr.Append(trace.Access{Thread: 0, Addr: 0x3000}) // 2 hops -> remote
	var outcomes []Outcome
	_, res := mustRun(t, cfg, testPlacement(), scheme, tr,
		func(_ int, _ AccessInfo, o Outcome) { outcomes = append(outcomes, o) })
	want := []Outcome{OutcomeMigrated, OutcomeMigrated, OutcomeRemote}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("access %d = %v, want %v", i, outcomes[i], want[i])
		}
	}
	if res.Migrations != 2 || res.RemoteAccesses != 1 {
		t.Errorf("mig=%d ra=%d", res.Migrations, res.RemoteAccesses)
	}
}

// TestRemoteCheaperThanMigrationForOneWord verifies the paper's motivating
// arithmetic for Figure 2's run-length-1 accesses: the thread migrates to
// the home core and right back, so the full context crosses the die twice
// "only to bring back one word of data". A remote-access round trip must
// beat that pair in latency, and beat it dramatically in traffic (the
// paper's power proxy). A single one-way migration, by contrast, is allowed
// to be cheap — that is exactly why migration wins for runs of length ≥ 2.
func TestRemoteCheaperThanMigrationForOneWord(t *testing.T) {
	cfg := DefaultConfig()
	src, dst := geom.CoreID(0), geom.CoreID(63)
	migPair := cfg.MigrationCost(src, dst, cfg.ContextBits) + cfg.MigrationCost(dst, src, cfg.ContextBits)
	ra := cfg.RemoteAccessCost(src, dst, false)
	if ra >= migPair {
		t.Errorf("remote round trip (%d) not cheaper than migrate-there-and-back (%d)", ra, migPair)
	}
	raTraffic := cfg.RemoteAccessTraffic(src, dst, false)
	migTraffic := cfg.MigrationTraffic(src, dst, cfg.ContextBits) + cfg.MigrationTraffic(dst, src, cfg.ContextBits)
	if raTraffic*3 >= migTraffic {
		t.Errorf("remote traffic (%d flit·hops) not well below migration pair (%d)", raTraffic, migTraffic)
	}
	// And a migration amortized over a run beats per-word round trips:
	// one one-way migration vs 10 remote reads.
	mig := cfg.MigrationCost(src, dst, cfg.ContextBits)
	if mig >= 10*ra {
		t.Errorf("migration (%d) not cheaper than 10 remote reads (%d)", mig, 10*ra)
	}
}

// TestRunLengthHistogram checks the Figure 2 statistic on a directed trace.
func TestRunLengthHistogram(t *testing.T) {
	tr := trace.New("runs", 4)
	// Thread 0: run of 3 at core 1, then 1 local, then run of 1 at core 2,
	// then run of 2 at core 1 again.
	seq := []struct {
		addr trace.Addr
	}{
		{0x1000}, {0x1004}, {0x1008}, // run(core1)=3
		{0x0000},           // native: flush
		{0x2000},           // run(core2)=1
		{0x1000}, {0x1004}, // run(core1)=2
	}
	for _, s := range seq {
		tr.Append(trace.Access{Thread: 0, Addr: s.addr})
	}
	_, res := mustRun(t, testConfig(), testPlacement(), AlwaysMigrate{}, tr, nil)
	h := res.RunLengths
	if h.Count(3) != 1 || h.Count(1) != 1 || h.Count(2) != 1 {
		t.Errorf("run counts: len1=%d len2=%d len3=%d", h.Count(1), h.Count(2), h.Count(3))
	}
	if h.Sum() != res.NonNative {
		t.Errorf("run-length mass %d != non-native accesses %d", h.Sum(), res.NonNative)
	}
	if res.NonNative != 6 {
		t.Errorf("non-native = %d, want 6", res.NonNative)
	}
}

// TestRunLengthSchemeInvariant: the run-length histogram is a property of
// trace+placement, identical under every decision scheme.
func TestRunLengthSchemeInvariant(t *testing.T) {
	tr := workload.Ocean(workload.Config{Threads: 4, Scale: 32, Iters: 1, Seed: 5})
	cfg := testConfig()
	schemes := []Scheme{AlwaysMigrate{}, AlwaysRemote{}, NewDistance(cfg.Mesh, 1), NewHistory(2)}
	var ref []int64
	for _, s := range schemes {
		pl := placement.NewFirstTouch(4096)
		_, res := mustRun(t, cfg, pl, s, tr, nil)
		bins := res.RunLengths.Bins()
		if ref == nil {
			ref = bins
			continue
		}
		for i := range bins {
			if bins[i] != ref[i] {
				t.Fatalf("scheme %s changed run-length bin %d: %d vs %d", s.Name(), i, bins[i], ref[i])
			}
		}
	}
}

// TestRunLengthChangeOfHomeBreaksRun: consecutive accesses to two different
// non-native cores form two runs, not one.
func TestRunLengthChangeOfHomeBreaksRun(t *testing.T) {
	tr := trace.New("switch", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x2000})
	_, res := mustRun(t, testConfig(), testPlacement(), AlwaysMigrate{}, tr, nil)
	if res.RunLengths.Count(1) != 2 {
		t.Errorf("want two runs of length 1, got hist %v", res.RunLengths)
	}
}

func TestHistoryScheme(t *testing.T) {
	cfg := testConfig()
	h := NewHistory(2)
	tr := trace.New("hist", 4)
	// First visit to page 1: isolated access (run length 1) -> next time, RA.
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x0000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x1004}) // predictor: last run 1 < 2 -> RA
	// Long run at page 2.
	tr.Append(trace.Access{Thread: 0, Addr: 0x2000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x2004})
	tr.Append(trace.Access{Thread: 0, Addr: 0x2008})
	tr.Append(trace.Access{Thread: 0, Addr: 0x0000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x2000}) // predictor: last run 3 >= 2 -> migrate
	var outcomes []Outcome
	mustRun(t, cfg, testPlacement(), h, tr,
		func(_ int, _ AccessInfo, o Outcome) { outcomes = append(outcomes, o) })
	// Access 0: unknown page -> RA. Access 2: run length 1 -> RA.
	if outcomes[0] != OutcomeRemote {
		t.Errorf("first touch of unknown page = %v, want remote", outcomes[0])
	}
	if outcomes[2] != OutcomeRemote {
		t.Errorf("page with short history = %v, want remote", outcomes[2])
	}
	if outcomes[7] != OutcomeMigrated {
		t.Errorf("page with long history = %v, want migrated", outcomes[7])
	}
}

func TestFixedSchemeReplaysAndExhausts(t *testing.T) {
	cfg := testConfig()
	f := NewFixed("oracle", map[int][]Decision{0: {RemoteAccess, Migrate}})
	tr := trace.New("fixed", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x2000})
	var outcomes []Outcome
	mustRun(t, cfg, testPlacement(), f, tr,
		func(_ int, _ AccessInfo, o Outcome) { outcomes = append(outcomes, o) })
	if outcomes[0] != OutcomeRemote || outcomes[1] != OutcomeMigrated {
		t.Errorf("outcomes = %v", outcomes)
	}
	// Exhaustion panics (indicates oracle/trace mismatch): a decision list
	// shorter than the thread's non-local access count.
	short := NewFixed("oracle-short", map[int][]Decision{0: {RemoteAccess}})
	tr2 := trace.New("fixed2", 4)
	tr2.Append(trace.Access{Thread: 0, Addr: 0x1000})
	tr2.Append(trace.Access{Thread: 0, Addr: 0x2000})
	e, _ := NewEngine(cfg, testPlacement(), short)
	defer func() {
		if recover() == nil {
			t.Error("exhausted fixed scheme did not panic")
		}
	}()
	e.Run(tr2, nil)
}

func TestDecisionString(t *testing.T) {
	if Migrate.String() != "migrate" || RemoteAccess.String() != "remote-access" {
		t.Error("decision strings")
	}
	if Decision(9).String() != "decision(9)" {
		t.Error("unknown decision string")
	}
	if OutcomeMigratedEvict.String() != "migrated+evict" || Outcome(9).String() != "outcome(9)" {
		t.Error("outcome strings")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}, testPlacement(), AlwaysMigrate{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewEngine(testConfig(), nil, AlwaysMigrate{}); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := NewEngine(testConfig(), testPlacement(), nil); err == nil {
		t.Error("nil scheme accepted")
	}
	e, _ := NewEngine(testConfig(), testPlacement(), AlwaysMigrate{})
	bad := trace.New("bad", 2)
	bad.Accesses = append(bad.Accesses, trace.Access{Thread: 7})
	if _, err := e.Run(bad, nil); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestFullFidelityChargesMemory(t *testing.T) {
	cfg := testConfig()
	cfg.ChargeMemory = true
	tr := trace.New("mem", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x0000}) // cold: DRAM
	tr.Append(trace.Access{Thread: 0, Addr: 0x0000}) // L1 hit
	_, res := mustRun(t, cfg, testPlacement(), AlwaysMigrate{}, tr, nil)
	want := int64(cfg.MemCycles) + 1
	if res.MemoryCycles != want {
		t.Errorf("memory cycles = %d, want %d", res.MemoryCycles, want)
	}
	if res.TotalCycles() != res.Cycles+res.MemoryCycles {
		t.Error("TotalCycles mismatch")
	}
	if res.Counters.Get("l1.hits") != 1 {
		t.Errorf("l1 hits counter = %d", res.Counters.Get("l1.hits"))
	}
}

// TestThreadConservation: every thread is in exactly one place after any
// run, and per-thread cycle attribution sums to the total.
func TestThreadConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mesh = geom.NewMesh(4, 4)
	cfg.GuestContexts = 2
	tr := workload.Ocean(workload.Config{Threads: 16, Scale: 64, Iters: 1, Seed: 2})
	pl := placement.NewFirstTouch(4096)
	eng, res := mustRun(t, cfg, pl, AlwaysMigrate{}, tr, nil)
	var sum int64
	for t2 := 0; t2 < tr.NumThreads; t2++ {
		if !cfg.Mesh.Contains(eng.Location(t2)) {
			t.Errorf("thread %d at invalid core %d", t2, eng.Location(t2))
		}
		sum += res.PerThreadCycles[t2]
	}
	if sum != res.TotalCycles() {
		t.Errorf("per-thread cycles %d != total %d", sum, res.TotalCycles())
	}
	// Guest occupancy equals number of threads not at their native core.
	away := 0
	for t2 := 0; t2 < tr.NumThreads; t2++ {
		if eng.Location(t2) != geom.CoreID(t2%cfg.Mesh.Cores()) {
			away++
		}
	}
	occ := 0
	for c := geom.CoreID(0); int(c) < cfg.Mesh.Cores(); c++ {
		occ += eng.GuestOccupancy(c)
	}
	if away != occ {
		t.Errorf("threads away %d != guest occupancy %d", away, occ)
	}
}

func TestResultString(t *testing.T) {
	tr := trace.New("s", 4)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000})
	_, res := mustRun(t, testConfig(), testPlacement(), AlwaysMigrate{}, tr, nil)
	if res.String() == "" {
		t.Error("empty result string")
	}
}

// countingLeaser is a Hybrid whose predictors count their Decide calls;
// it stays a Leaser by embedding.
type countingLeaser struct {
	*Hybrid
	decides *int
}

func (s countingLeaser) NewPredictor(thread int) Predictor {
	return countingPredictor{Predictor: s.Hybrid.NewPredictor(thread), decides: s.decides}
}

type countingPredictor struct {
	Predictor
	decides *int
}

func (p countingPredictor) Decide(info AccessInfo) Decision {
	*p.decides++
	return p.Predictor.Decide(info)
}

// TestEngineLeaseHitSkipsDecide: a read of a held word is a cached hit
// served before the scheme is asked — the first read misses and fills,
// the second hits without a Decide — and a write still asks.
func TestEngineLeaseHitSkipsDecide(t *testing.T) {
	tr := trace.New("held", 1)
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000})
	tr.Append(trace.Access{Thread: 0, Addr: 0x1000, Write: true})
	var decides int
	var got []Outcome
	var asked []int
	s := countingLeaser{Hybrid: NewHybrid(8), decides: &decides}
	mustRun(t, testConfig(), testPlacement(), s, tr, func(i int, _ AccessInfo, o Outcome) {
		got = append(got, o)
		asked = append(asked, decides)
	})
	if want := []Outcome{OutcomeRemoteCached, OutcomeCachedHit, OutcomeRemote}; !slices.Equal(got, want) {
		t.Fatalf("outcomes %v, want %v", got, want)
	}
	if want := []int{1, 1, 2}; !slices.Equal(asked, want) {
		t.Errorf("Decide calls after each access %v, want %v: the held read must not reach the scheme", asked, want)
	}
}

// TestEngineDecideContract is the model side of the Leaser contract on a
// hop-like trace under hybrid:64 (16 threads, a 4x4 mesh, 4 KiB pages
// striped over the cores): each thread writes its own page and reads four
// words of another thread's page, and one extra thread writes and reads
// two far pages, so the run has lease hits, remote writes and migrations.
// Decide runs exactly once per remote access or migration.
func TestEngineDecideContract(t *testing.T) {
	const n, page = 16, 4096
	tr := trace.New("hop", n+1)
	for it := 0; it < 40; it++ {
		for th := 0; th < n; th++ {
			own, peer := trace.Addr(page*th), trace.Addr(page*((th+n/2)%n))
			tr.Append(trace.Access{Thread: th, Addr: own, Write: true})
			for w := trace.Addr(0); w < 16; w += 4 {
				tr.Append(trace.Access{Thread: th, Addr: peer + w})
			}
		}
		for _, a := range []trace.Access{{Addr: 5 * page, Write: true}, {Addr: 5*page + 4, Write: true},
			{Addr: 9 * page}, {Addr: 9*page + 4}, {Addr: 9*page + 8, Write: true}} {
			a.Thread = n
			tr.Append(a)
		}
	}
	cfg := DefaultConfig()
	cfg.Mesh = geom.NewMesh(4, 4)
	cfg.GuestContexts = 0
	cfg.ChargeMemory = false
	var decides int
	_, res := mustRun(t, cfg, placement.NewPageStriped(page, n), countingLeaser{Hybrid: NewHybrid(64), decides: &decides}, tr, nil)
	if res.LeaseHits == 0 || res.Migrations == 0 || res.Evictions != 0 {
		t.Fatalf("%d lease hits, %d migrations, %d evictions; the check needs hits, migrations and no evictions",
			res.LeaseHits, res.Migrations, res.Evictions)
	}
	if want := res.RemoteAccesses + res.Migrations; int64(decides) != want {
		t.Errorf("%d Decide calls; want remote accesses %d + migrations %d = %d (lease hits %d)",
			decides, res.RemoteAccesses, res.Migrations, want, res.LeaseHits)
	}
}
