package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Outcome classifies what happened to one memory access — the terminal boxes
// of the paper's Figure 1 and Figure 3 flow charts.
type Outcome int

// Access outcomes.
const (
	// OutcomeLocal: the address is cacheable at the current core; access
	// memory and continue execution (Figures 1 and 3, left path).
	OutcomeLocal Outcome = iota
	// OutcomeMigrated: the thread migrated to the home core, which had a
	// free context (Figure 1, "migrate thread to home core").
	OutcomeMigrated
	// OutcomeMigratedEvict: the thread migrated and the destination had to
	// evict a guest thread to its native core (Figure 1, "# threads
	// exceeded? → migrate another thread back to its native core").
	OutcomeMigratedEvict
	// OutcomeRemote: the thread sent a remote request and got a data/ack
	// reply without moving (Figure 3, "send remote request to home core").
	OutcomeRemote
	// OutcomeCachedHit: a read served from the thread's lease cache —
	// no network traffic at all (lease.go).
	OutcomeCachedHit
	// OutcomeRemoteCached: a remote read that also requested a lease, so
	// the reply filled the thread's lease cache.
	OutcomeRemoteCached
)

// String implements fmt.Stringer.
//
//em2:reference-only fmt.Stringer for test failure output
func (o Outcome) String() string {
	switch o {
	case OutcomeLocal:
		return "local"
	case OutcomeMigrated:
		return "migrated"
	case OutcomeMigratedEvict:
		return "migrated+evict"
	case OutcomeRemote:
		return "remote"
	case OutcomeCachedHit:
		return "cached-hit"
	case OutcomeRemoteCached:
		return "remote+lease"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Result aggregates one engine run.
type Result struct {
	Workload  string
	Scheme    string
	Placement string
	Threads   int

	Accesses  int64
	Local     int64 // accesses satisfied at the thread's current core
	NonNative int64 // accesses to memory homed away from the native core (Figure 2 numerator)

	Migrations     int64
	Evictions      int64
	RemoteAccesses int64 // includes the lease-requesting remote reads (LeaseMisses)

	// The lease-layer counters (zero for non-caching schemes): reads
	// served from the lease cache, lease-requesting remote-read fills,
	// and self-invalidations on the holder's own writes.
	LeaseHits   int64
	LeaseMisses int64
	LeaseInvals int64

	Cycles       int64 // network + overhead cycles (the §3 model cost)
	MemoryCycles int64 // cache/DRAM cycles (full fidelity only)
	BitsMoved    int64 // context + request/reply bits on the interconnect
	Traffic      int64 // flit·hops (energy proxy)

	// RunLengths bins maximal runs of consecutive same-home non-native
	// accesses per thread by their length; Figure 2 plots, for each length
	// L, L×RunLengths.Count(L) (accesses contributing to runs of length L).
	RunLengths *stats.Hist

	PerThreadCycles []int64
	Counters        stats.Counters
}

// TotalCycles returns model plus memory cycles.
func (r *Result) TotalCycles() int64 { return r.Cycles + r.MemoryCycles }

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: accesses=%d local=%d mig=%d evict=%d ra=%d cycles=%d traffic=%d",
		r.Workload, r.Scheme, r.Accesses, r.Local, r.Migrations, r.Evictions, r.RemoteAccesses,
		r.TotalCycles(), r.Traffic)
}

// Engine executes memory traces against a placement and a decision scheme
// under the EM² cost model. An Engine is single-use state-wise: construct
// one per Run.
type Engine struct {
	cfg    Config
	place  placement.Policy
	scheme Scheme
	preds  []Predictor // per-thread decision state

	loc        []geom.CoreID // current core per thread
	native     []geom.CoreID
	lastActive []int64 // access counter per thread, for LRU eviction

	// guests[core] = threads currently occupying guest contexts there.
	guests [][]int

	hier []*cache.Hierarchy // per-core caches (full fidelity)

	// run-length tracking per thread
	runHome []geom.CoreID
	runLen  []int

	// lease[t] is thread t's lease cache — allocated only when the
	// scheme implements Leaser. This is the same LeaseCache the runtime
	// uses, which is what makes the oracle exact for caching schemes.
	lease []*LeaseCache

	res *Result
}

// RunLengthBins is the histogram bound used for Figure 2, matching the
// paper's x-axis which runs to 58 with everything larger accumulated at the
// tail.
const RunLengthBins = 59

// NewEngine builds an engine. nativeOf maps threads to their native cores;
// nil means thread i is native to core i mod cores (the paper's one
// thread per core arrangement).
func NewEngine(cfg Config, place placement.Policy, scheme Scheme) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if place == nil || scheme == nil {
		return nil, fmt.Errorf("core: nil placement or scheme")
	}
	return &Engine{cfg: cfg, place: place, scheme: scheme}, nil
}

// Run executes the trace and returns aggregate results. The callback, if
// non-nil, observes every access outcome in trace order (used by the flow
// tests for Figures 1 and 3 and by the concurrent-runtime cross-check).
func (e *Engine) Run(tr *trace.Trace, callback func(i int, info AccessInfo, o Outcome)) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	cores := e.cfg.Mesh.Cores()
	n := tr.NumThreads
	e.loc = make([]geom.CoreID, n)
	e.native = make([]geom.CoreID, n)
	e.lastActive = make([]int64, n)
	e.guests = make([][]int, cores)
	e.runHome = make([]geom.CoreID, n)
	e.runLen = make([]int, n)
	e.preds = make([]Predictor, n)
	for t := 0; t < n; t++ {
		e.native[t] = geom.CoreID(t % cores)
		e.loc[t] = e.native[t]
		e.runHome[t] = geom.None
		e.preds[t] = e.scheme.NewPredictor(t)
	}
	if lz, ok := e.scheme.(Leaser); ok {
		e.lease = make([]*LeaseCache, n)
		for t := range e.lease {
			e.lease[t] = NewLeaseCache(DefaultLeaseEntries, lz.LeaseWindow())
		}
	}
	if e.cfg.ChargeMemory {
		e.hier = make([]*cache.Hierarchy, cores)
		for c := range e.hier {
			e.hier[c] = cache.NewHierarchy(e.cfg.L1, e.cfg.L2)
		}
	}
	e.res = &Result{
		Workload:        tr.Name,
		Scheme:          e.scheme.Name(),
		Placement:       e.place.Name(),
		Threads:         n,
		RunLengths:      stats.NewHist(RunLengthBins),
		PerThreadCycles: make([]int64, n),
	}

	perThreadIndex := make([]int, n)
	for i, a := range tr.Accesses {
		t := a.Thread
		home := e.place.Touch(a.Addr, e.native[t])
		e.preds[t].Observe(home, a.Addr)
		e.trackRun(t, home)
		e.res.Accesses++
		e.lastActive[t] = int64(i)

		// The lease clock is the thread's own completed-access count —
		// exactly the runtime's per-thread memSeq, so expiry happens at
		// the same own-op on both sides.
		now := uint64(perThreadIndex[t])
		info := AccessInfo{
			Thread: t,
			Index:  perThreadIndex[t],
			Cur:    e.loc[t],
			Home:   home,
			Native: e.native[t],
			Access: a,
		}
		perThreadIndex[t]++

		var outcome Outcome
		switch {
		case home == e.loc[t]:
			outcome = OutcomeLocal
			e.res.Local++
			e.chargeMemory(t, home, a)
		case e.leaseHit(t, a, now):
			// Served entirely from the thread's cache, before the scheme
			// is asked: no network, no home-side memory charge.
			outcome = OutcomeCachedHit
			e.res.LeaseHits++
		default:
			switch e.preds[t].Decide(info) {
			case Migrate:
				outcome = e.migrate(t, home)
				e.chargeMemory(t, home, a)
			case RemoteAccess:
				outcome = OutcomeRemote
				e.remoteAccess(t, home, a.Write)
				e.chargeMemory(t, home, a)
				// The holder's own write to a leased word removes the
				// lease (the one counted removal; see lease.go).
				if e.lease != nil && a.Write && e.lease[t].InvalidateOwn(cache.Addr(a.Addr)) {
					e.res.LeaseInvals++
				}
			case RemoteReadCached:
				outcome = OutcomeRemoteCached
				e.remoteAccess(t, home, a.Write)
				e.chargeMemory(t, home, a)
				e.res.LeaseMisses++
				// The trace model carries no data values; the runtime
				// fills the real word here.
				e.lease[t].Fill(cache.Addr(a.Addr), 0, now)
			default:
				return nil, fmt.Errorf("core: scheme %q returned invalid decision", e.scheme.Name())
			}
		}
		if home != e.native[t] {
			e.res.NonNative++
		}
		if callback != nil {
			callback(i, info, outcome)
		}
	}
	// Flush open runs — the Figure 2 statistic and, via Predictor.Flush,
	// each thread's in-flight predictor run (end-of-trace learning).
	for t := 0; t < n; t++ {
		e.flushRun(t)
		e.preds[t].Flush()
	}
	e.collectCounters()
	return e.res, nil
}

// leaseHit serves a read by thread t from its lease cache at own-op count
// now, reporting whether the lease held: a hit never reaches the scheme
// (Leaser). Writes and non-caching schemes always miss.
func (e *Engine) leaseHit(t int, a trace.Access, now uint64) bool {
	if e.lease == nil || a.Write {
		return false
	}
	_, ok := e.lease[t].Lookup(cache.Addr(a.Addr), now)
	return ok
}

// trackRun maintains the Figure 2 run-length statistic: maximal sequences of
// consecutive accesses by one thread to the same non-native home.
func (e *Engine) trackRun(t int, home geom.CoreID) {
	if home == e.native[t] {
		e.flushRun(t)
		return
	}
	if e.runHome[t] == home {
		e.runLen[t]++
		return
	}
	e.flushRun(t)
	e.runHome[t] = home
	e.runLen[t] = 1
}

func (e *Engine) flushRun(t int) {
	if e.runLen[t] > 0 {
		e.res.RunLengths.Add(e.runLen[t])
	}
	e.runLen[t] = 0
	e.runHome[t] = geom.None
}

// migrate implements the Figure 1 flow: move the thread's context to the
// home core, evicting a guest if the destination is out of guest contexts.
func (e *Engine) migrate(t int, home geom.CoreID) Outcome {
	from := e.loc[t]
	cost := e.cfg.MigrationCost(from, home, e.cfg.ContextBits)
	e.res.Cycles += cost
	e.res.PerThreadCycles[t] += cost
	e.res.Migrations++
	e.res.BitsMoved += int64(e.cfg.ContextBits)
	e.res.Traffic += e.cfg.MigrationTraffic(from, home, e.cfg.ContextBits)

	// Leave the old core: free the guest slot if we held one, and drop
	// every lease (the cache stays behind conceptually; a new one fills
	// at the destination).
	if from != e.native[t] {
		e.releaseGuest(from, t)
	}
	if e.lease != nil {
		e.lease[t].DropAll()
	}
	e.loc[t] = home

	if home == e.native[t] {
		// Native context is always reserved — no eviction possible.
		return OutcomeMigrated
	}
	// Need a guest context at home.
	if e.cfg.GuestContexts > 0 && len(e.guests[home]) >= e.cfg.GuestContexts {
		victim := e.pickVictim(home)
		e.evict(victim, home)
		e.guests[home] = append(e.guests[home], t)
		return OutcomeMigratedEvict
	}
	e.guests[home] = append(e.guests[home], t)
	return OutcomeMigrated
}

// pickVictim chooses the least-recently-active guest thread at core c.
func (e *Engine) pickVictim(c geom.CoreID) int {
	guests := e.guests[c]
	victim := guests[0]
	for _, g := range guests[1:] {
		if e.lastActive[g] < e.lastActive[victim] {
			victim = g
		}
	}
	return victim
}

// evict sends a guest thread back to its native context over the dedicated
// eviction virtual network (deadlock freedom: the native context is always
// available, so this message can always drain).
func (e *Engine) evict(victim int, from geom.CoreID) {
	e.releaseGuest(from, victim)
	dst := e.native[victim]
	cost := e.cfg.MigrationCost(from, dst, e.cfg.ContextBits)
	e.res.Cycles += cost
	e.res.PerThreadCycles[victim] += cost
	e.res.Evictions++
	e.res.BitsMoved += int64(e.cfg.ContextBits)
	e.res.Traffic += e.cfg.MigrationTraffic(from, dst, e.cfg.ContextBits)
	if e.lease != nil {
		e.lease[victim].DropAll()
	}
	e.loc[victim] = dst
}

func (e *Engine) releaseGuest(c geom.CoreID, t int) {
	guests := e.guests[c]
	for i, g := range guests {
		if g == t {
			e.guests[c] = append(guests[:i], guests[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("core: thread %d not a guest at core %d", t, c))
}

// remoteAccess implements the Figure 3 right path: a word-granular
// round trip to the home core.
func (e *Engine) remoteAccess(t int, home geom.CoreID, write bool) {
	cur := e.loc[t]
	cost := e.cfg.RemoteAccessCost(cur, home, write)
	e.res.Cycles += cost
	e.res.PerThreadCycles[t] += cost
	e.res.RemoteAccesses++
	bits := int64(e.cfg.AddrBits + e.cfg.WordBits) // addr+word in one direction or the other
	e.res.BitsMoved += bits
	e.res.Traffic += e.cfg.RemoteAccessTraffic(cur, home, write)
}

// chargeMemory adds cache-hierarchy latency at the core where the data
// lives (full fidelity only). Under EM² every access to an address — local,
// migrated, or remote — is served by the home core's cache, which is what
// makes sequential consistency trivial.
func (e *Engine) chargeMemory(t int, home geom.CoreID, a trace.Access) {
	if !e.cfg.ChargeMemory {
		return
	}
	var cyc int64
	switch e.hier[home].Access(cache.Addr(a.Addr), a.Write) {
	case cache.LevelL1:
		cyc = 1
	case cache.LevelL2:
		cyc = 8
	case cache.LevelMemory:
		cyc = int64(e.cfg.MemCycles)
	}
	e.res.MemoryCycles += cyc
	e.res.PerThreadCycles[t] += cyc
}

func (e *Engine) collectCounters() {
	c := &e.res.Counters
	c.Inc("accesses", e.res.Accesses)
	c.Inc("local", e.res.Local)
	c.Inc("non_native", e.res.NonNative)
	c.Inc("migrations", e.res.Migrations)
	c.Inc("evictions", e.res.Evictions)
	c.Inc("remote_accesses", e.res.RemoteAccesses)
	c.Inc("lease_hits", e.res.LeaseHits)
	c.Inc("lease_misses", e.res.LeaseMisses)
	c.Inc("lease_invals", e.res.LeaseInvals)
	if e.cfg.ChargeMemory {
		for i, h := range e.hier {
			_ = i
			c.Inc("l1.hits", h.L1.Hits)
			c.Inc("l1.misses", h.L1.Misses)
			c.Inc("l2.hits", h.L2.Hits)
			c.Inc("l2.misses", h.L2.Misses)
		}
	}
}

// GuestOccupancy returns the number of guest contexts in use at core c after
// a Run — exposed for the eviction-protocol tests.
//
//em2:reference-only the eviction-protocol tests check guest pools after a run
func (e *Engine) GuestOccupancy(c geom.CoreID) int { return len(e.guests[c]) }

// Location returns thread t's core after a Run.
//
//em2:reference-only the engine tests check where each thread ended
func (e *Engine) Location(t int) geom.CoreID { return e.loc[t] }
