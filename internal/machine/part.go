package machine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/transport"
)

// coreCounters is one core's runtime metrics. Each counter is written only
// by the goroutine that steps the core — the part's executor in process, the
// core's own loop on a TCP node — so the atomics are uncontended; they exist
// so Collect and Sample can read them from another goroutine. Those in
// sliceCounts are published once per execution slice, before its send, halt
// report, departure or requeue, which every deterministic sample point
// follows; an advisory heartbeat sample may lag by one slice.
type coreCounters struct {
	instructions atomic.Int64
	localOps     atomic.Int64
	remoteReads  atomic.Int64
	remoteWrites atomic.Int64
	migrations   atomic.Int64
	evictions    atomic.Int64
	contextFlits atomic.Int64
	leaseHits    atomic.Int64
	leaseMisses  atomic.Int64
	leaseInvals  atomic.Int64
	overcommits  atomic.Int64
	// guests mirrors coreNode.guests as a gauge the sampling path can read
	// from another goroutine. Not part of CoreMetrics (it is a gauge, not a
	// counter) — Sample carries it separately, and it must read zero
	// whenever the machine is quiescent.
	guests atomic.Int64
}

// sliceCounts is one execution slice's per-instruction counts.
type sliceCounts struct {
	instructions, localOps, remoteReads, remoteWrites int64
	leaseHits, leaseMisses, leaseInvals               int64
}

// publish adds one slice's counts to the core's counters.
func (c *coreCounters) publish(s *sliceCounts) {
	addNonZero(&c.instructions, s.instructions)
	addNonZero(&c.localOps, s.localOps)
	addNonZero(&c.remoteReads, s.remoteReads)
	addNonZero(&c.remoteWrites, s.remoteWrites)
	addNonZero(&c.leaseHits, s.leaseHits)
	addNonZero(&c.leaseMisses, s.leaseMisses)
	addNonZero(&c.leaseInvals, s.leaseInvals)
}

// addNonZero spares the atomic for the counters most slices leave at zero.
func addNonZero(a *atomic.Int64, n int64) {
	if n != 0 {
		a.Add(n)
	}
}

// metrics snapshots the counters for the Collect control plane.
func (c *coreCounters) metrics(core geom.CoreID) transport.CoreMetrics {
	return transport.CoreMetrics{
		Core:         core,
		Instructions: c.instructions.Load(),
		LocalOps:     c.localOps.Load(),
		RemoteReads:  c.remoteReads.Load(),
		RemoteWrites: c.remoteWrites.Load(),
		Migrations:   c.migrations.Load(),
		Evictions:    c.evictions.Load(),
		ContextFlits: c.contextFlits.Load(),
		LeaseHits:    c.leaseHits.Load(),
		LeaseMisses:  c.leaseMisses.Load(),
		LeaseInvals:  c.leaseInvals.Load(),
		Overcommits:  c.overcommits.Load(),
	}
}

// wireNoC is the link model used to express shipped context bytes as flits
// (the same default link parameters the §3 cost model charges).
var wireNoC = noc.DefaultConfig()

// wireFlits converts a context wire byte count to flits.
func wireFlits(bytes int) int64 { return int64(wireNoC.Flits(bytes * 8)) }

// contextFlits is the wire footprint of one shipped context carrying
// stateLen bytes of predictor state — the single formula behind the
// runtime counters and ContextFlitsFor, so the M3 prediction cannot drift
// from what the cores actually count. An in-process hand-off encodes
// nothing and is charged the same: the flits a hardware transfer would
// occupy.
func contextFlits(stateLen int) int64 {
	return wireFlits(transport.ContextWireBytes + stateLen)
}

// Part runs the cores a transport endpoint owns: their execution, their
// shards, and the memory handler that serves remote accesses to those
// shards. The whole machine is one Part over a transport.Local, whose cores
// one executor goroutine steps (executor.go); a cluster is one Part per
// node process over transport.Node endpoints, one loop goroutine per core,
// all loaded with the same programs (code is replicated, data is not).
type Part struct {
	cfg   Config
	tr    transport.Transport
	place placement.Policy
	// shards is indexed by core id — the hottest lookup in the machine —
	// with nil entries for cores other endpoints own.
	shards []*shard
	// ctr is indexed by core id; only owned cores' slots are ever written.
	ctr   []coreCounters
	nodes []*coreNode
	// nodeOf is indexed by core id, nil for cores other endpoints own. It
	// routes in-process hand-offs and inbound lease write-updates to the
	// owning core; built before any handler is installed, then read-only.
	nodeOf []*coreNode
	// local is the in-process endpoint when every core is in this address
	// space (transport.Transport.InProcess): the executor steps the cores
	// and hands contexts between them as slot pushes. Nil on a TCP node.
	local *transport.Local
	// leaseWindow is the scheme's lease validity window when the scheme
	// caches remote reads (core.Leaser); 0 for every other scheme.
	leaseWindow uint64
	// specs is the per-slot thread table. Slots are atomic pointers because
	// jobs rewrite them (SetThread/RetireJob) while the cores run; the
	// atomics make the handoff visible and race-detector clean.
	// The job protocol guarantees a slot is never rewritten while one of
	// its contexts is resident or in flight (the job submit barrier orders
	// installation before injection; a halt report orders completion
	// before reuse).
	specs []atomic.Pointer[ThreadSpec]
	// ctxs holds one reusable context per thread slot: at most one context
	// per thread is live system-wide, so every arrival lands in its slot
	// (fromWire) and a hand-off allocates nothing.
	ctxs        []context
	onHalt      func(transport.HaltMsg)
	done        chan struct{}
	stopOnce    sync.Once
	flushFailed atomic.Bool // a flush error was already reported
	wg          sync.WaitGroup
}

// NewPart builds the part for the cores tr owns and installs its memory
// handler on the transport. Call Preload as needed, then Start.
func NewPart(cfg Config, tr transport.Transport) (*Part, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mesh.Cores() != tr.Cores() {
		return nil, fmt.Errorf("machine: mesh has %d cores, transport %d", cfg.Mesh.Cores(), tr.Cores())
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 64
	}
	if cfg.Scheme == nil {
		cfg.Scheme = defaultScheme()
	}
	// The runtime may re-issue Decide for one access after an eviction, so
	// only schemes with pure Decide are admissible; Fixed consumes its
	// replay sequence on every call and exists for trace replay only.
	if _, replay := cfg.Scheme.(*core.Fixed); replay {
		return nil, fmt.Errorf("machine: replay scheme %q cannot run in the concurrent runtime (its Decide consumes state; use a predictive scheme)", cfg.Scheme.Name())
	}
	if n := cfg.Scheme.NewPredictor(0).StateLen(); n > transport.MaxSchedBytes {
		return nil, fmt.Errorf("machine: scheme %q carries %d bytes of predictor state, above the %d-byte wire field",
			cfg.Scheme.Name(), n, transport.MaxSchedBytes)
	}
	var leaseWindow uint64
	if lz, ok := cfg.Scheme.(core.Leaser); ok {
		leaseWindow = lz.LeaseWindow()
		// The grant request carries the window in MemRequest.Lease (u16),
		// and zero there means "no grant".
		if leaseWindow == 0 || leaseWindow > 1<<16-1 {
			return nil, fmt.Errorf("machine: scheme %q lease window %d outside [1, %d]",
				cfg.Scheme.Name(), leaseWindow, 1<<16-1)
		}
	}
	p := &Part{
		cfg:         cfg,
		tr:          tr,
		place:       cfg.Placement,
		shards:      make([]*shard, tr.Cores()),
		ctr:         make([]coreCounters, tr.Cores()),
		nodeOf:      make([]*coreNode, tr.Cores()),
		local:       tr.InProcess(),
		leaseWindow: leaseWindow,
		done:        make(chan struct{}),
	}
	for _, id := range tr.Owned() {
		p.shards[id] = newShard(id, cfg.LogEvents)
		n := &coreNode{id: id, p: p, ctr: &p.ctr[id]}
		p.nodes = append(p.nodes, n)
		p.nodeOf[id] = n
	}
	tr.HandleMem(func(core geom.CoreID, req transport.MemRequest) transport.MemReply {
		if int(core) < 0 || int(core) >= len(p.shards) || p.shards[core] == nil {
			panic(fmt.Sprintf("machine: memory request for core %d not owned by this part", core))
		}
		// The write-updates land in a buffer on this handler's stack, so a
		// write with a few holders allocates nothing.
		var buf [4]transport.LeaseInval
		rep, invals := p.shards[core].apply(req, buf[:0])
		// The shard lock is released; ship the write-updates now. A failed
		// send means the holder's connection is dying — the update is
		// advisory (holders expire on their own virtual clocks), so the
		// write itself must not fail with it.
		for _, inv := range invals {
			tr.SendLeaseInval(inv) //em2:errsink-ok: advisory update; a dead link surfaces through the data plane
		}
		return rep
	})
	tr.HandleLeaseInval(func(inv transport.LeaseInval) {
		if int(inv.Dst) < 0 || int(inv.Dst) >= len(p.nodeOf) {
			return
		}
		if n := p.nodeOf[inv.Dst]; n != nil {
			n.applyLeaseUpdate(inv)
		}
	})
	return p, nil
}

// Preload stores a word at addr before the run if this part owns addr's
// home, binding the page to `by` under dynamic placements. Safe to call on
// every part of a cluster with the full image: each keeps only its slice.
func (p *Part) Preload(addr uint32, value uint32, by geom.CoreID) {
	home := p.place.Touch(cache.Addr(addr), by)
	if s := p.shards[home]; s != nil {
		s.apply(transport.MemRequest{Thread: -1, Op: transport.OpWrite, Addr: addr, Arg: value}, nil)
	}
}

// Peek returns the current word at addr and whether this part homes it.
// The home lookup is read-only: peeking an address no thread has touched
// must not bind its page (a dynamic placement would otherwise home it at
// core 0 as a side effect of inspection), so an unbound address reports
// not-homed.
func (p *Part) Peek(addr uint32) (uint32, bool) {
	home, ok := p.place.HomeOf(cache.Addr(addr))
	if !ok {
		return 0, false
	}
	if s := p.shards[home]; s != nil {
		return s.peek(addr), true
	}
	return 0, false
}

// Start starts the cores with every slot installed up front: threads
// is the full machine-wide thread list (any thread can migrate in); onHalt
// fires on the core where a thread executes HALT, with its final register
// file. The in-process Machine starts this way; a cluster node starts with
// StartServe and receives its programs per job.
func (p *Part) Start(threads []ThreadSpec, onHalt func(transport.HaltMsg)) error {
	if err := validateSpecs(threads); err != nil {
		return err
	}
	p.specs = make([]atomic.Pointer[ThreadSpec], len(threads))
	for i := range threads {
		t := threads[i]
		p.specs[i].Store(&t)
	}
	return p.start(onHalt)
}

// StartServe starts the cores over a pool of numSlots empty thread
// slots: programs arrive later, per job, through ApplyJob. Every cluster
// node and the local serve backend start this way. A context for a slot
// whose spec has not been installed is protocol corruption (the job
// submit barrier exists to prevent it) and panics in fromWire.
func (p *Part) StartServe(numSlots int, onHalt func(transport.HaltMsg)) error {
	if numSlots <= 0 {
		return fmt.Errorf("machine: serve pool needs at least one slot")
	}
	p.specs = make([]atomic.Pointer[ThreadSpec], numSlots)
	return p.start(onHalt)
}

// start spawns the goroutines that step the cores: one executor for an
// in-process endpoint, whatever decorator wraps it, or one loop per core
// over the inboxes of a TCP node.
func (p *Part) start(onHalt func(transport.HaltMsg)) error {
	p.onHalt = onHalt
	p.ctxs = make([]context, len(p.specs))
	if p.local != nil {
		p.wg.Add(1)
		go p.runExecutor()
		return nil
	}
	// Not in process means a TCP node (or a decorator embedding one): a
	// transport with neither is a programming error.
	inboxes := p.tr.(interface {
		MigrationIn(geom.CoreID) <-chan transport.Context
		EvictionIn(geom.CoreID) <-chan transport.Context
	})
	for _, n := range p.nodes {
		n.migIn, n.evictIn = inboxes.MigrationIn(n.id), inboxes.EvictionIn(n.id)
		p.wg.Add(1)
		go n.loop()
	}
	return nil
}

// Stop winds the cores down; resident contexts finish their current
// quantum first, then every core stops — including cores whose contexts
// would never halt on their own (an abort or serve drain).
func (p *Part) Stop() {
	p.abort()
	p.wg.Wait()
}

// abort signals every core to stop without waiting for them. A part
// whose transport died calls it (Part.flush): work produced after the
// wire is gone can never leave the machine, so the whole part parks
// instead of spinning until external teardown. Idempotent, so the abort
// and a later Stop compose.
func (p *Part) abort() {
	p.stopOnce.Do(func() { close(p.done) })
}

// SetThread installs spec in a pool slot. The caller must guarantee no
// context of the slot is resident or in flight (the job submit and halt
// protocol provides exactly that ordering).
func (p *Part) SetThread(slot int, spec ThreadSpec) error {
	if slot < 0 || slot >= len(p.specs) {
		return fmt.Errorf("machine: thread slot %d outside the %d-slot pool", slot, len(p.specs))
	}
	if len(spec.Program) == 0 {
		return fmt.Errorf("machine: slot %d: empty program", slot)
	}
	if err := validateSpecs([]ThreadSpec{spec}); err != nil {
		return err
	}
	p.specs[slot].Store(&spec)
	return nil
}

// SampleInto fills s with a non-destructive snapshot of this part's
// metrics: per-core counters and guest gauges (ascending by core id) plus
// the summed shard footprint. Unlike Collect it copies no memory and no
// events — one atomic load per counter, one short lock per shard — so it
// is cheap enough to take periodically while the machine runs. The slices
// are reused via append(x[:0], ...), making repeated samples into the same
// Sample allocation-free (the telemetry hot path; held at 0 by
// TestSampleEncodeZeroAlloc).
// s.Cycle and s.Net are left untouched: the caller owns the virtual-time
// stamp and the transport owns the wire counters.
func (p *Part) SampleInto(s *transport.Sample) {
	s.PerCore = s.PerCore[:0]
	s.Guests = s.Guests[:0]
	s.Words, s.Events = 0, 0
	for _, id := range p.tr.Owned() {
		s.PerCore = append(s.PerCore, p.ctr[id].metrics(id))
		s.Guests = append(s.Guests, p.ctr[id].guests.Load())
		w, e := p.shards[id].gauges()
		s.Words += w
		s.Events += e
	}
}

// Sample implements transport.MetricsSource for an in-process part.
func (p *Part) Sample() (transport.Sample, error) {
	var s transport.Sample
	p.SampleInto(&s)
	return s, nil
}

// Collect returns this part's post-run state: aggregate and per-core
// counters, the event logs of its shards in core order, and its slice of
// the memory image.
func (p *Part) Collect(node int) transport.CollectReply {
	rep := p.collectState(node)
	rep.Mem = p.MemImage()
	return rep
}

// collectState is Collect without the memory image, for Machine.Run, which
// reads only counters and events.
func (p *Part) collectState(node int) transport.CollectReply {
	rep := transport.CollectReply{Node: node, PerCore: make([]transport.CoreMetrics, 0, len(p.tr.Owned()))}
	for _, id := range p.tr.Owned() {
		rep.PerCore = append(rep.PerCore, p.ctr[id].metrics(id))
		rep.Events = p.shards[id].appendEvents(rep.Events)
	}
	rep.Counters = stats.CounterMap(transport.SumMetrics(rep.PerCore))
	return rep
}

// CollectChunked streams this part's post-run state through emit: one
// reply per owned core — that core's metrics row, its shard's events and
// memory slice, More set — then a last, empty one, which the node stamps
// with its wire counters. Chunking bounds each control-plane body by one
// core's state, which is what keeps a 256-core node's collection inside
// the wire's body cap.
func (p *Part) CollectChunked(emit func(transport.Reply) error) error {
	for _, id := range p.tr.Owned() {
		s := p.shards[id]
		words, _ := s.gauges()
		mem := make(map[uint32]uint32, words)
		s.imageInto(mem)
		r := transport.Reply{PerCore: []transport.CoreMetrics{p.ctr[id].metrics(id)}, Events: s.appendEvents(nil), Mem: mem, More: true}
		if err := emit(r); err != nil {
			return err
		}
	}
	return emit(transport.Reply{})
}

// RetireJob retires a finished job: its slots 0..d.Threads-1 are
// cleared, so a stray late context for one fails loudly instead of
// executing a stale program, and the words and event-log entries of its
// region are deleted from every owned shard — the hook that keeps a
// long-running server's footprint bounded. It returns the removed events,
// in core order.
func (p *Part) RetireJob(d transport.JobDone) []transport.Event {
	for s := range min(d.Threads, len(p.specs)) {
		p.specs[s].Store(nil)
	}
	lo, hi := d.Base, d.Base+d.Size
	var events []transport.Event
	for _, id := range p.tr.Owned() {
		ev, _ := p.shards[id].reclaim(lo, hi)
		events = append(events, ev...)
		// Resident threads' lease caches may hold words of the reclaimed
		// region; drop them so a recycled region can never serve a stale
		// lease to the next job.
		p.nodeOf[id].dropLeaseRange(lo, hi)
	}
	return events
}

// MemImage returns a copy of every word this part's shards hold, without
// duplicating event logs or counters, in one map sized for all shards.
func (p *Part) MemImage() map[uint32]uint32 {
	words := int64(0)
	for _, id := range p.tr.Owned() {
		w, _ := p.shards[id].gauges()
		words += w
	}
	out := make(map[uint32]uint32, words)
	for _, id := range p.tr.Owned() {
		p.shards[id].imageInto(out)
	}
	return out
}

// ship sends a context that has departed this core to dst, on the
// eviction network if evict is set and on the migration network otherwise.
// In process the slot itself moves, after the checks every arrival passes
// (landing): the cost counters, predictor and progress flag stay in it,
// and only the lease cache is reset, as every arrival's is (lease state
// never rides the wire). Across processes the context is serialized.
// Either way the context has left this core: a send error means the
// transport was torn down mid-run, and the run's failure surfaces at the
// halt barrier.
func (p *Part) ship(dst geom.CoreID, c *context, evict bool) {
	if p.local != nil {
		p.landing(c.thread, dst)
		c.live = true
		if c.lease != nil {
			c.lease.Reset()
		}
		p.nodeOf[dst].deliver(c, evict)
		return
	}
	w := p.toWire(c)
	if evict {
		_ = p.tr.SendEviction(dst, w) //em2:errsink-ok: teardown mid-run; the run's failure surfaces at the halt barrier
	} else {
		_ = p.tr.SendMigration(dst, w) //em2:errsink-ok: teardown mid-run; the run's failure surfaces at the halt barrier
	}
}

// toWire serializes a resident context for the transport, including the
// thread's predictor state and instruction-progress flag. The predictor
// state is appended into the slot's reusable sched buffer, so Sched aliases
// the slot: the sender must retire the context before the send (the
// receiving core may overwrite the slot as soon as it arrives).
func (p *Part) toWire(c *context) transport.Context {
	w := transport.Context{
		Thread: int32(c.thread),
		Native: int32(c.native),
		MemSeq: c.memSeq,
		Cycles: c.cycles,
		Msgs:   c.msgs,
		Arch:   archContext(c),
	}
	if c.observed {
		w.Flags |= transport.FlagObserved
	}
	if c.pred.StateLen() > 0 {
		c.sched = c.pred.AppendState(c.sched[:0])
		w.Sched = c.sched
	}
	return w
}

// landing returns thread t's slot and installed spec for a context
// arriving at core at, checking the two invariants every arrival relies
// on, in process or over the wire.
func (p *Part) landing(t int, at geom.CoreID) (*context, *ThreadSpec) {
	sp := p.specs[t].Load()
	if sp == nil {
		// A context for a slot with no installed spec means the serve
		// submit/ack barrier was violated (or a stray context outlived its
		// job's retirement): protocol corruption, fail loudly.
		panic(fmt.Sprintf("machine: context for thread slot %d with no installed spec", t))
	}
	c := &p.ctxs[t]
	if c.live {
		// At most one context per thread is in flight system-wide; a second
		// arrival would alias the resident one.
		panic(fmt.Sprintf("machine: thread %d arrived at core %d while its context is still live on this part", t, at))
	}
	return c, sp
}

// fromWire lands a context in its thread's slot, rebuilding every field
// from the wire form; the program is looked up locally because code is
// replicated to every part. The slot's predictor takes the shipped state; a
// fresh one is built only when the slot has none or Sched is empty (the
// coordinator's initial injection, so every serve job starts fresh). The
// slot's lease cache is reset: lease state never rides the wire.
func (p *Part) fromWire(at geom.CoreID, w transport.Context) *context {
	t := int(w.Thread)
	if t < 0 || t >= len(p.specs) {
		panic(fmt.Sprintf("machine: context for unknown thread %d", t))
	}
	c, sp := p.landing(t, at)
	pred, lease := c.pred, c.lease
	if pred == nil || len(w.Sched) == 0 {
		pred = p.cfg.Scheme.NewPredictor(t)
	}
	if len(w.Sched) > 0 {
		if err := pred.SetState(w.Sched); err != nil {
			// Undecodable predictor state is protocol corruption (scheme
			// mismatch between nodes, mangled frame): the thread's decision
			// unit is gone, so fail loudly.
			panic(fmt.Sprintf("machine: thread %d predictor state: %v", t, err))
		}
	}
	if p.leaseWindow != 0 {
		// Every arrival starts with an empty lease cache — the trace-model
		// oracle drops the cache at the same points, which is what keeps
		// hit/miss sequences identical.
		if lease == nil {
			lease = core.NewLeaseCache(core.DefaultLeaseEntries, p.leaseWindow)
		} else {
			lease.Reset()
		}
	}
	*c = context{
		thread:   t,
		pc:       w.Arch.PC,
		regs:     w.Arch.Regs,
		spec:     sp,
		native:   geom.CoreID(w.Native),
		memSeq:   w.MemSeq,
		cycles:   w.Cycles,
		msgs:     w.Msgs,
		pred:     pred,
		sched:    c.sched,
		lease:    lease,
		observed: w.Flags&transport.FlagObserved != 0,
		live:     true,
	}
	return c
}
