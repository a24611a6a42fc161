package machine

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/transport"
)

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
// shards. One executor goroutine steps them (executor.go) and owns all of
// it: a call from another goroutine is a command the executor serves
// between two rounds (call). The whole machine is one Part over a
// transport.Local; a cluster is one Part per node process over a
// transport.Node, all loaded with the same programs (code is replicated,
// data is not).
type Part struct {
	cfg   Config
	tr    transport.Transport
	place placement.Policy
	// shards is indexed by core id — the hottest lookup in the machine —
	// with nil entries for cores other endpoints own.
	shards []*shard
	nodes  []*coreNode
	// nodeOf is indexed by core id, nil for cores other endpoints own. It
	// routes hand-offs between owned cores and inbound lease write-updates
	// to the owning core; built before any handler is installed, then
	// read-only.
	nodeOf []*coreNode
	// leaseWindow is the scheme's lease validity window when the scheme
	// caches remote reads (core.Leaser); 0 for every other scheme.
	leaseWindow uint64
	// specs is the per-slot thread table, rewritten by jobs (install,
	// RetireJob). The job protocol guarantees a slot is never rewritten
	// while one of its contexts is resident or in flight (the job submit
	// barrier orders installation before injection; a halt report orders
	// completion before reuse).
	specs []*ThreadSpec
	// ctxs holds one reusable context per thread slot: at most one context
	// per thread is live system-wide, so every arrival lands in its slot
	// (fromWire) and a hand-off allocates nothing.
	ctxs []context
	// retired holds the events the last RetireJob removed; each retire
	// reuses it, so a warm retire allocates nothing.
	retired []transport.Event
	onHalt  func(transport.HaltMsg)
	// own holds the part's one ownership token whenever no goroutine
	// steps the part: before start, while the executor is parked, and
	// after it has exited. cmd and ret carry call's commands to a running
	// executor; nil before start.
	own, cmd, ret chan struct{}
	exited        chan struct{}
	done          chan struct{}
	stopOnce      sync.Once
	flushFailed   bool // a flush error was already reported
}

// NewPart builds the part for the cores tr owns and installs its memory
// handler on the transport. Call Preload as needed, then StartServe (or
// Start).
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
		nodeOf:      make([]*coreNode, tr.Cores()),
		leaseWindow: leaseWindow,
		own:         make(chan struct{}, 1),
		exited:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	p.own <- struct{}{}
	owned := tr.Owned()
	shards, nodes := make([]shard, len(owned)), make([]coreNode, len(owned))
	p.nodes = make([]*coreNode, len(owned))
	var leases []leaseTable
	if leaseWindow != 0 {
		leases = make([]leaseTable, len(owned))
	}
	for i, id := range owned {
		shards[i] = newShard(id, cfg.LogEvents)
		if leases != nil {
			leases[i] = newLeaseTable()
			shards[i].leases = &leases[i]
		}
		nodes[i] = coreNode{id: id, p: p, ctr: transport.CoreMetrics{Core: id}}
		p.shards[id], p.nodes[i], p.nodeOf[id] = &shards[i], &nodes[i], &nodes[i]
	}
	tr.HandleMem(p.serveMem)
	// A transport delivers only updates for cores it owns.
	tr.HandleLeaseInval(func(inv transport.LeaseInval) { p.nodeOf[inv.Dst].applyLeaseUpdate(inv) })
	return p, nil
}

// serveMem performs one memory request at an owned core's shard: the
// transport's direct calls (an owned access) and the executor's queued
// requests from peer nodes both end here.
func (p *Part) serveMem(core geom.CoreID, req transport.MemRequest) transport.MemReply {
	if int(core) < 0 || int(core) >= len(p.shards) || p.shards[core] == nil {
		panic(fmt.Sprintf("machine: memory request for core %d not owned by this part", core))
	}
	// The write-updates land in a buffer on this handler's stack, so a
	// write with a few holders allocates nothing.
	var buf [4]transport.LeaseInval
	rep, invals := p.shards[core].apply(req, buf[:0])
	// Ship the write-updates after the shard op. A failed send means the
	// holder's connection is dying — the update is advisory (holders
	// expire on their own virtual clocks), so the write itself must not
	// fail with it.
	for _, inv := range invals {
		p.tr.SendLeaseInval(inv) //em2:errsink-ok: advisory update; a dead link surfaces through the data plane
	}
	return rep
}

// call runs f with the part to itself, on the caller's goroutine. When no
// goroutine steps the part — before StartServe, while the executor is parked,
// after it has exited — f takes the ownership token and runs at once; a
// parked executor that an arrival wakes takes the token back only after
// f. While the executor runs, f is a command: the executor takes it
// between two rounds and steps nothing until f has returned. Either way f
// sees a round boundary and nothing else touches the part meanwhile. f is
// not handed to the executor: a closure sent through a channel escapes to
// the heap, and a sample must allocate nothing. Never called from the
// executor (onHalt included), which would wait on itself.
func (p *Part) call(f func()) {
	select {
	case <-p.own:
		f()
		p.own <- struct{}{}
	case p.cmd <- struct{}{}:
		f()
		p.ret <- struct{}{}
	}
}

// Preload stores a word at addr before the run if this part owns addr's
// home, binding the page to `by` under dynamic placements. Safe to call on
// every part of a cluster with the full image: each keeps only its slice.
func (p *Part) Preload(addr uint32, value uint32, by geom.CoreID) {
	p.call(func() { p.preload(addr, value, by) })
}

func (p *Part) preload(addr uint32, value uint32, by geom.CoreID) {
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
func (p *Part) Peek(addr uint32) (v uint32, homed bool) {
	p.call(func() {
		if home, ok := p.place.HomeOf(cache.Addr(addr)); ok && p.shards[home] != nil {
			v, homed = p.shards[home].mem.get(addr), true
		}
	})
	return v, homed
}

// Start starts the cores with every slot installed up front: threads
// is the full machine-wide thread list (any thread can migrate in); onHalt
// fires on the executor when a thread executes HALT, with its final
// register file, and must not call back into the part. It is StartServe
// over len(threads) slots plus the install step of a job, after checkJob
// (before the executor starts); the caller injects the initial contexts.
func (p *Part) Start(threads []ThreadSpec, onHalt func(transport.HaltMsg)) error {
	if err := checkJob(threads); err != nil {
		return err
	}
	if err := p.StartServe(len(threads), onHalt); err != nil {
		return err
	}
	return p.install(threads, nil, nil)
}

// StartServe starts the executor that steps the cores, over a pool of
// numSlots empty thread slots: programs arrive later, per job
// (install). A context for a slot whose spec has not been installed is
// protocol corruption (the job submit barrier exists to prevent it) and
// panics in landing.
func (p *Part) StartServe(numSlots int, onHalt func(transport.HaltMsg)) error {
	if numSlots <= 0 {
		return fmt.Errorf("machine: serve pool needs at least one slot")
	}
	p.specs = make([]*ThreadSpec, numSlots)
	p.onHalt = onHalt
	p.ctxs = make([]context, numSlots)
	// One array backs every core's three queues, each with room for the
	// core's share of the threads, so filling them rarely allocates.
	k := max(2, (numSlots+len(p.nodes)-1)/len(p.nodes))
	qs := make([]*context, 3*k*len(p.nodes))
	for _, n := range p.nodes {
		n.evictQ, n.migQ, n.runq, qs = qs[:0:k], qs[k:k:2*k], qs[2*k:2*k:3*k], qs[3*k:]
	}
	p.cmd, p.ret = make(chan struct{}), make(chan struct{})
	go p.runExecutor()
	return nil
}

// install is the one install step of a job, whatever drives it (Start,
// ApplyJob, Machine.runJob): one command puts threads in slots
// 0..len(threads)-1, preloads mem (keeping the addresses this part homes)
// and, when inject is set, hands every thread's initial context to it —
// so an executor takes the whole job between two rounds. The slots point
// into threads until the job retires.
func (p *Part) install(threads []ThreadSpec, mem map[uint32]uint32, inject func(geom.CoreID, transport.Context) error) (err error) {
	p.call(func() {
		if len(threads) > len(p.specs) {
			err = fmt.Errorf("machine: thread slot %d outside the %d-slot pool", len(p.specs), len(p.specs))
			return
		}
		for t := range threads {
			p.specs[t] = &threads[t]
		}
		//em2:unordered-ok: preload writes each address into its home shard's word table; the final image is order-independent
		for a, v := range mem {
			p.preload(a, v, 0)
		}
		if inject != nil {
			err = Inject(threads, p.tr.Cores(), inject)
		}
	})
	return err
}

// Stop winds the cores down: the executor finishes its round and stops,
// also when resident contexts would never halt on their own (an abort or
// serve drain).
func (p *Part) Stop() {
	p.abort()
	if p.cmd != nil {
		<-p.exited
	}
}

// abort signals every core to stop without waiting for them. A part
// whose transport died calls it (Part.flush): work produced after the
// wire is gone can never leave the machine, so the whole part parks
// instead of spinning until external teardown. Idempotent, so the abort
// and a later Stop compose.
func (p *Part) abort() {
	p.stopOnce.Do(func() { close(p.done) })
}

// SampleInto fills s with a non-destructive snapshot of this part's
// metrics: per-core counters and guest gauges (ascending by core id) plus
// the summed shard footprint. Unlike Collect it copies no memory and no
// events, so it is cheap enough to take periodically while the machine
// runs. The slices are reused via append(x[:0], ...), making repeated
// samples into the same Sample allocation-free (the telemetry hot path;
// held at 0 by TestSampleEncodeZeroAlloc).
// s.Cycle and s.Net are left untouched: the caller owns the virtual-time
// stamp and the transport owns the wire counters.
func (p *Part) SampleInto(s *transport.Sample) {
	p.call(func() {
		s.PerCore = s.PerCore[:0]
		s.Guests = s.Guests[:0]
		s.Words, s.Events = 0, 0
		for _, n := range p.nodes {
			s.PerCore = append(s.PerCore, n.ctr)
			s.Guests = append(s.Guests, int64(n.guests))
			w, e := p.shards[n.id].gauges()
			s.Words += w
			s.Events += e
		}
	})
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
func (p *Part) Collect(node int) (rep transport.CollectReply) {
	p.call(func() {
		rep = p.collectState(node)
		rep.Mem = p.memImage()
	})
	return rep
}

// collectState is Collect without the memory image, for Machine.Run, which
// reads only counters and events once the executor has exited.
func (p *Part) collectState(node int) transport.CollectReply {
	rep := transport.CollectReply{Node: node, PerCore: make([]transport.CoreMetrics, 0, len(p.nodes))}
	for _, n := range p.nodes {
		rep.PerCore = append(rep.PerCore, n.ctr)
		rep.Events = p.shards[n.id].appendEvents(rep.Events)
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
func (p *Part) CollectChunked(emit func(transport.Reply) error) (err error) {
	p.call(func() {
		for _, n := range p.nodes {
			s := p.shards[n.id]
			words, _ := s.gauges()
			mem := make(map[uint32]uint32, words)
			s.imageInto(mem)
			r := transport.Reply{PerCore: []transport.CoreMetrics{n.ctr}, Events: s.appendEvents(nil), Mem: mem, More: true}
			if err = emit(r); err != nil {
				return
			}
		}
		err = emit(transport.Reply{})
	})
	return err
}

// RetireJob retires the finished job, which is everything the part
// holds: every slot is cleared, so a stray late context fails loudly
// instead of executing a stale program, and every owned shard is drained
// of its words, lease records and events. It returns the drained events,
// in core order, in a buffer the part owns: the slice is valid until the
// next RetireJob. A retire runs only between jobs; one while a context is
// live is protocol corruption and panics, as landing does.
func (p *Part) RetireJob(transport.JobDone) (events []transport.Event) {
	live := -1
	p.call(func() {
		for t := range p.ctxs {
			if p.ctxs[t].live {
				live = t
				return
			}
		}
		clear(p.specs)
		events = p.retired[:0]
		for _, n := range p.nodes {
			events = p.shards[n.id].drain(events)
		}
		p.retired = events
	})
	if live >= 0 {
		panic(fmt.Sprintf("machine: job retired while thread %d's context is live", live))
	}
	return events
}

// memImage returns a copy of every word this part's shards hold, without
// duplicating event logs or counters, in one map sized for all shards.
func (p *Part) memImage() map[uint32]uint32 {
	words := int64(0)
	for _, n := range p.nodes {
		w, _ := p.shards[n.id].gauges()
		words += w
	}
	out := make(map[uint32]uint32, words)
	for _, n := range p.nodes {
		p.shards[n.id].imageInto(out)
	}
	return out
}

// ship sends a context that has departed this core to dst, on the
// eviction network if evict is set and on the migration network otherwise.
// When this part owns dst — every core, in process — the slot itself
// moves, after the checks every arrival passes (landing): the cost
// counters, predictor and progress flag stay in it, and only the lease
// cache is reset, as every arrival's is (lease state never rides the
// wire). For a core another node owns the context is serialized.
// Either way the context has left this core: a send error means the
// transport was torn down mid-run, and the run's failure surfaces at the
// halt barrier.
func (p *Part) ship(dst geom.CoreID, c *context, evict bool) {
	if n := p.nodeOf[dst]; n != nil {
		p.landing(c.thread, dst)
		c.live = true
		if c.lease != nil {
			c.lease.Reset()
		}
		n.deliver(c, evict)
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
	sp := p.specs[t]
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
