package machine

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/transport"
)

// context is a thread's architectural state — exactly what a hardware
// migration serializes (isa.ContextBits worth) — plus the runtime routing
// metadata and the per-thread decision-unit state that ride with it on the
// wire (transport.Context). Each Part owns one context per thread slot
// (Part.ctxs) and reuses it on every arrival, like the fixed context
// registers the hardware ships between.
type context struct {
	thread int
	pc     int32
	regs   [isa.NumRegs]uint32
	spec   *ThreadSpec
	native geom.CoreID
	memSeq int64 // per-thread memory-op counter (program order for SC)

	// cycles and msgs are the thread's §3 cost-model accumulators: one cycle
	// per retired instruction plus the NoC latency of every traversal its
	// execution caused (migrations, evictions, remote round trips), and the
	// count of those traversals. They depend only on core geometry and the
	// thread's own decision stream — never on how cores are partitioned into
	// node processes — which is what lets the serve front end report
	// byte-identical latencies across the channel and TCP transports.
	cycles uint64
	msgs   uint32

	// pred is the thread's decision predictor; its state migrates with the
	// context (transport.Context.Sched), so stateful schemes work across
	// cores and across node processes without any shared tables. sched is
	// the slot's reusable buffer for that wire state.
	pred  core.Predictor
	sched []byte
	// lease is the thread's read cache for remote words under a caching
	// scheme (nil otherwise). It is machine state, not predictor state: it
	// is unregistered on every departure and reset on every arrival, so it
	// never rides the wire.
	lease *core.LeaseCache
	// observed marks a context shipped mid-instruction: the access at pc
	// was fed to pred.Observe before the migration, and the re-execution at
	// the home core must not observe it a second time.
	observed bool
	// live marks the slot as holding the thread's one resident context:
	// set on arrival, cleared on departure before the send.
	live bool
}

// archContext extracts the architectural half of a context.
func archContext(c *context) isa.Context {
	return isa.Context{PC: c.pc, Regs: c.regs}
}

// coreNode is one core: its run queue, the per-core ends of the migration
// and eviction virtual networks, and the core's runtime metrics. Touched
// only by the part's executor and the commands it serves (Part.call).
type coreNode struct {
	id  geom.CoreID
	p   *Part
	ctr transport.CoreMetrics
	// evictQ and migQ are the core's ends of the eviction and migration
	// networks: native returns and guest-bound migrations waiting for the
	// core's next turn. Unbounded — at most one context per thread exists.
	evictQ, migQ []*context
	runq         []*context
	// wait is the remote op to another node that the executing context
	// awaits (c nil when none); the core skips its turns until it lands.
	wait struct {
		c    *context
		req  transport.MemRequest // Lease set for a leased read
		in   isa.Instr
		step int // the instruction's step in its quantum slice
	}
	// guests counts the core's *resident* non-native contexts: those queued
	// in runq plus the one currently executing (execGuest). Counting the
	// mid-flight guest is what makes the GuestContexts limit honest — the
	// earlier runq-only count let a guest slip in unaccounted during every
	// execution slice of another guest.
	guests    int
	execGuest bool               // the currently executing context is a guest
	leases    []*core.LeaseCache // of the contexts resident here
}

// debugGuestPool, when set (tests only), makes every guest-pool mutation
// re-count the run queue and panic if the guests counter has drifted from
// the actual resident guest population or gone negative.
var debugGuestPool atomic.Bool

// checkGuestPool asserts the guest-pool invariant. Called (under
// debugGuestPool) after every accept, requeue, eviction, and departure, by
// the goroutine that steps the core.
func (n *coreNode) checkGuestPool() {
	if !debugGuestPool.Load() {
		return
	}
	count := 0
	for _, g := range n.runq {
		if g.native != n.id {
			count++
		}
	}
	if n.execGuest {
		count++
	}
	if n.guests != count || n.guests < 0 {
		panic(fmt.Sprintf("machine: core %d guest pool drift: counter %d, resident %d (runq %d, executing %v)",
			n.id, n.guests, count, len(n.runq), n.execGuest))
	}
}

// shipCost returns the §3 cost-model latency, in cycles, of shipping c's
// context over hops mesh hops — the charge a migration or eviction adds to
// the context's own accumulator. It depends only on core geometry and the
// context's predictor-state size, never on the node partitioning.
func (n *coreNode) shipCost(c *context, hops int) uint64 {
	bits := 8 * (transport.ContextWireBytes + c.pred.StateLen())
	return uint64(wireNoC.Latency(hops, bits))
}

// remoteCost returns the cost-model latency of one remote-access round
// trip over hops mesh hops: the request frame out plus the reply frame
// back, each at its exact wire size.
func remoteCost(hops int) uint64 {
	return uint64(wireNoC.Latency(hops, 8*transport.MemReqFrameBytes) +
		wireNoC.Latency(hops, 8*transport.MemRepFrameBytes))
}

// leasedRemoteCost is remoteCost for a lease-requesting read: the reply
// comes back as the slightly larger FrameLeaseRep.
func leasedRemoteCost(hops int) uint64 {
	return uint64(wireNoC.Latency(hops, 8*transport.MemReqFrameBytes) +
		wireNoC.Latency(hops, 8*transport.LeaseRepFrameBytes))
}

// adoptLease registers an arriving context's lease cache for foreign
// write-update delivery. No-op for non-caching schemes (nil cache).
func (n *coreNode) adoptLease(c *context) {
	if c.lease == nil {
		return
	}
	n.leases = append(n.leases, c.lease)
}

// dropLease unregisters a departing context's lease cache: migration,
// eviction, halt, or transport teardown. The slot keeps the cache and
// fromWire resets it — a re-arrival starts empty, which is the determinism
// contract (lease state never rides the wire).
func (n *coreNode) dropLease(c *context) {
	if c.lease == nil {
		return
	}
	if i := slices.Index(n.leases, c.lease); i >= 0 {
		n.leases = slices.Delete(n.leases, i, i+1)
	}
}

// applyLeaseUpdate delivers one home-shard write-update to every resident
// lease cache. Updates replace values in place and never add or remove
// entries, so delivery order and timing cannot perturb any hit/miss
// count — the same value lands whichever cache holds the word.
func (n *coreNode) applyLeaseUpdate(inv transport.LeaseInval) {
	for _, lc := range n.leases {
		lc.Update(cache.Addr(inv.Addr), inv.Value)
	}
}

// flush writes the transport's coalesced sends (runExecutor says when). A
// failed flush means a peer connection died with contexts in the buffer —
// the run is lost, so say why once (the writer's error is sticky and would
// repeat every cycle) and park the whole part: work produced after the
// wire is gone can never leave the machine, so continuing to execute would
// just spin until external teardown. The abort stops the executor at the
// end of its round.
func (p *Part) flush() {
	if err := p.tr.Flush(); err != nil && !p.flushFailed {
		p.flushFailed = true
		fmt.Fprintf(os.Stderr, "machine: transport flush: %v\n", err)
		p.abort()
	}
}

// runNext executes one slice of the context at the head of the run queue.
func (n *coreNode) runNext() {
	// Pop in place: re-slicing would shed capacity at the front and make
	// every later append allocate.
	c := n.runq[0]
	n.runq = n.runq[:copy(n.runq, n.runq[1:])]
	// The popped context stays resident (and counted in guests) while it
	// executes; execGuest marks it so the pool invariant covers it.
	n.execGuest = c.native != n.id
	n.execute(c, 0)
}

// resume finishes the turn of a core whose context awaits a remote reply:
// nothing while the reply is owed; once it has landed, the memory
// instruction completes and the suspended slice runs on from the next
// step; if the link died first, the context is lost with it. Reports
// whether the context ran.
func (n *coreNode) resume() bool {
	rep, done, err := n.p.tr.Poll(n.id)
	if !done {
		return false
	}
	w := n.wait
	n.wait.c = nil
	if err != nil {
		n.guestDeparted(w.c) // run lost to transport teardown
		return true
	}
	if w.req.Lease != 0 {
		fillLease(w.c, w.req, rep)
	}
	n.memDone(w.c, w.in, rep)
	n.execute(w.c, w.step+1)
	return true
}

func (n *coreNode) acceptNative(c *context) {
	if c.native != n.id {
		panic(fmt.Sprintf("machine: context of thread %d (native %d) on the eviction network of core %d",
			c.thread, c.native, n.id))
	}
	n.adoptLease(c)
	n.runq = append(n.runq, c)
	n.checkGuestPool()
}

// acceptGuest implements Figure 1's "# threads exceeded?" box: if the guest
// pool is full, a resident guest is evicted to its native core on the
// eviction network, whose delivery never blocks — an unbounded queue in
// process and on a TCP node alike (the deadlock-freedom argument). The currently executing guest cannot be
// displaced mid-instruction; when it is the only remaining guest the
// arrival is accepted anyway (refusing would deadlock the migration
// network) and the overflow is counted as an overcommit. A guest that
// evicts takes its victim's place in the run queue rather than the tail,
// so queued guests only ever move toward the head; together with
// admitting at most one guest between two slices (admit), that is the
// progress rule (DESIGN.md §6).
func (n *coreNode) acceptGuest(c *context) {
	if c.native == n.id {
		// A migration can target the thread's own native core (returning
		// home): that lands in the reserved native context.
		n.adoptLease(c)
		n.runq = append(n.runq, c)
		n.checkGuestPool()
		return
	}
	at := len(n.runq)
	if n.p.cfg.GuestContexts > 0 {
		for n.guests >= n.p.cfg.GuestContexts {
			victim, i := n.evictOneGuest()
			if victim == nil {
				// Only the mid-flight executing guest remains: the pool
				// exceeds its limit by this acceptance. Count it instead of
				// pretending the limit held.
				n.ctr.Overcommits++
				break
			}
			at = i
		}
	}
	n.guests++
	n.adoptLease(c)
	n.runq = slices.Insert(n.runq, at, c)
	n.checkGuestPool()
}

// evictOneGuest removes the first guest in run-queue order, sends it home,
// and returns it with the run-queue position it held. Queue order is turn
// order: requeue returns an executed context to the tail, and a guest
// admitted into a full pool takes its victim's place. So the victim is
// the guest whose turn comes first — not the longest-resident one, but
// the one that has waited longest since its last slice or a guest that
// inherited such a place and has not run yet (TestEvictionOrder). Returns
// nil if no guest is queued.
func (n *coreNode) evictOneGuest() (*context, int) {
	for i, g := range n.runq {
		if g.native != n.id {
			n.runq = append(n.runq[:i], n.runq[i+1:]...)
			n.guests--
			n.ctr.Evictions++
			n.dropLease(g)
			g.live = false
			// The eviction traversal is charged to the evicted context (its
			// thread caused the residency), before it leaves, so it carries
			// the updated accumulators.
			g.cycles += n.shipCost(g, n.p.cfg.Mesh.Hops(n.id, g.native))
			g.msgs++
			n.ctr.ContextFlits += contextFlits(g.pred.StateLen())
			n.p.ship(g.native, g, true)
			n.checkGuestPool()
			return g, i
		}
	}
	return nil, 0
}

// requeue returns the executing context to the local run queue after its
// quantum. The context was resident throughout its slice, so the guest
// count is unchanged; only the executing marker moves.
func (n *coreNode) requeue(c *context) {
	n.execGuest = false
	n.runq = append(n.runq, c)
	n.checkGuestPool()
}

// guestDeparted retires the executing context from the core: it migrated
// away, halted, or was lost to transport teardown. Guests leave the
// resident count here. A departing context is retired before it is sent:
// from the send on, the receiving core owns the slot.
func (n *coreNode) guestDeparted(c *context) {
	n.dropLease(c)
	c.live = false
	if c.native != n.id {
		n.guests--
	}
	n.execGuest = false
	n.checkGuestPool()
}

// execute runs a context from the given step of its quantum slice to the
// slice's end. The context either stays (requeued), halts, migrates away,
// or suspends on a remote op to another node (resume runs the rest).
func (n *coreNode) execute(c *context, step int) {
	prog := c.spec.Program
	for ; step < n.p.cfg.Quantum; step++ {
		if c.pc < 0 || int(c.pc) >= len(prog) {
			panic(fmt.Sprintf("machine: thread %d pc %d outside program of %d instructions",
				c.thread, c.pc, len(prog)))
		}
		in := prog[c.pc]
		if in.IsMem() {
			addr := c.regs[in.Rs] + uint32(in.Imm)
			home := n.p.place.Touch(cache.Addr(addr), c.native)
			// Ground truth reaches the predictor exactly once per access,
			// before the decision — the same Observe-then-Decide order the
			// trace engine uses, which is what makes runtime decision
			// sequences match the model's. A context that migrated (or was
			// evicted) mid-instruction arrives with observed already set.
			if !c.observed {
				c.pred.Observe(home, cache.Addr(addr))
				c.observed = true
			}
			leased := false
			if home != n.id {
				if c.lease != nil && !in.IsWrite() {
					if v, ok := c.lease.Lookup(cache.Addr(addr), uint64(c.memSeq)); ok {
						// Served from the lease before the scheme is asked
						// (core.Leaser): no shard op, no logged event — the
						// SC-checked history sees only home-serialized
						// accesses, and the cached value is
						// bounded-staleness by the lease window (DESIGN.md
						// §10).
						writeReg(c, in.Rd, v)
						n.ctr.LeaseHits++
						c.memSeq++
						c.observed = false
						c.pc++
						n.ctr.Instructions++
						c.cycles++
						continue
					}
				}
				info := core.AccessInfo{
					Thread: c.thread,
					Cur:    n.id,
					Home:   home,
					Native: c.native,
				}
				info.Access.Addr = cache.Addr(addr)
				info.Access.Write = in.IsWrite()
				dec := c.pred.Decide(info)
				// A remotely-performed write drops the holder's own lease —
				// the one deterministic removal a write can cause (the home
				// shard's updates to other holders replace values only). A
				// migrating write is NOT counted: the whole cache is dropped
				// on departure, matching the trace model's migrate arm.
				if c.lease != nil && in.IsWrite() && dec != core.Migrate && c.lease.InvalidateOwn(cache.Addr(addr)) {
					n.ctr.LeaseInvals++
				}
				if dec == core.Migrate {
					// Ship the context; the instruction re-executes at home,
					// where the access will be local. The traversal is charged
					// before the context leaves, so it carries the updated
					// accumulators.
					n.ctr.Migrations++
					c.cycles += n.shipCost(c, n.p.cfg.Mesh.Hops(n.id, home))
					c.msgs++
					n.ctr.ContextFlits += contextFlits(c.pred.StateLen())
					n.guestDeparted(c)
					n.p.ship(home, c, false)
					return
				}
				if in.IsWrite() {
					n.ctr.RemoteWrites++
				} else {
					n.ctr.RemoteReads++
				}
				if dec == core.RemoteReadCached {
					// A lease-requesting read: counted as a remote read AND a
					// lease miss; the reply travels as the slightly larger
					// FrameLeaseRep.
					leased = true
					n.ctr.LeaseMisses++
					c.cycles += leasedRemoteCost(n.p.cfg.Mesh.Hops(n.id, home))
				} else {
					c.cycles += remoteCost(n.p.cfg.Mesh.Hops(n.id, home))
				}
				c.msgs += 2 // request out, reply back
			} else {
				n.ctr.LocalOps++
			}
			rep, ok := n.applyMem(c, in, addr, home, leased, step)
			if !ok {
				return
			}
			n.memDone(c, in, rep)
			continue
		}
		if in.Op == isa.HALT {
			n.ctr.Instructions++
			c.cycles++
			c.pred.Flush() // end of the thread's access stream
			// Depart before reporting: whoever awaits the halt may sample the
			// machine at once and must find the guest gauge already settled.
			// The report is built first, while the slot is still ours.
			h := transport.HaltMsg{Thread: c.thread, Regs: c.regs, Cycles: c.cycles, Msgs: c.msgs}
			n.guestDeparted(c)
			n.p.onHalt(h)
			return
		}
		executeALU(c, in)
		n.ctr.Instructions++
		c.cycles++
	}
	n.requeue(c)
}

// applyMem performs the memory instruction against addr's home shard: a
// direct call through the transport when this part owns home — the home
// shard's lock is the serialization point — and otherwise a request to
// the owning node, on which the context suspends at this step of its slice
// until the reply lands (resume). A leased read additionally asks the home
// for a lease grant. Reports the reply, or false if the context has
// suspended or was lost to transport teardown.
func (n *coreNode) applyMem(c *context, in isa.Instr, addr uint32, home geom.CoreID, leased bool, step int) (transport.MemReply, bool) {
	req := transport.MemRequest{Thread: int32(c.thread), TSeq: c.memSeq, Addr: addr, From: uint32(n.id)}
	if leased {
		// The window fits u16 by NewPart's validation; the home does not
		// interpret it beyond nonzero-means-grant.
		req.Lease = uint16(c.lease.Window())
	}
	switch in.Op {
	case isa.LW:
		req.Op = transport.OpRead
	case isa.SW:
		req.Op, req.Arg = transport.OpWrite, c.regs[in.Rd]
	case isa.FAA:
		req.Op, req.Arg = transport.OpFAA, c.regs[in.Rt]
	case isa.SWAP:
		req.Op, req.Arg = transport.OpSwap, c.regs[in.Rt]
	default:
		panic(fmt.Sprintf("machine: %v is not a memory instruction", in.Op))
	}
	if n.p.nodeOf[home] == nil {
		if n.p.tr.Request(home, req) != nil {
			n.guestDeparted(c)
			return transport.MemReply{}, false
		}
		n.wait.c, n.wait.req, n.wait.in, n.wait.step = c, req, in, step
		return transport.MemReply{}, false
	}
	rep, err := n.p.tr.Remote(home, req)
	if err != nil {
		n.guestDeparted(c)
		return rep, false
	}
	if leased {
		fillLease(c, req, rep)
	}
	return rep, true
}

// fillLease fills c's lease cache from a granted read's reply, at the
// PRE-access op count (req.TSeq): the same virtual fill time the
// trace-model oracle uses, so expiry boundaries land on identical
// own-stream indices.
func fillLease(c *context, req transport.MemRequest, rep transport.MemReply) {
	c.lease.Fill(cache.Addr(req.Addr), rep.Value, uint64(req.TSeq))
}

// memDone retires the memory instruction in with its home's reply: the
// thread's memory-op count advances and the destination register takes
// the value.
func (n *coreNode) memDone(c *context, in isa.Instr, rep transport.MemReply) {
	c.memSeq++
	switch in.Op {
	case isa.LW, isa.FAA, isa.SWAP:
		writeReg(c, in.Rd, rep.Value)
	}
	c.observed = false // the access completed; the next one is fresh
	c.pc++
	n.ctr.Instructions++
	c.cycles++
}

// executeALU interprets a non-memory, non-halt instruction.
func executeALU(c *context, in isa.Instr) {
	next := c.pc + 1
	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		writeReg(c, in.Rd, c.regs[in.Rs]+c.regs[in.Rt])
	case isa.SUB:
		writeReg(c, in.Rd, c.regs[in.Rs]-c.regs[in.Rt])
	case isa.MUL:
		writeReg(c, in.Rd, c.regs[in.Rs]*c.regs[in.Rt])
	case isa.AND:
		writeReg(c, in.Rd, c.regs[in.Rs]&c.regs[in.Rt])
	case isa.OR:
		writeReg(c, in.Rd, c.regs[in.Rs]|c.regs[in.Rt])
	case isa.XOR:
		writeReg(c, in.Rd, c.regs[in.Rs]^c.regs[in.Rt])
	case isa.SLT:
		if int32(c.regs[in.Rs]) < int32(c.regs[in.Rt]) {
			writeReg(c, in.Rd, 1)
		} else {
			writeReg(c, in.Rd, 0)
		}
	case isa.SLL:
		writeReg(c, in.Rd, c.regs[in.Rs]<<(c.regs[in.Rt]&31))
	case isa.SRL:
		writeReg(c, in.Rd, c.regs[in.Rs]>>(c.regs[in.Rt]&31))
	case isa.ADDI:
		writeReg(c, in.Rd, c.regs[in.Rs]+uint32(in.Imm))
	case isa.LUI:
		writeReg(c, in.Rd, uint32(in.Imm)<<16)
	case isa.BEQ:
		if c.regs[in.Rd] == c.regs[in.Rs] {
			next = c.pc + 1 + in.Imm
		}
	case isa.BNE:
		if c.regs[in.Rd] != c.regs[in.Rs] {
			next = c.pc + 1 + in.Imm
		}
	case isa.BLT:
		if int32(c.regs[in.Rd]) < int32(c.regs[in.Rs]) {
			next = c.pc + 1 + in.Imm
		}
	case isa.JMP:
		next = in.Imm
	case isa.JAL:
		writeReg(c, 31, uint32(c.pc+1))
		next = in.Imm
	case isa.JR:
		next = int32(c.regs[in.Rd])
	default:
		panic(fmt.Sprintf("machine: unhandled opcode %v", in.Op))
	}
	c.pc = next
}

// writeReg stores v into rd; register 0 is hardwired to zero.
func writeReg(c *context, rd uint8, v uint32) {
	if rd == 0 {
		return
	}
	c.regs[rd] = v
}
