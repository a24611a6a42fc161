// Package transport carries the EM² machine's three message classes
// between cores: context migrations (the migration virtual network),
// context evictions (the separate eviction virtual network whose
// unconditional consumption is the paper's deadlock-freedom argument), and
// remote-access request/reply round trips. The concurrent runtime in
// internal/machine is written against the Transport interface; two
// implementations exist:
//
//   - Local: every core in one process. Contexts pass between cores as
//     queue pushes inside the machine; Local carries only what comes from
//     outside it — injected contexts, and remote accesses and
//     write-updates as direct handler calls.
//   - Node/Coordinator (tcp.go): each core group is an OS process, messages
//     travel as canonical length-prefixed frame batches over TCP (wire.go),
//     and the migrated context really is the ContextWireBytes byte string a
//     hardware transfer would serialize.
//
// On either, a machine.Part steps its cores on one executor goroutine that
// consumes the endpoint's queue (Take, Wake) and produces messages. A
// Node's connection readers only decode and queue — contexts, memory
// requests with the link they came on, lease write-updates — and complete
// the issuing core's call slot when a reply lands; a reader never writes
// and never blocks, so every socket drains. Everything the executor sends
// to a peer coalesces in that link's batch buffer until the executor's
// Flush, which writes each link that has frames — before it parks, and at
// least every few rounds — so one write carries every context, request,
// reply and update those rounds produced for that peer (DESIGN.md §6).
//
// The control plane keeps the coordinator off the critical path at paper
// scale (64–256 cores, 8+ nodes): injection defers into the per-node batch
// buffers and ships as one write per node (O(nodes) coordinator writes,
// not O(threads) round trips). Every request — load, job submit, job
// retire, sample, collect — is answered by one Reply per node, gathered
// by one barrier that names a failing node; the load's Reply carries a
// node's actual failure message, and collect streams one Reply per core
// so no single control body scales with a node's core count. Node
// liveness rides an async Heartbeat frame instead of being inferred from
// connection death.
package transport

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/isa"
)

// Context is the wire form of a migrating execution context: the
// architectural state (isa.Context) plus the routing metadata the runtime
// needs — owning thread, native core, the thread's memory-operation counter
// (program order for the SC checker), instruction-progress flags — and the
// thread's decision-scheme state (Sched), the predictor tables of
// core.Predictor that hardware would keep in the per-context decision unit
// and that therefore travel with the context instead of living in any one
// core's memory.
type Context struct {
	Thread int32
	Native int32
	MemSeq int64
	// Cycles and Msgs are the thread's accumulated cost counters — machine
	// cycles of work and interconnect traversals charged under the §3 cost
	// model. They ride in the context (like the predictor state) because a
	// thread's cost is a property of the thread, not of any one core it
	// visited: at HALT the counters surface in the HaltMsg, giving the serve
	// front end per-job completion latency with no per-node collection.
	Cycles uint64
	Msgs   uint32
	Flags  uint8
	Arch   isa.Context
	// Sched is the thread's serialized predictor state (fixed length for a
	// given scheme; empty for stateless schemes).
	Sched []byte
}

// FlagObserved marks a context shipped mid-instruction: the access at the
// current PC was already fed to the predictor's Observe before the
// migration, so the re-execution at the home core must not observe it
// again.
const FlagObserved uint8 = 1 << 0

// ContextWireBytes is the exact encoded size of a Context with no scheme
// state: 31 bytes of routing metadata and cost counters (thread, native,
// memSeq, cycles, msgs, flags, and the u16 Sched length) plus the
// architectural context. A context carrying predictor state encodes to
// ContextWireBytes + len(Sched).
const ContextWireBytes = 31 + isa.ContextWireBytes

// schedLenOffset is the byte offset of the u16 Sched length inside an
// encoded Context — the field that makes a context self-delimiting on the
// wire. parseFrame (wire.go) and DecodeWire both read it, so it lives in
// one place.
const schedLenOffset = 29

// MaxSchedBytes bounds the predictor-state trailer: its length must fit
// the u16 wire header. The machine validates a scheme's StateLen against
// this at configuration time; EncodeWire panics as a last line of defense,
// because a silently wrapped length would desynchronize the wire.
const MaxSchedBytes = 1<<16 - 1

// AppendWire appends the big-endian encoding of c to b — the fixed header
// and architectural context followed by the Sched trailer — and returns the
// extended slice. It is the hot encode path: appending into a reused buffer
// allocates nothing.
func (c Context) AppendWire(b []byte) []byte {
	if len(c.Sched) > MaxSchedBytes {
		panic(fmt.Sprintf("transport: %d bytes of scheme state exceed the %d-byte wire field",
			len(c.Sched), MaxSchedBytes))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(c.Thread))
	b = binary.BigEndian.AppendUint32(b, uint32(c.Native))
	b = binary.BigEndian.AppendUint64(b, uint64(c.MemSeq))
	b = binary.BigEndian.AppendUint64(b, c.Cycles)
	b = binary.BigEndian.AppendUint32(b, c.Msgs)
	b = append(b, c.Flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.Sched)))
	b = c.Arch.AppendWire(b)
	return append(b, c.Sched...)
}

// DecodeWire decodes b into c, the inverse of AppendWire: the input must be
// exactly ContextWireBytes plus the Sched length its own header declares,
// and every accepted input round-trips byte-for-byte (the encoding is
// canonical). The Sched trailer is copied into c's existing Sched storage
// when capacity allows, making repeated decodes into one Context
// allocation-free — the hot decode path.
func (c *Context) DecodeWire(b []byte) error {
	if len(b) < ContextWireBytes {
		return fmt.Errorf("transport: context wire length %d, want at least %d", len(b), ContextWireBytes)
	}
	schedLen := int(binary.BigEndian.Uint16(b[schedLenOffset:]))
	if len(b) != ContextWireBytes+schedLen {
		return fmt.Errorf("transport: context wire length %d, want %d (%d scheme-state bytes)",
			len(b), ContextWireBytes+schedLen, schedLen)
	}
	arch, err := isa.DecodeContext(b[31 : 31+isa.ContextWireBytes])
	if err != nil {
		return err
	}
	c.Thread = int32(binary.BigEndian.Uint32(b))
	c.Native = int32(binary.BigEndian.Uint32(b[4:]))
	c.MemSeq = int64(binary.BigEndian.Uint64(b[8:]))
	c.Cycles = binary.BigEndian.Uint64(b[16:])
	c.Msgs = binary.BigEndian.Uint32(b[24:])
	c.Flags = b[28]
	c.Arch = arch
	c.Sched = append(c.Sched[:0], b[ContextWireBytes:]...)
	return nil
}

// MemOp names a remote-access operation kind.
type MemOp uint8

// The remote-access operations: the four memory instructions of the ISA.
const (
	OpRead MemOp = iota
	OpWrite
	OpFAA
	OpSwap
)

// MemRequest is one remote access: performed and serialized at the home
// core's shard, logged there against (Thread, TSeq). A negative Thread
// marks a preload, which is applied but never logged.
type MemRequest struct {
	Thread int32
	TSeq   int64
	Op     MemOp
	Addr   uint32
	Arg    uint32 // store value, FAA delta, or SWAP operand
	// From is the requesting core — the shard records it as the lease
	// holder when Lease is set.
	From uint32
	// Lease, nonzero on an OpRead, asks the home shard to grant a read
	// lease to From (the value is the requester's validity window, for
	// the wire trace; the home does not interpret it).
	Lease uint16
}

// MemReply carries the value half of the round trip: the loaded word for
// OpRead, the old word for OpFAA/OpSwap, zero for OpWrite.
type MemReply struct {
	Value uint32
	// Lease echoes the request's Lease field when the home shard granted
	// a lease on the read. Granted replies travel as FrameLeaseRep; plain
	// replies keep the original FrameMemRep encoding.
	Lease uint16
}

// LeaseInval is the home shard's write-update notification: Addr was
// written with Value while Dst held a lease on it. The holder replaces
// its cached value in place — it never removes the entry, so lease
// hit/miss counts stay a pure function of each thread's own access
// stream (see core.LeaseCache).
type LeaseInval struct {
	Dst   geom.CoreID
	Addr  uint32
	Value uint32
}

// EventKind classifies a logged memory event.
type EventKind int

// Event kinds.
const (
	EvRead EventKind = iota
	EvWrite
	EvRMW
)

// Event is one serialized memory operation at a home shard. Seq is the
// shard-local serialization index: restricted to one address it is the
// address's total modification/read order, the witness order the SC
// checker uses. Events cross the wire in Reply, so the type lives here;
// internal/machine aliases it.
type Event struct {
	Thread int
	TSeq   int64 // per-thread memory-op index (program order)
	Addr   uint32
	Kind   EventKind
	Read   uint32 // value read (EvRead, EvRMW)
	Wrote  uint32 // value written (EvWrite, EvRMW)
	Seq    int64
	Home   geom.CoreID
}

// CoreMetrics is one core's runtime counters, collected through the
// Collect control plane: what the core executed, how its non-local
// accesses resolved, and how much context state it pushed onto the
// interconnect. Counts are attributed to the core where the action was
// decided (migrations and evictions to the sending core).
type CoreMetrics struct {
	Core         geom.CoreID
	Instructions int64
	LocalOps     int64 // memory ops served by the core's own shard
	RemoteReads  int64 // remote round trips issued from this core
	RemoteWrites int64
	Migrations   int64 // contexts this core shipped toward a home
	Evictions    int64 // guests this core evicted to their native cores
	ContextFlits int64 // flits of context wire (incl. predictor state) sent
	LeaseHits    int64 // reads served from a resident thread's lease cache
	LeaseMisses  int64 // lease-requesting remote reads issued from this core
	LeaseInvals  int64 // leases a resident thread dropped by its own write
	// Overcommits counts guest acceptances that pushed the core's resident
	// guest population above GuestContexts because no queued guest was
	// evictable (the only displaceable guest was mid-instruction). The
	// accept is mandatory — refusing would break deadlock freedom — so the
	// overflow is surfaced here instead of silently exceeding the pool.
	Overcommits int64
}

// Add returns the counter-wise sum of m and o (Core is kept from m) — the
// single aggregation every total row and collect reply uses, so a counter
// added here cannot be dropped from one of several hand-written sums.
func (m CoreMetrics) Add(o CoreMetrics) CoreMetrics {
	m.Instructions += o.Instructions
	m.LocalOps += o.LocalOps
	m.RemoteReads += o.RemoteReads
	m.RemoteWrites += o.RemoteWrites
	m.Migrations += o.Migrations
	m.Evictions += o.Evictions
	m.ContextFlits += o.ContextFlits
	m.LeaseHits += o.LeaseHits
	m.LeaseMisses += o.LeaseMisses
	m.LeaseInvals += o.LeaseInvals
	m.Overcommits += o.Overcommits
	return m
}

// Sample is one non-destructive snapshot of a running machine's metrics:
// the per-core counters Collect would gather at end of run, the live
// guest-pool and shard-footprint gauges, and the endpoint's wire traffic.
// Unlike Collect it leaves the machine running and the counters intact, so
// a telemetry pipeline can take it periodically and turn the counters into
// time series.
//
// Determinism contract: PerCore, Guests, Words and Events are deterministic
// whenever the machine is quiescent (between serve jobs, or after the halt
// barrier of a closed-loop run) — the same seed yields the same values on
// every transport. Net is advisory only: batching and connection counts
// differ across transports, so Net must never be folded into a
// deterministic surface (the telemetry encoder excludes it from the
// deterministic stream for exactly this reason).
type Sample struct {
	// Cycle is the virtual-time stamp the sampler assigns — the serve
	// clock's cycle for open-loop sampling, the slowest thread's halt cycle
	// for an end-of-run sample. Zero when the sampler has no virtual clock.
	Cycle uint64 `json:"cycle"`
	// PerCore holds the owned cores' counters, ascending by Core.
	PerCore []CoreMetrics `json:"per_core"`
	// Guests holds each owned core's resident guest-context count, aligned
	// with PerCore. A gauge: it must return to zero whenever the machine is
	// quiescent.
	Guests []int64 `json:"guests"`
	// Words and Events are the endpoint's shard footprint: words of backing
	// memory and logged SC events across its shards. Gauges — a job's
	// retire empties both.
	Words  int64 `json:"words"`
	Events int64 `json:"events"`
	// Net is the endpoint's wire traffic at the moment of the sample.
	// Advisory only; see the type comment.
	Net NetStats `json:"net"`
}

// SumMetrics returns the counter-wise sum of rows: the machine-wide totals
// of a per-core breakdown.
func SumMetrics(rows []CoreMetrics) CoreMetrics {
	var t CoreMetrics
	for _, m := range rows {
		t = t.Add(m)
	}
	return t
}

// Merge folds o into s: per-core rows are concatenated (callers re-sort by
// Core once all endpoints are merged), gauges and wire counters sum. The
// coordinator uses it to assemble a cluster-wide sample from per-node
// replies.
func (s *Sample) Merge(o Sample) {
	s.PerCore = append(s.PerCore, o.PerCore...)
	s.Guests = append(s.Guests, o.Guests...)
	s.Words += o.Words
	s.Events += o.Events
	s.Net = s.Net.Add(o.Net)
}

// MetricsSource is the common non-destructive metrics surface: anything
// that can be sampled for telemetry. machine.Part (in-process cores) and
// Coordinator (a whole cluster, via the sample request) implement it, so
// the stats renderers and the telemetry pipeline are written once against
// this interface.
type MetricsSource interface {
	// Sample takes a snapshot. It must be cheap and lock-light — safe to
	// call periodically while the machine runs — and must not disturb any
	// counter (sampling is invisible to deterministic surfaces).
	Sample() (Sample, error)
}

// Transport moves contexts and remote accesses between cores. A transport
// instance serves one *endpoint* — the set of cores it owns locally — and
// routes sends to any core in the system. Implementations must be safe for
// concurrent use by the executor that steps the owned cores and by a
// driver that injects contexts.
type Transport interface {
	// Cores returns the total core count of the system.
	Cores() int
	// Owned returns the cores served by this endpoint, ascending.
	Owned() []geom.CoreID

	// Take returns what was queued for the owned cores since the last
	// Take, in arrival order, keeping dst (the previous Take's slice, which
	// the caller is done with) as storage for the next arrivals.
	Take(dst []Arrival) []Arrival
	// Wake receives a token after an arrival is queued or a Request's
	// reply lands; one token covers everything before the next Take.
	Wake() <-chan struct{}

	// SendMigration ships c to dst on the migration network: a queued
	// arrival when dst is owned here, a frame in the owning node's batch
	// buffer until Flush otherwise.
	SendMigration(dst geom.CoreID, c Context) error
	// SendEviction ships c to dst on the eviction network, which carries
	// only native returns: dst must be c's native core.
	SendEviction(dst geom.CoreID, c Context) error

	// Flush writes every peer link that has frames, one write per link.
	// The executor calls it before it parks and at least every few rounds
	// (machine.Part.runExecutor); transports without buffering make it a
	// no-op.
	Flush() error

	// Remote performs req at dst's home shard and returns the reply: a
	// direct handler call when this endpoint owns dst, and otherwise a
	// blocking round trip, for a node no executor steps.
	Remote(dst geom.CoreID, req MemRequest) (MemReply, error)
	// HandleMem installs the function that serves MemRequests against
	// locally owned shards. It must be installed before any traffic flows.
	HandleMem(h func(core geom.CoreID, req MemRequest) MemReply)

	// Request sends req to dst, a core another endpoint owns, with the
	// next Flush; the reply settles the call slot of req.From, which has
	// at most one request in flight, and Poll(req.From) reports it: not
	// done while it is owed, done with an error if the link died first.
	Request(dst geom.CoreID, req MemRequest) error
	Poll(core geom.CoreID) (rep MemReply, done bool, err error)
	// Answer sends a queued memory request's reply, with the next Flush.
	Answer(a *Arrival, rep MemReply) error

	// SendLeaseInval delivers a write-update to inv.Dst: a direct handler
	// call when it is owned here, a frame with the next Flush otherwise.
	// Updates only refresh values, so their timing cannot affect
	// deterministic counters.
	SendLeaseInval(inv LeaseInval) error
	// HandleLeaseInval installs the function that applies lease updates
	// to locally owned cores. It must be installed before traffic flows.
	HandleLeaseInval(h func(inv LeaseInval))
}

// Arrival is one message queued for an endpoint's executor: a context on
// either virtual network, a memory request from a peer node, or a home
// shard's lease write-update.
type Arrival struct {
	// Kind is FrameMigration, FrameEviction, FrameMemReq or FrameLeaseInval.
	Kind FrameKind
	// Dst is the owned core a context or memory request is for.
	Dst geom.CoreID
	Ctx Context    // FrameMigration, FrameEviction
	Req MemRequest // FrameMemReq
	Inv LeaseInval // FrameLeaseInval
	// link and id say where a memory request's reply goes (Answer).
	link *conn
	id   uint64
}

// arrivals is an endpoint's unbounded inbound queue, where connection
// readers and injecting drivers meet the executor. Slots are filled in
// place under the lock, keeping their Sched storage, and take swaps the
// slice for the executor's previous one: a slot is touched only under the
// lock or by the executor between two takes, which is the happens-before
// edge for a context's Sched (DESIGN.md §6), and a warm queue allocates
// nothing.
type arrivals struct {
	mu   sync.Mutex
	q    []Arrival
	wake chan struct{}
}

func (q *arrivals) init(capacity int) {
	q.q = make([]Arrival, 0, capacity)
	q.wake = make(chan struct{}, 1)
}

// next locks the queue and returns a new tail slot, holding what an
// earlier arrival left there; the caller fills it and calls done.
func (q *arrivals) next() *Arrival {
	q.mu.Lock()
	if len(q.q) < cap(q.q) {
		q.q = q.q[:len(q.q)+1]
	} else {
		q.q = append(q.q, Arrival{})
	}
	return &q.q[len(q.q)-1]
}

// done unlocks the queue, keeping the new slot (and waking the executor)
// if keep is set.
func (q *arrivals) done(keep bool) {
	if !keep {
		q.q = q.q[:len(q.q)-1]
	}
	q.mu.Unlock()
	if keep {
		q.signal()
	}
}

// signal leaves a wake-up token unless one is already pending.
func (q *arrivals) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pushCtx queues a context sent from this address space. Sched is copied
// into the slot's storage, so the sender may reuse its buffer at once.
func (q *arrivals) pushCtx(kind FrameKind, dst geom.CoreID, c Context) {
	a := q.next()
	sched := a.Ctx.Sched[:0]
	a.Kind, a.Dst, a.Ctx = kind, dst, c
	a.Ctx.Sched = append(sched, c.Sched...)
	q.done(true)
}

// Wake implements Transport.Wake for Local and Node, which embed the queue.
func (q *arrivals) Wake() <-chan struct{} { return q.wake }

// Take implements Transport.Take.
func (q *arrivals) Take(dst []Arrival) []Arrival {
	q.mu.Lock()
	out := q.q
	q.q = dst[:0]
	q.mu.Unlock()
	return out
}

// checkEviction rejects a context evicted to a core it is not native to:
// the eviction network carries native returns only — the network the
// progress rule (DESIGN.md §6) lets every core consume unconditionally.
func checkEviction(dst geom.CoreID, c Context) error {
	if c.Native != int32(dst) {
		return fmt.Errorf("transport: eviction of thread %d to core %d, but its native core is %d", c.Thread, dst, c.Native)
	}
	return nil
}
