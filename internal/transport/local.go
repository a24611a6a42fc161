package transport

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/geom"
)

// Local is the in-process transport: every core lives in this address
// space, so a machine.Part over it steps them all on one executor
// goroutine and hands a context from core to core as a push of the
// thread's slot onto the destination's queue — no message, no encoding.
// What reaches Local is what comes from outside that executor: injected
// contexts, queued here until the executor takes them, and remote
// accesses and write-updates, which are direct calls into the registered
// handlers — the shard lock remains the only serialization point.
type Local struct {
	owned []geom.CoreID
	h     func(core geom.CoreID, req MemRequest) MemReply
	invH  func(inv LeaseInval)

	mu     sync.Mutex
	evicts []Arrival // queued eviction-network sends, in send order
	migs   []Arrival // queued migration-network sends, in send order
	wake   chan struct{}
}

// Arrival is a context sent to an in-process core from outside its
// executor, waiting to be taken.
type Arrival struct {
	Dst   geom.CoreID
	Evict bool // sent on the eviction network
	Ctx   Context
}

// NewLocal builds an in-process transport for the given core count;
// numThreads sizes the injection queue. The queue is unbounded, so a send
// never blocks.
func NewLocal(cores, numThreads int) *Local {
	l := &Local{
		owned:  make([]geom.CoreID, cores),
		evicts: make([]Arrival, 0, numThreads),
		wake:   make(chan struct{}, 1),
	}
	for i := range l.owned {
		l.owned[i] = geom.CoreID(i)
	}
	return l
}

// Cores implements Transport.
func (l *Local) Cores() int { return len(l.owned) }

// Owned implements Transport.
func (l *Local) Owned() []geom.CoreID { return l.owned }

// Owns implements Transport.
func (l *Local) Owns(core geom.CoreID) bool { return int(core) >= 0 && int(core) < len(l.owned) }

// InProcess implements Transport: every core is in this address space.
func (l *Local) InProcess() *Local { return l }

// SendMigration implements Transport: c joins dst's queue until the
// executor takes it.
func (l *Local) SendMigration(dst geom.CoreID, c Context) error {
	return l.queue(dst, false, c)
}

// SendEviction implements Transport: c joins dst's queue until the
// executor takes it.
func (l *Local) SendEviction(dst geom.CoreID, c Context) error {
	if err := checkEviction(dst, c); err != nil {
		return err
	}
	return l.queue(dst, true, c)
}

// queue appends one send and wakes the executor. Sched is copied, so the
// sender may reuse its buffer at once.
func (l *Local) queue(dst geom.CoreID, evict bool, c Context) error {
	if !l.Owns(dst) {
		return fmt.Errorf("transport: send to core %d of a %d-core machine", dst, len(l.owned))
	}
	c.Sched = bytes.Clone(c.Sched)
	l.mu.Lock()
	if evict {
		l.evicts = append(l.evicts, Arrival{Dst: dst, Evict: true, Ctx: c})
	} else {
		l.migs = append(l.migs, Arrival{Dst: dst, Ctx: c})
	}
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default: // a wake-up is already pending; it covers this send
	}
	return nil
}

// Wake returns the channel that receives a token after a send; a token
// covers every send queued before the next Take.
func (l *Local) Wake() <-chan struct{} { return l.wake }

// Take appends every queued send to dst and empties the queue: all
// evictions first, then all migrations, each in send order — a native
// return is accepted before any guest, as on the two virtual networks.
func (l *Local) Take(dst []Arrival) []Arrival {
	l.mu.Lock()
	dst = append(dst, l.evicts...)
	dst = append(dst, l.migs...)
	clear(l.evicts)
	clear(l.migs)
	l.evicts, l.migs = l.evicts[:0], l.migs[:0]
	l.mu.Unlock()
	return dst
}

// Flush implements Transport; nothing is ever buffered.
func (l *Local) Flush() error { return nil }

// Remote implements Transport as a direct handler call.
func (l *Local) Remote(dst geom.CoreID, req MemRequest) (MemReply, error) {
	if l.h == nil {
		return MemReply{}, fmt.Errorf("transport: no memory handler installed")
	}
	return l.h(dst, req), nil
}

// HandleMem implements Transport.
func (l *Local) HandleMem(h func(core geom.CoreID, req MemRequest) MemReply) { l.h = h }

// SendLeaseInval implements Transport as a direct handler call: every
// core is in-process, so the write-update lands before the sender's shard
// op returns to the writer.
func (l *Local) SendLeaseInval(inv LeaseInval) error {
	if l.invH == nil {
		return fmt.Errorf("transport: no lease-invalidation handler installed")
	}
	l.invH(inv)
	return nil
}

// HandleLeaseInval implements Transport.
func (l *Local) HandleLeaseInval(h func(inv LeaseInval)) { l.invH = h }
