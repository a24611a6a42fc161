package transport

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

// Local is the in-process transport: every core lives in this address
// space, so a machine.Part over it hands a context from core to core as a
// push of the thread's slot onto the destination's queue — no message, no
// encoding. What reaches Local is what comes from outside the executor:
// injected contexts, queued until the executor takes them. Remote accesses
// and write-updates come from the executor itself, as direct calls into
// the registered handlers: the executor is the one serialization point.
type Local struct {
	owned    []geom.CoreID
	h        func(core geom.CoreID, req MemRequest) MemReply
	invH     func(inv LeaseInval)
	arrivals // injected contexts (Take, Wake)
}

// NewLocal builds an in-process transport for the given core count;
// numThreads sizes the injection queue. The queue is unbounded, so a send
// never blocks.
func NewLocal(cores, numThreads int) *Local {
	l := &Local{owned: make([]geom.CoreID, cores)}
	l.arrivals.init(numThreads)
	for i := range l.owned {
		l.owned[i] = geom.CoreID(i)
	}
	return l
}

// Cores implements Transport.
func (l *Local) Cores() int { return len(l.owned) }

// Owned implements Transport.
func (l *Local) Owned() []geom.CoreID { return l.owned }

// Owns reports whether core is in the machine.
func (l *Local) Owns(core geom.CoreID) bool { return int(core) >= 0 && int(core) < len(l.owned) }

// SendMigration implements Transport: c joins the queue until the executor
// takes it.
func (l *Local) SendMigration(dst geom.CoreID, c Context) error {
	return l.queue(FrameMigration, dst, c)
}

// SendEviction implements Transport: c joins the queue until the executor
// takes it.
func (l *Local) SendEviction(dst geom.CoreID, c Context) error {
	if err := checkEviction(dst, c); err != nil {
		return err
	}
	return l.queue(FrameEviction, dst, c)
}

func (l *Local) queue(kind FrameKind, dst geom.CoreID, c Context) error {
	if !l.Owns(dst) {
		return fmt.Errorf("transport: send to core %d of a %d-core machine", dst, len(l.owned))
	}
	l.arrivals.pushCtx(kind, dst, c)
	return nil
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

// errAllLocal answers the calls that only a core another endpoint owns
// can need.
var errAllLocal = errors.New("transport: every core is in process; use Remote")

// Request implements Transport: no core is remote.
func (l *Local) Request(geom.CoreID, MemRequest) error { return errAllLocal }

// Poll implements Transport: no request is ever outstanding.
func (l *Local) Poll(geom.CoreID) (MemReply, bool, error) { return MemReply{}, true, errAllLocal }

// Answer implements Transport: no request is ever queued.
func (l *Local) Answer(*Arrival, MemReply) error { return errAllLocal }

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
