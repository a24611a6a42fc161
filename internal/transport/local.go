package transport

import (
	"fmt"

	"repro/internal/geom"
)

// Local is the in-process transport: every core lives in this endpoint and
// the two virtual networks are Go channels, exactly the plumbing the
// original goroutine machine used. Remote accesses are a direct call into
// the registered handler — the shard lock remains the only serialization
// point, as before the transport extraction.
type Local struct {
	mig   []chan Context
	evict []chan Context
	owned []geom.CoreID
	h     func(core geom.CoreID, req MemRequest) MemReply
	invH  func(inv LeaseInval)
}

// NewLocal builds an in-process transport for the given core count. A
// migration inbox holds all numThreads threads and an eviction inbox the
// natives of its core: eviction sends, so guest acceptance, never block.
func NewLocal(cores, numThreads int) *Local {
	l := &Local{
		mig:   make([]chan Context, cores),
		evict: make([]chan Context, cores),
		owned: make([]geom.CoreID, cores),
	}
	for i := range l.mig {
		l.mig[i] = make(chan Context, numThreads)
		l.evict[i] = make(chan Context, (numThreads+cores-1)/cores)
		l.owned[i] = geom.CoreID(i)
	}
	return l
}

// Cores implements Transport.
func (l *Local) Cores() int { return len(l.mig) }

// Owned implements Transport.
func (l *Local) Owned() []geom.CoreID { return l.owned }

// Owns implements Transport.
func (l *Local) Owns(core geom.CoreID) bool { return int(core) >= 0 && int(core) < len(l.mig) }

// MigrationIn implements Transport.
func (l *Local) MigrationIn(core geom.CoreID) <-chan Context { return l.mig[core] }

// EvictionIn implements Transport.
func (l *Local) EvictionIn(core geom.CoreID) <-chan Context { return l.evict[core] }

// SendMigration implements Transport.
func (l *Local) SendMigration(dst geom.CoreID, c Context) error {
	l.mig[dst] <- c
	return nil
}

// SendEviction implements Transport.
func (l *Local) SendEviction(dst geom.CoreID, c Context) error {
	if err := checkEviction(dst, c); err != nil {
		return err
	}
	l.evict[dst] <- c
	return nil
}

// Flush implements Transport; channel sends deliver immediately, so there
// is never anything buffered.
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
