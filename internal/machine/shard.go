package machine

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/transport"
)

// EventKind classifies a logged memory event. The type lives in
// internal/transport (events cross the wire when a cluster run is
// collected); these aliases keep the historical machine API.
type EventKind = transport.EventKind

// Event kinds.
const (
	EvRead  = transport.EvRead
	EvWrite = transport.EvWrite
	EvRMW   = transport.EvRMW
)

// Event is one serialized memory operation at a home shard — see
// transport.Event. Seq is the shard-local serialization index: restricted
// to one address it is the address's total modification/read order, the
// witness order the SC checker uses.
type Event = transport.Event

// shard is one core's slice of the global address space. All data for
// addresses homed at this core lives here and nowhere else — EM²'s
// single-home coherence invariant in executable form. Every access, no
// matter which transport carried the request, is serialized under mu.
type shard struct {
	home   geom.CoreID
	mu     sync.Mutex
	mem    map[uint32]uint32
	seq    int64
	log    bool
	events []Event
	// leases maps an address to the cores holding a read lease on it.
	// Records are added when a read requests a grant (req.Lease != 0) and
	// cleared by the first subsequent write, which returns one write-update
	// per holder. Nil until the first grant: non-caching schemes never pay
	// for the table.
	leases map[uint32][]geom.CoreID
	// spare holds the emptied holder lists of closed records, reused by
	// the next new record, so a grant-write cycle allocates nothing.
	spare [][]geom.CoreID
}

func newShard(home geom.CoreID, log bool) *shard {
	return &shard{home: home, mem: make(map[uint32]uint32), log: log}
}

// apply performs one memory request under the shard lock — the home-core
// serialization point — and logs it against (req.Thread, req.TSeq). A
// negative Thread marks a preload: applied, never logged. A write appends
// one write-update per lease holder of the word to invals, the caller's
// buffer, and returns it; the CALLER sends them, after this lock is
// released.
func (s *shard) apply(req transport.MemRequest, invals []transport.LeaseInval) (transport.MemReply, []transport.LeaseInval) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var old uint32 // a plain write never reads it: one hash, not two
	if req.Op != transport.OpWrite {
		old = s.mem[req.Addr]
	}
	var rep transport.MemReply
	e := Event{Addr: req.Addr}
	switch req.Op {
	case transport.OpRead:
		e.Kind, e.Read = EvRead, old
		rep.Value = old
		if req.Lease != 0 {
			s.grantLocked(req.Addr, geom.CoreID(req.From))
			rep.Lease = req.Lease
		}
	case transport.OpWrite:
		s.mem[req.Addr] = req.Arg
		e.Kind, e.Wrote = EvWrite, req.Arg
		invals = s.closeLeasesLocked(req, req.Arg, invals)
	case transport.OpFAA:
		s.mem[req.Addr] = old + req.Arg
		e.Kind, e.Read, e.Wrote = EvRMW, old, old+req.Arg
		rep.Value = old
		invals = s.closeLeasesLocked(req, old+req.Arg, invals)
	case transport.OpSwap:
		s.mem[req.Addr] = req.Arg
		e.Kind, e.Read, e.Wrote = EvRMW, old, req.Arg
		rep.Value = old
		invals = s.closeLeasesLocked(req, req.Arg, invals)
	default:
		panic(fmt.Sprintf("machine: unknown memory op %d", req.Op))
	}
	s.seq++
	if req.Thread < 0 {
		return rep, invals
	}
	if s.log {
		e.Thread = int(req.Thread)
		e.TSeq = req.TSeq
		e.Seq = s.seq
		e.Home = s.home
		s.events = append(s.events, e)
	}
	return rep, invals
}

// grantLocked records core as a lease holder of addr.
func (s *shard) grantLocked(addr uint32, core geom.CoreID) {
	if s.leases == nil {
		s.leases = make(map[uint32][]geom.CoreID)
	}
	holders := s.leases[addr]
	if slices.Contains(holders, core) {
		return
	}
	if len(holders) == 0 {
		if n := len(s.spare); n > 0 {
			holders = s.spare[n-1]
			s.spare = s.spare[:n-1]
		}
	}
	s.leases[addr] = append(holders, core)
}

// closeLeasesLocked clears addr's lease records on a write and appends one
// write-update per holder core to invals — including the writer's own
// core: the writing thread's entry was already dropped by its own-write
// invalidation (Update then no-ops), but other threads resident there may
// still hold the word. Clearing on the first write keeps traffic at one
// update per holder per write burst; holders expire remaining staleness
// on their own virtual clocks.
func (s *shard) closeLeasesLocked(req transport.MemRequest, newVal uint32, invals []transport.LeaseInval) []transport.LeaseInval {
	holders := s.leases[req.Addr]
	if len(holders) == 0 {
		return invals
	}
	delete(s.leases, req.Addr)
	for _, h := range holders {
		invals = append(invals, transport.LeaseInval{Dst: h, Addr: req.Addr, Value: newVal})
	}
	s.spare = append(s.spare, holders[:0])
	return invals
}

// reclaim deletes every word homed here in [lo, hi) and removes (and
// returns) the range's event-log entries, preserving the kept entries'
// relative order. Retiring a serve job's region through it keeps a
// long-running server's shard footprint bounded by the live jobs instead
// of growing with every job ever served. The returned events stay valid
// for SC checking: each still carries its Home and shard-local Seq, and
// the checker orders by those, not by log position.
func (s *shard) reclaim(lo, hi uint32) ([]Event, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	words := 0
	//em2:unordered-ok: pure filter — each key is tested and deleted independently, nothing observes the order
	for a := range s.mem {
		if a >= lo && a < hi {
			delete(s.mem, a)
			words++
		}
	}
	//em2:unordered-ok: pure filter — in-range lease records are dropped independently
	for a := range s.leases {
		if a >= lo && a < hi {
			delete(s.leases, a)
		}
	}
	var removed []Event
	kept := s.events[:0]
	for _, e := range s.events {
		if e.Addr >= lo && e.Addr < hi {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	// Zero the tail so removed entries are not pinned by the backing array.
	for i := len(kept); i < len(s.events); i++ {
		s.events[i] = Event{}
	}
	s.events = kept
	return removed, words
}

// gauges reports the shard's live footprint — words of backing memory and
// logged SC events — for the non-destructive sampling path. One lock-light
// pair of lengths, no copying.
func (s *shard) gauges() (words, events int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.mem)), int64(len(s.events))
}

// peek reads a word for post-run inspection.
func (s *shard) peek(addr uint32) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem[addr]
}

// imageInto copies the shard's words into dst; shards are address-disjoint
// (single home), so several can fill one map. Collection can overlap the
// tail of remote-request handler goroutines (their appends happen before
// the requester's next step, but that ordering crosses the wire, not this
// process's memory model), so the collect readers take the writers' mutex.
func (s *shard) imageInto(dst map[uint32]uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	maps.Copy(dst, s.mem)
}

// appendEvents appends the shard's event log to dst under the lock.
func (s *shard) appendEvents(dst []Event) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.events...)
}
