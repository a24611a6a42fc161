package machine

import (
	"fmt"
	"slices"

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
// matter which transport carried the request, is serialized by the part's
// executor, the one goroutine that touches the shard.
type shard struct {
	home   geom.CoreID
	mem    store
	seq    int64
	log    bool
	events []Event
	// leases holds the read-lease records of the shard's words: nil when
	// the part's scheme grants no leases, so a write to a non-leasing
	// shard pays one nil compare for them.
	leases *leaseTable
}

func newShard(home geom.CoreID, log bool) shard {
	return shard{home: home, mem: newStore(), log: log}
}

// apply performs one memory request — the home-core serialization point
// — and logs it against (req.Thread, req.TSeq). A negative Thread marks a
// preload: applied, never logged. A write appends one write-update per
// lease holder of the word to invals, the caller's buffer, and returns it;
// the CALLER sends them, after the shard op.
func (s *shard) apply(req transport.MemRequest, invals []transport.LeaseInval) (transport.MemReply, []transport.LeaseInval) {
	var rep transport.MemReply
	e := Event{Addr: req.Addr}
	switch req.Op {
	case transport.OpRead:
		old := s.mem.get(req.Addr)
		e.Kind, e.Read = EvRead, old
		rep.Value = old
		if req.Lease != 0 {
			s.grant(req.Addr, geom.CoreID(req.From))
			rep.Lease = req.Lease
		}
	case transport.OpWrite:
		*s.mem.word(req.Addr) = req.Arg
		e.Kind, e.Wrote = EvWrite, req.Arg
		invals = s.closeLeases(req, req.Arg, invals)
	case transport.OpFAA:
		w := s.mem.word(req.Addr)
		old := *w
		*w = old + req.Arg
		e.Kind, e.Read, e.Wrote = EvRMW, old, old+req.Arg
		rep.Value = old
		invals = s.closeLeases(req, old+req.Arg, invals)
	case transport.OpSwap:
		w := s.mem.word(req.Addr)
		old := *w
		*w = req.Arg
		e.Kind, e.Read, e.Wrote = EvRMW, old, req.Arg
		rep.Value = old
		invals = s.closeLeases(req, req.Arg, invals)
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

// grant records core as a lease holder of addr. Only a leasing part's
// shard sees a grant: every part of a run resolves the same scheme.
func (s *shard) grant(addr uint32, core geom.CoreID) {
	h := s.leases.recs.word(addr)
	if *h == 0 {
		*h = s.leases.open()
	}
	holders := &s.leases.holders[*h-1]
	if !slices.Contains(*holders, core) {
		*holders = append(*holders, core)
	}
}

// closeLeases clears addr's lease record on a write and appends one
// write-update per holder core, in grant order, to invals — including the
// writer's own core: the writing thread's entry was already dropped by its
// own-write invalidation (Update then no-ops), but other threads resident
// there may still hold the word. Clearing on the first write keeps traffic
// at one update per holder per write burst; holders expire remaining
// staleness on their own virtual clocks.
func (s *shard) closeLeases(req transport.MemRequest, newVal uint32, invals []transport.LeaseInval) []transport.LeaseInval {
	if s.leases == nil {
		return invals
	}
	h := s.leases.recs.at(req.Addr)
	if h == nil || *h == 0 {
		return invals
	}
	for _, c := range s.leases.holders[*h-1] {
		invals = append(invals, transport.LeaseInval{Dst: c, Addr: req.Addr, Value: newVal})
	}
	s.leases.close(*h)
	*h = 0
	return invals
}

// drain empties the shard at a job's retire: it moves the event log onto
// dst, returning it, and clears every word and lease record. The machine
// holds one job at a time, so everything the shard holds is the retiring
// job's. seq keeps counting, so the drained events stay valid for SC
// checking: each still carries its Home and shard-local Seq, and the
// checker orders by those, not by log position.
func (s *shard) drain(dst []Event) []Event {
	dst = append(dst, s.events...)
	s.events = s.events[:0]
	s.mem.drain()
	if s.leases != nil {
		s.leases.drain()
	}
	return dst
}

// gauges reports the shard's live footprint — words of backing memory and
// logged SC events — for the non-destructive sampling path: a pair of
// lengths, no copying.
func (s *shard) gauges() (words, events int64) {
	return int64(s.mem.words()), int64(len(s.events))
}

// imageInto copies the shard's words into dst; shards are address-disjoint
// (single home), so several can fill one map.
func (s *shard) imageInto(dst map[uint32]uint32) {
	s.mem.imageInto(dst)
}

// appendEvents appends the shard's event log to dst.
func (s *shard) appendEvents(dst []Event) []Event {
	return append(dst, s.events...)
}

// store holds a home shard's words in one open-addressed table: a word's
// slot is the Fibonacci hash of its address, a collision probes the next
// slot, and the table doubles before the next word would pass 7/8 load.
// A word is never deleted alone — drain empties the table — so there are
// no tombstones. A slot keeps addr+1, 0 meaning empty, so every uint32
// stays an address: the one whose key would wrap, 0xFFFFFFFF, lives in a
// field of its own. A word exists once written, as in a map: a read of an
// unwritten address returns 0 and adds nothing.
type store struct {
	slots  []slot // a power of two long
	shift  uint   // 32 - log2(len(slots)): the hash's top bits pick the slot
	n      int    // words held in slots
	top    uint32 // the word at 0xFFFFFFFF
	hasTop bool
}

type slot struct{ k, v uint32 }

// newStore returns an empty store of 16 slots (2⁴, 128 bytes).
func newStore() store {
	return store{slots: make([]slot, 16), shift: 32 - 4}
}

// slotOf is addr's first probe slot.
func (s *store) slotOf(addr uint32) uint32 { return (addr * 0x9E3779B1) >> s.shift }

// get returns the word at addr, 0 when it was never written.
func (s *store) get(addr uint32) uint32 {
	if w := s.at(addr); w != nil {
		return *w
	}
	return 0
}

// at returns the word at addr for the caller to read and write, nil when
// it was never written. The pointer is valid until the next word or
// drain.
func (s *store) at(addr uint32) *uint32 {
	k := addr + 1
	if k == 0 {
		if s.hasTop {
			return &s.top
		}
		return nil
	}
	mask := uint32(len(s.slots) - 1)
	for i := s.slotOf(addr); ; i = (i + 1) & mask {
		switch s.slots[i].k {
		case k:
			return &s.slots[i].v
		case 0:
			return nil
		}
	}
}

// word returns the word at addr for the caller to read and write, adding
// it, zero, when it was never written. The pointer is valid until the
// next word or drain.
func (s *store) word(addr uint32) *uint32 {
	k := addr + 1
	if k == 0 {
		s.hasTop = true
		return &s.top
	}
	mask := uint32(len(s.slots) - 1)
	i := s.slotOf(addr)
	for ; s.slots[i].k != 0; i = (i + 1) & mask {
		if s.slots[i].k == k {
			return &s.slots[i].v
		}
	}
	if 8*(s.n+1) > 7*len(s.slots) {
		s.grow()
		return s.word(addr)
	}
	s.n++
	s.slots[i].k = k
	return &s.slots[i].v
}

// grow doubles the table and re-places every word.
func (s *store) grow() {
	old := s.slots
	s.slots, s.shift = make([]slot, 2*len(old)), s.shift-1
	mask := uint32(len(s.slots) - 1)
	for _, e := range old {
		if e.k == 0 {
			continue
		}
		i := s.slotOf(e.k - 1)
		for s.slots[i].k != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// words is how many words the store holds.
func (s *store) words() int {
	if s.hasTop {
		return s.n + 1
	}
	return s.n
}

// drain empties the store in place: the table keeps its capacity, so the
// next job refills it without allocating.
func (s *store) drain() {
	if s.n > 0 {
		clear(s.slots)
		s.n = 0
	}
	s.top, s.hasTop = 0, false
}

// imageInto copies every word into dst.
func (s *store) imageInto(dst map[uint32]uint32) {
	for _, e := range s.slots {
		if e.k != 0 {
			dst[e.k-1] = e.v
		}
	}
	if s.hasTop {
		dst[0xFFFFFFFF] = s.top
	}
}

// leaseTable is a home shard's read-lease records: recs maps an address to
// its record's handle, an index into holders plus one, and handle 0 means
// no open record. Closing a record writes 0 into recs, so recs needs no
// tombstones and drains in place like the word store. A record's holder
// list keeps grant order, which is the order of the write-updates. A
// closed record's handle goes on free with its list emptied, so a warm
// grant-write cycle allocates nothing.
type leaseTable struct {
	recs    store
	holders [][]geom.CoreID // by handle-1; emptied lists past len keep their arrays
	free    []uint32        // handles of closed records
}

func newLeaseTable() leaseTable { return leaseTable{recs: newStore()} }

// open returns the handle of a new, empty record.
func (t *leaseTable) open() uint32 {
	if n := len(t.free); n > 0 {
		h := t.free[n-1]
		t.free = t.free[:n-1]
		return h
	}
	if len(t.holders) < cap(t.holders) {
		t.holders = t.holders[:len(t.holders)+1] // an emptied list, array kept
	} else {
		t.holders = append(t.holders, nil)
	}
	return uint32(len(t.holders))
}

// close empties record h's holder list and frees h.
func (t *leaseTable) close(h uint32) {
	t.holders[h-1] = t.holders[h-1][:0]
	t.free = append(t.free, h)
}

// drain closes every record in place, keeping every array.
func (t *leaseTable) drain() {
	t.recs.drain()
	for i := range t.holders {
		t.holders[i] = t.holders[i][:0]
	}
	t.holders, t.free = t.holders[:0], t.free[:0]
}
