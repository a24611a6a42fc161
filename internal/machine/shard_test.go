package machine

import (
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/transport"
)

// refShard is the naive reference the shard is fuzzed against: one map of
// words, one of lease holders, one event list, no lock and no shortcuts.
// Every distinct byte address is its own word, aligned or not.
type refShard struct {
	home   geom.CoreID
	log    bool
	mem    map[uint32]uint32
	seq    int64
	events []Event
	leases map[uint32][]geom.CoreID
}

func (r *refShard) apply(req transport.MemRequest) (transport.MemReply, []transport.LeaseInval) {
	old := r.mem[req.Addr]
	r.seq++
	e := Event{Thread: int(req.Thread), TSeq: req.TSeq, Addr: req.Addr, Seq: r.seq, Home: r.home}
	var rep transport.MemReply
	var invals []transport.LeaseInval
	store := func(v uint32) {
		r.mem[req.Addr] = v
		for _, h := range r.leases[req.Addr] {
			invals = append(invals, transport.LeaseInval{Dst: h, Addr: req.Addr, Value: v})
		}
		delete(r.leases, req.Addr)
	}
	switch req.Op {
	case transport.OpRead:
		e.Kind, e.Read, rep.Value = EvRead, old, old
		if req.Lease != 0 {
			if !slices.Contains(r.leases[req.Addr], geom.CoreID(req.From)) {
				r.leases[req.Addr] = append(r.leases[req.Addr], geom.CoreID(req.From))
			}
			rep.Lease = req.Lease
		}
	case transport.OpWrite:
		e.Kind, e.Wrote = EvWrite, req.Arg
		store(req.Arg)
	case transport.OpFAA:
		e.Kind, e.Read, e.Wrote, rep.Value = EvRMW, old, old+req.Arg, old
		store(old + req.Arg)
	case transport.OpSwap:
		e.Kind, e.Read, e.Wrote, rep.Value = EvRMW, old, req.Arg, old
		store(req.Arg)
	}
	if r.log && req.Thread >= 0 {
		r.events = append(r.events, e)
	}
	return rep, invals
}

// leasingShard returns a shard of a part whose scheme grants leases.
func leasingShard(home geom.CoreID, log bool) shard {
	s, t := newShard(home, log), newLeaseTable()
	s.leases = &t
	return s
}

// records returns the table's open records, address to holders in grant
// order.
func (t *leaseTable) records() map[uint32][]geom.CoreID {
	recs := map[uint32][]geom.CoreID{}
	if t == nil {
		return recs
	}
	handles := map[uint32]uint32{}
	t.recs.imageInto(handles)
	//em2:unordered-ok: builds a map; the order decides nothing
	for addr, h := range handles {
		if h != 0 {
			recs[addr] = t.holders[h-1]
		}
	}
	return recs
}

func (r *refShard) drain() []Event {
	drained := r.events
	r.events = nil
	clear(r.mem)
	clear(r.leases)
	return drained
}

// FuzzShardApply runs random load/store/FAA/swap/drain/lease-grant
// sequences, preloads among them, on a shard and on refShard, and requires
// the two to agree on every reply, write-update list, logged event,
// lease-holder list, drained log, footprint gauge and, at the end, on the
// memory image and event log every collect path copies out. A drain keeps
// the shard's seq, so events logged after it keep counting.
//
// Input: one byte selecting event logging, then 8 bytes per step: op,
// address (low 6 bits a byte offset, so unaligned words share cache lines;
// top 2 bits one of four regions far apart, the last at the top of the
// address space), a 4-byte value, a thread (a negative one is a preload),
// and a core (the lease holder).
func FuzzShardApply(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{1,
		1, 4, 7, 0, 0, 0, 0, 0, // write 7 at 4
		5, 4, 0, 0, 0, 0, 1, 2, // leased read at 4 by core 2
		5, 4, 0, 0, 0, 0, 2, 3, // leased read at 4 by core 3
		5, 4, 0, 0, 0, 0, 2, 2, // core 2 again: no second record
		2, 4, 5, 0, 0, 0, 1, 0, // faa 5: two write-updates
		1, 4, 9, 0, 0, 0, 2, 0, // overwrite 12: a write replies 0
		3, 5, 9, 0, 0, 0, 3, 0, // swap at the unaligned 5
		0, 5, 0, 0, 0, 0, 0xff, 0, // preload read
		4, 0, 0, 0, 0, 0, 0, 0, // drain
		0, 4, 0, 0, 0, 0, 1, 0, // read the drained word
	})
	f.Add([]byte{0,
		1, 0x41, 1, 2, 3, 4, 0xff, 0, // preload write in region 1
		2, 0x41, 0xff, 0xff, 0xff, 0xff, 0, 0, // faa wraps
		5, 0x80, 0, 0, 0, 0, 1, 1,
		1, 0x80, 3, 0, 0, 0, 2, 0,
		4, 0, 0, 0, 0, 0, 0, 0, // drain an unlogged shard
	})
	// Words, lease records and events in all four regions, the last at
	// the top of the address space, drained together; then a drain of an
	// empty shard, and a leased read and a write after it, which must owe
	// no update to a holder the drain forgot.
	f.Add([]byte{1,
		1, 4, 1, 0, 0, 0, 0, 0, // write at 4
		5, 0x48, 0, 0, 0, 0, 1, 2, // leased read in region 1
		0, 0x8c, 0, 0, 0, 0, 2, 0, // logged read in region 2
		1, 0xff, 9, 0, 0, 0, 2, 0, // write at 0xFFFFFFFF
		5, 0xfc, 0, 0, 0, 0, 1, 3, // leased read at 0xFFFFFFFC
		4, 0, 0, 0, 0, 0, 0, 0, // drain
		4, 0, 0, 0, 0, 0, 0, 0, // drain again: nothing left
		5, 4, 0, 0, 0, 0, 1, 1, // leased read at 4
		1, 0x48, 2, 0, 0, 0, 0, 0, // write in region 1: no update
		1, 4, 3, 0, 0, 0, 0, 0, // write at 4: one update
	})
	// The shard's seq survives a drain: the events logged after it number
	// on from the drained ones, as the SC checker's (Home, Seq) order
	// needs across a session's jobs.
	f.Add([]byte{1,
		1, 8, 1, 0, 0, 0, 0, 0, // logged write at 8
		2, 8, 1, 0, 0, 0, 1, 0, // logged faa at 8
		4, 0, 0, 0, 0, 0, 0, 0, // drain
		0, 8, 0, 0, 0, 0, 2, 0, // logged read of the drained word: 0
		3, 8, 5, 0, 0, 0, 2, 0, // logged swap
	})
	// Record reuse: many grant→write cycles on one address, beside a
	// second record that closes less often, recycle the same handles and
	// holder lists; each write's updates must stay in grant order.
	cycles := []byte{1}
	for i := range byte(24) {
		cycles = append(cycles,
			5, 4, 0, 0, 0, 0, 1, i+1, // leased read at 4
			5, 4, 0, 0, 0, 0, 1, i, // a second holder, granted after
			5, 8, 0, 0, 0, 0, 2, i+2, // leased read at 8
			1, 4, i, 0, 0, 0, 1, 0, // write at 4: two updates
		)
		if i%3 == 2 {
			cycles = append(cycles, 2, 8, 1, 0, 0, 0, 2, 0) // faa at 8
		}
	}
	f.Add(cycles)
	// Lease records at 0xFFFFFFFF, the word the store keeps apart.
	f.Add([]byte{1,
		5, 0xff, 0, 0, 0, 0, 1, 2, // leased read at 0xFFFFFFFF by core 2
		5, 0xff, 0, 0, 0, 0, 1, 3, // and by core 3
		2, 0xff, 1, 0, 0, 0, 1, 0, // faa: two updates
		5, 0xff, 0, 0, 0, 0, 2, 1, // a new record
		5, 0xfe, 0, 0, 0, 0, 2, 0, // beside one at 0xFFFFFFFE
		3, 0xff, 7, 0, 0, 0, 2, 0, // swap: one update
		1, 0xfe, 7, 0, 0, 0, 2, 0, // write: one update
	})
	// Grants across a drain: records the drain closed owe nothing, and
	// records opened after it reuse the drained lists.
	f.Add([]byte{1,
		5, 4, 0, 0, 0, 0, 1, 1, // leased read at 4 by core 1
		5, 8, 0, 0, 0, 0, 1, 2, // leased read at 8 by core 2
		5, 8, 0, 0, 0, 0, 1, 3, // and by core 3
		4, 0, 0, 0, 0, 0, 0, 0, // drain
		5, 8, 0, 0, 0, 0, 1, 3, // leased read at 8 by core 3
		5, 12, 0, 0, 0, 0, 1, 1, // leased read at 12 by core 1
		5, 8, 0, 0, 0, 0, 1, 0, // leased read at 8 by core 0
		1, 8, 5, 0, 0, 0, 1, 0, // write at 8: cores 3, 0
		1, 4, 5, 0, 0, 0, 1, 0, // write at 4: none
		1, 12, 5, 0, 0, 0, 1, 0, // write at 12: core 1
		4, 0, 0, 0, 0, 0, 0, 0, // drain
		5, 4, 0, 0, 0, 0, 1, 2, // leased read at 4 by core 2
		1, 4, 6, 0, 0, 0, 1, 0, // write at 4: core 2
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		const home = 3
		log := b[0]&1 == 1
		s := leasingShard(home, log)
		ref := &refShard{home: home, log: log, mem: map[uint32]uint32{}, leases: map[uint32][]geom.CoreID{}}
		for i, op := 0, b[1:]; len(op) >= 8; i, op = i+1, op[8:] {
			addr := uint32(op[1]&0x3f) + [4]uint32{0, 1 << 20, 2 << 20, 0xffffffc0}[op[1]>>6]
			arg := binary.LittleEndian.Uint32(op[2:])
			thread := int32(int8(op[6])) % 4
			if thread < 0 {
				thread = -1
			}
			if op[0]%6 == 4 {
				if got, want := s.drain(nil), ref.drain(); !slices.Equal(got, want) {
					t.Fatalf("step %d drain: events %+v; reference %+v", i, got, want)
				}
			} else {
				req := transport.MemRequest{Thread: thread, TSeq: int64(i), Addr: addr, Arg: arg, From: uint32(op[7] % 4)}
				switch op[0] % 6 {
				case 1:
					req.Op = transport.OpWrite
				case 2:
					req.Op = transport.OpFAA
				case 3:
					req.Op = transport.OpSwap
				case 5:
					req.Lease = 64 // a leased read
				}
				gotRep, gotInv := s.apply(req, nil)
				wantRep, wantInv := ref.apply(req)
				if gotRep != wantRep || !slices.Equal(gotInv, wantInv) {
					t.Fatalf("step %d %+v: reply %+v updates %+v; reference %+v, %+v", i, req, gotRep, gotInv, wantRep, wantInv)
				}
			}
			if !slices.Equal(s.events, ref.events) {
				t.Fatalf("step %d: event log %+v; reference %+v", i, s.events, ref.events)
			}
			if recs := s.leases.records(); !maps.EqualFunc(recs, ref.leases, slices.Equal) {
				t.Fatalf("step %d: lease holders %v; reference %v", i, recs, ref.leases)
			}
			if w, e := s.gauges(); w != int64(len(ref.mem)) || e != int64(len(ref.events)) {
				t.Fatalf("step %d: gauges %d words %d events; reference %d, %d", i, w, e, len(ref.mem), len(ref.events))
			}
		}
		mem := map[uint32]uint32{}
		s.imageInto(mem)
		if !maps.Equal(mem, ref.mem) {
			t.Fatalf("image %v; reference %v", mem, ref.mem)
		}
		if events := s.appendEvents(nil); !slices.Equal(events, ref.events) {
			t.Fatalf("collected events %+v; reference %+v", events, ref.events)
		}
	})
}

// FuzzWordStore runs random write/read/add/dense-run/drain sequences on a
// store and on a map, and requires the two to agree after every step on
// the step's word, the word count and the whole image, and the table to
// stay within 7/8 load. A drain must leave nothing, keep the table's
// capacity, and take back every drained word when it is written again.
//
// Input: 8 bytes per step: op, address mode, a 4-byte x and a 2-byte arg.
// The mode picks x as it is (unaligned, 0xFFFFFFFF), its low byte times a
// large power of two, a small aligned address, or one of the top 256
// addresses. A dense run writes arg%8192 consecutive aligned words from
// the address, wrapping at the top, enough to grow the table past 4 096
// slots. An input runs at most 64 steps, and a dense run is skipped once
// the store holds 8 192 words, so every input checks in milliseconds.
func FuzzWordStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		0, 0, 0xff, 0xff, 0xff, 0xff, 7, 0, // write 7 at 0xFFFFFFFF
		0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, // write 0 at 0xFFFFFFFE: a word all the same
		3, 2, 0, 0, 0, 0, 0xa0, 0x0f, // dense run of 4000 words from 0
		2, 2, 4, 0, 0, 0, 1, 0, // add 1 at 16
		4, 0, 0, 0, 0, 0, 0, 0, // drain and refill
		1, 3, 0, 0, 0, 0, 0, 0, // read 0xFFFFFFFF
	})
	f.Add([]byte{
		0, 0x01, 1, 0, 0, 0, 1, 0, // write 1 at 1<<16
		0, 0x3d, 1, 0, 0, 0, 2, 0, // write 2 at 1<<31
		0, 0x3d, 3, 0, 0, 0, 3, 0, // write 3 at 3<<31 = 1<<31 (wraps)
		0, 0x39, 2, 0, 0, 0, 4, 0, // write 4 at 2<<30 = 1<<31
		3, 3, 0, 0, 0, 0, 0x40, 0, // dense run of 64 across the top
		4, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0, 0, 0, 0, 0, // drain an empty-again store
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, ref, img := newStore(), map[uint32]uint32{}, map[uint32]uint32{}
		check := func(step int, addr uint32) {
			t.Helper()
			if 8*s.n > 7*len(s.slots) {
				t.Fatalf("step %d: %d words in %d slots, above 7/8 load", step, s.n, len(s.slots))
			}
			if s.words() != len(ref) {
				t.Fatalf("step %d: %d words; reference %d", step, s.words(), len(ref))
			}
			if got, want := s.get(addr), ref[addr]; got != want {
				t.Fatalf("step %d: get(%#x) = %d; reference %d", step, addr, got, want)
			}
			clear(img)
			s.imageInto(img)
			//em2:unordered-ok: every word is checked; the order picks only which mismatch is reported
			for a, v := range ref {
				if w, ok := img[a]; !ok || w != v {
					t.Fatalf("step %d: image of %d words holds %#x: %d (%v); reference %d", step, len(img), a, w, ok, v)
				}
			}
			if len(img) != len(ref) {
				t.Fatalf("step %d: image of %d words; reference %d", step, len(img), len(ref))
			}
		}
		for i, op := 0, b; len(op) >= 8 && i < 64; i, op = i+1, op[8:] {
			x := binary.LittleEndian.Uint32(op[2:])
			arg := uint32(binary.LittleEndian.Uint16(op[6:]))
			var addr uint32
			switch op[1] % 4 {
			case 0:
				addr = x
			case 1:
				addr = x & 0xff << (16 + op[1]>>2%16)
			case 2:
				addr = x & 0x3ff * 4
			case 3:
				addr = 0xffffffff - x&0xff
			}
			switch op[0] % 5 {
			case 0:
				*s.word(addr) = arg
				ref[addr] = arg
			case 2:
				*s.word(addr) += arg
				ref[addr] += arg
			case 3:
				if len(ref) >= 1<<13 {
					break
				}
				for j := range arg % 8192 {
					a := addr + 4*j
					*s.word(a) = j
					ref[a] = j
				}
			case 4:
				held, slots := maps.Clone(ref), len(s.slots)
				s.drain()
				clear(ref)
				check(i, addr)
				//em2:unordered-ok: every drained word is checked; the order picks only which is reported
				for a := range held {
					if s.get(a) != 0 {
						t.Fatalf("step %d: drained word %#x reads %d", i, a, s.get(a))
					}
				}
				if len(s.slots) != slots {
					t.Fatalf("step %d: drain left %d slots of %d", i, len(s.slots), slots)
				}
				for _, a := range slices.Sorted(maps.Keys(held)) {
					*s.word(a) = held[a]
					ref[a] = held[a]
				}
			}
			check(i, addr)
		}
		//em2:unordered-ok: every word is checked; the order picks only which mismatch is reported
		for a, v := range ref {
			if s.get(a) != v {
				t.Fatalf("end: get(%#x) = %d; reference %d", a, s.get(a), v)
			}
		}
	})
}

// TestShardRefillZeroAlloc: a drain keeps the shard's tables and event
// log, so the next job refills them to the same size without allocating —
// here 4 097 words, a table of 8 192 slots, the top word included, and on
// a leasing shard 64 lease records of two holders each, a write closing
// half of them.
func TestShardRefillZeroAlloc(t *testing.T) {
	t.Parallel()
	s := leasingShard(0, true)
	fill := func() {
		for a := uint32(0); a < 4096; a++ {
			s.apply(transport.MemRequest{Op: transport.OpWrite, Addr: 4 * a, Arg: a, TSeq: int64(a)}, nil)
		}
		s.apply(transport.MemRequest{Op: transport.OpFAA, Addr: 0xFFFFFFFF, Arg: 1}, nil)
		var buf [2]transport.LeaseInval
		for a := uint32(0); a < 64; a++ {
			for from := range uint32(2) {
				s.apply(transport.MemRequest{Op: transport.OpRead, Addr: 4 * a, From: from, Lease: 8}, nil)
			}
			if a%2 == 0 {
				if _, inv := s.apply(transport.MemRequest{Op: transport.OpWrite, Addr: 4 * a}, buf[:0]); len(inv) != 2 {
					t.Fatalf("a write to a word of two holders sent %d updates", len(inv))
				}
			}
		}
	}
	fill()
	words, events := s.gauges()
	records := len(s.leases.records())
	var drained []Event
	drained = s.drain(drained)
	if w, e := s.gauges(); w != 0 || e != 0 || len(s.leases.records()) != 0 {
		t.Fatalf("after the drain: %d words, %d events, %v lease records; want none", w, e, s.leases.records())
	}
	refill := func() {
		fill()
		if w, e := s.gauges(); w != words || e != events {
			t.Fatalf("refilled to %d words, %d events; want %d, %d", w, e, words, events)
		}
		drained = s.drain(drained[:0])
	}
	if n := testing.AllocsPerRun(10, refill); n != 0 {
		t.Errorf("refilling a drained shard to %d words and %d lease records: %.1f allocs, want 0", words, records, n)
	}
}
