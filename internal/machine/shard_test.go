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

func (r *refShard) reclaim(lo, hi uint32) ([]Event, int) {
	in := func(a uint32) bool { return a >= lo && a < hi }
	words := 0
	for _, a := range slices.Sorted(maps.Keys(r.mem)) {
		if in(a) {
			delete(r.mem, a)
			words++
		}
	}
	maps.DeleteFunc(r.leases, func(a uint32, _ []geom.CoreID) bool { return in(a) })
	var removed, kept []Event
	for _, e := range r.events {
		if in(e.Addr) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.events = kept
	return removed, words
}

// FuzzShardApply runs random load/store/FAA/swap/reclaim/lease-grant
// sequences, preloads among them, on a shard and on refShard, and requires
// the two to agree on every reply, write-update list, logged event,
// lease-holder list, reclaimed range, footprint gauge and, at the end, on
// the memory image and event log every collect path copies out.
//
// After every step the shard's address bounds must cover every word,
// lease record and event it holds, since reclaim skips or empties a shard
// on their word alone.
//
// Input: one byte selecting event logging, then 8 bytes per step: op,
// address (low 6 bits a byte offset, so unaligned words share cache lines;
// top 2 bits one of four regions far apart, the last at the top of the
// address space, where a reclaim range can wrap to empty), a 4-byte value,
// a thread (a negative one is a preload), and a core (the lease holder, or
// for a reclaim the range length).
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
		4, 4, 0, 0, 0, 0, 0, 2, // reclaim [4, 6)
		0, 4, 0, 0, 0, 0, 1, 0, // read the reclaimed word
	})
	f.Add([]byte{0,
		1, 0x41, 1, 2, 3, 4, 0xff, 0, // preload write in region 1
		2, 0x41, 0xff, 0xff, 0xff, 0xff, 0, 0, // faa wraps
		5, 0x80, 0, 0, 0, 0, 1, 1,
		1, 0x80, 3, 0, 0, 0, 2, 0,
		4, 0x00, 0, 0, 0, 0, 0, 0xff,
	})
	// Reclaim's three cases: the whole footprint in range, a disjoint
	// range, and a partial overlap, whose walk tightens the bounds for the
	// whole-footprint reclaim that follows.
	f.Add([]byte{1,
		1, 4, 1, 0, 0, 0, 0, 0, // write at 4
		5, 8, 0, 0, 0, 0, 1, 2, // leased read at 8
		0, 12, 0, 0, 0, 0, 2, 0, // logged read at 12
		4, 0x41, 0, 0, 0, 0, 0, 0x3f, // disjoint: region 1
		4, 0, 0, 0, 0, 0, 0, 16, // whole: [0, 16)
		1, 4, 2, 0, 0, 0, 0, 0, // write at 4
		5, 40, 0, 0, 0, 0, 1, 3, // leased read at 40
		4, 0, 0, 0, 0, 0, 0, 16, // partial: [0, 16) keeps 40
		4, 2, 0, 0, 0, 0, 0, 30, // disjoint after the walk: [2, 32)
		4, 32, 0, 0, 0, 0, 0, 16, // whole again: [32, 48)
	})
	// A word at 0xFFFFFFFC and one at 0xFFFFFFFF, where an exclusive
	// bound addr+1 would wrap; a range past the top wraps to empty.
	f.Add([]byte{1,
		1, 0xfc, 7, 0, 0, 0, 0, 0, // write at 0xFFFFFFFC
		4, 0xf0, 0, 0, 0, 0, 0, 0x0f, // whole: [0xFFFFFFF0, 0xFFFFFFFF)
		1, 0xfc, 8, 0, 0, 0, 1, 0, // write at 0xFFFFFFFC
		1, 0xff, 9, 0, 0, 0, 2, 0, // write at 0xFFFFFFFF
		4, 0xf0, 0, 0, 0, 0, 0, 0x20, // wraps: an empty range
		4, 0xc0, 0, 0, 0, 0, 0, 0x3f, // partial: [0xFFFFFFC0, 0xFFFFFFFF)
		0, 0xff, 0, 0, 0, 0, 1, 0, // the kept word
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		const home = 3
		log := b[0]&1 == 1
		s := newShard(home, log)
		ref := &refShard{home: home, log: log, mem: map[uint32]uint32{}, leases: map[uint32][]geom.CoreID{}}
		for i, op := 0, b[1:]; len(op) >= 8; i, op = i+1, op[8:] {
			addr := uint32(op[1]&0x3f) + [4]uint32{0, 1 << 20, 2 << 20, 0xffffffc0}[op[1]>>6]
			arg := binary.LittleEndian.Uint32(op[2:])
			thread := int32(int8(op[6])) % 4
			if thread < 0 {
				thread = -1
			}
			if op[0]%6 == 4 {
				gotEv, gotW := s.reclaim(addr, addr+uint32(op[7]), nil)
				wantEv, wantW := ref.reclaim(addr, addr+uint32(op[7]))
				if gotW != wantW || !slices.Equal(gotEv, wantEv) {
					t.Fatalf("step %d reclaim [%#x, +%d): %d words, events %+v; reference %d, %+v", i, addr, op[7], gotW, gotEv, wantW, wantEv)
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
			if !maps.EqualFunc(s.leases, ref.leases, slices.Equal) {
				t.Fatalf("step %d: lease holders %v; reference %v", i, s.leases, ref.leases)
			}
			if w, e := s.gauges(); w != int64(len(ref.mem)) || e != int64(len(ref.events)) {
				t.Fatalf("step %d: gauges %d words %d events; reference %d, %d", i, w, e, len(ref.mem), len(ref.events))
			}
			held := slices.Collect(maps.Keys(ref.mem))
			held = slices.AppendSeq(held, maps.Keys(ref.leases))
			for _, e := range ref.events {
				held = append(held, e.Addr)
			}
			for _, a := range held {
				if a < s.lo || a > s.hi {
					t.Fatalf("step %d: shard holds %#x outside its bounds [%#x, %#x]", i, a, s.lo, s.hi)
				}
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
