package core

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// refLease is the naive reference for LeaseCache: a map of held words and
// a recency list, least recently used first.
type refLease struct {
	entries int
	window  uint64
	order   []trace.Addr
	val     map[trace.Addr]uint32
	exp     map[trace.Addr]uint64
}

func newRefLease(entries int, window uint64) *refLease {
	return &refLease{entries: entries, window: window, val: map[trace.Addr]uint32{}, exp: map[trace.Addr]uint64{}}
}

func (r *refLease) forget(a trace.Addr) {
	delete(r.val, a)
	delete(r.exp, a)
	r.order = slices.DeleteFunc(r.order, func(x trace.Addr) bool { return x == a })
}

func (r *refLease) touch(a trace.Addr) {
	r.order = append(slices.DeleteFunc(r.order, func(x trace.Addr) bool { return x == a }), a)
}

func (r *refLease) fill(a trace.Addr, v uint32, now uint64) {
	if _, ok := r.val[a]; !ok && len(r.val) == r.entries {
		r.forget(r.order[0])
	}
	r.val[a], r.exp[a] = v, now+r.window
	r.touch(a)
}

func (r *refLease) lookup(a trace.Addr, now uint64) (uint32, bool) {
	v, ok := r.val[a]
	if !ok {
		return 0, false
	}
	if now > r.exp[a] {
		r.forget(a)
		return 0, false
	}
	r.touch(a)
	return v, true
}

// FuzzLeaseCache drives LeaseCache and the naive reference with the same
// operation stream — each input byte pair is one operation on one of a
// few (possibly unaligned) addresses — and requires identical answers and
// sizes after every operation: same hits, values, expiries and LRU
// victims.
func FuzzLeaseCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 8, 1, 0, 0, 12, 1, 4, 1, 8})
	// Capacity: fill four words, touch the oldest, fill a fifth — the
	// second-oldest is the victim.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 0, 4, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4})
	f.Add([]byte{0, 1, 0, 5, 2, 1, 3, 5, 4, 1, 5, 0, 0, 9, 1, 9, 6, 0, 1, 1})
	f.Add([]byte{0, 2, 7, 0, 7, 0, 7, 0, 1, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		const entries, window = 4, 6
		c, r := NewLeaseCache(entries, window), newRefLease(entries, window)
		now := uint64(0)
		for i := 0; i+1 < len(b); i += 2 {
			op, a := b[i]%6, trace.Addr(b[i+1]%12)
			now += uint64(b[i] >> 6) // the holder's own-op count only grows
			v := uint32(b[i+1]) << 8
			switch op {
			case 0:
				c.Fill(a, v, now)
				r.fill(a, v, now)
			case 1:
				gv, gok := c.Lookup(a, now)
				wv, wok := r.lookup(a, now)
				if gv != wv || gok != wok {
					t.Fatalf("op %d: Lookup(%d, %d) = %d, %v; reference %d, %v", i/2, a, now, gv, gok, wv, wok)
				}
			case 2:
				_, held := r.val[a]
				if held {
					r.val[a] = v
				}
				if got := c.Update(a, v); got != held {
					t.Fatalf("op %d: Update(%d) = %v, reference %v", i/2, a, got, held)
				}
			case 3:
				_, held := r.val[a]
				r.forget(a)
				if got := c.InvalidateOwn(a); got != held {
					t.Fatalf("op %d: InvalidateOwn(%d) = %v, reference %v", i/2, a, got, held)
				}
			case 4:
				c.DropAll()
				*r = *newRefLease(entries, window)
			case 5:
				c.Reset()
				*r = *newRefLease(entries, window)
			}
			if c.Len() != len(r.val) {
				t.Fatalf("op %d: Len %d, reference %d", i/2, c.Len(), len(r.val))
			}
		}
	})
}
