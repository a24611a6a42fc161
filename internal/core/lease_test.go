package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/trace"
)

// TestLeaseExpiryBoundary pins the exact expiry arithmetic the
// runtime==model contract depends on: a fill at own-op count m serves
// cached reads while now <= m+window, and the first probe past the
// boundary misses AND removes the entry.
func TestLeaseExpiryBoundary(t *testing.T) {
	const window = 4
	c := NewLeaseCache(8, window)
	c.Fill(100, 42, 10) // expire = 14

	for now := uint64(10); now <= 14; now++ {
		if v, ok := c.Lookup(100, now); !ok || v != 42 {
			t.Fatalf("Lookup(now=%d) = %d, %v; want 42 hit", now, v, ok)
		}
	}
	if _, ok := c.Lookup(100, 15); ok {
		t.Error("Lookup one past the boundary hit; the boundary is inclusive of expire only")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry not removed by the missing Lookup: Len = %d", c.Len())
	}
	// A re-fill after expiry restarts the window from the new fill time.
	c.Fill(100, 43, 20)
	if v, ok := c.Lookup(100, 24); !ok || v != 43 {
		t.Errorf("re-filled Lookup = %d, %v; want 43 hit at new expire", v, ok)
	}
}

// TestLeaseOwnWriteAndForeignUpdate pins the two write behaviors: the
// holder's own write removes the entry (counted), a foreign write-update
// replaces the value in place without touching presence or expiry.
func TestLeaseOwnWriteAndForeignUpdate(t *testing.T) {
	c := NewLeaseCache(4, 10)
	c.Fill(4, 7, 0)

	// Foreign update: value replaced, expiry untouched, still present.
	if !c.Update(4, 9) {
		t.Fatal("Update missed a held entry")
	}
	if v, ok := c.Lookup(4, 10); !ok || v != 9 {
		t.Fatalf("after update Lookup = %d, %v; want 9 at the original expiry", v, ok)
	}
	// Foreign update of an unheld word never installs anything.
	if c.Update(16, 1) {
		t.Error("Update installed an entry on miss")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after missed update, want 1", c.Len())
	}

	// Own write: removed, and the removal is reported for the counter.
	if !c.InvalidateOwn(4) {
		t.Error("InvalidateOwn missed a held entry")
	}
	if c.InvalidateOwn(4) {
		t.Error("InvalidateOwn reported a removal twice")
	}
	if _, ok := c.Lookup(4, 1); ok {
		t.Error("entry survived its holder's own write")
	}
}

// TestLeaseCapacityLRU: filling past capacity evicts the least recently
// used entry deterministically.
func TestLeaseCapacityLRU(t *testing.T) {
	c := NewLeaseCache(2, 100)
	c.Fill(0, 10, 0)
	c.Fill(4, 11, 0)
	c.Lookup(0, 1) // touch 0: 4 becomes LRU
	c.Fill(8, 12, 2)
	if _, ok := c.Lookup(4, 3); ok {
		t.Error("LRU entry 4 survived a capacity fill")
	}
	if v, ok := c.Lookup(0, 3); !ok || v != 10 {
		t.Errorf("recently-used entry 0 evicted: Lookup = %d, %v", v, ok)
	}
	if v, ok := c.Lookup(8, 3); !ok || v != 12 {
		t.Errorf("fresh fill lost: Lookup = %d, %v", v, ok)
	}
}

// TestLeaseLookupHitZeroAlloc pins the read hot path every cached remote
// read under cached-remote or hybrid pays — tag probe, virtual-time expiry
// check, LRU touch at a valid lease — at zero allocations.
func TestLeaseLookupHitZeroAlloc(t *testing.T) {
	const entries = 64
	c := NewLeaseCache(entries, 1<<15)
	for i := 0; i < entries; i++ {
		c.Fill(cache.Addr(i*64), uint32(i), 0)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if v, ok := c.Lookup(cache.Addr(i%entries*64), 1); !ok || v != uint32(i%entries) {
			t.Fatalf("Lookup %d = %d, %v; want a hit", i, v, ok)
		}
		i++
	}); n != 0 {
		t.Errorf("LeaseCache.Lookup hit: %.0f allocs, want 0", n)
	}
	if c.Len() != entries {
		t.Errorf("hit loop changed occupancy: %d entries, want %d", c.Len(), entries)
	}
}

// TestLeaseDropAll covers the departure removal.
func TestLeaseDropAll(t *testing.T) {
	c := NewLeaseCache(8, 100)
	for _, a := range []cache.Addr{0, 64, 128, 192} {
		c.Fill(a, uint32(a), 0)
	}
	c.DropAll()
	if c.Len() != 0 {
		t.Errorf("DropAll left %d entries", c.Len())
	}
	// The tag store was reset too: a full set of fresh fills must not
	// evict against stale tags.
	c.Fill(0, 1, 0)
	if v, ok := c.Lookup(0, 1); !ok || v != 1 {
		t.Errorf("fill after DropAll: Lookup = %d, %v", v, ok)
	}
}

// TestLeaseCacheResetMatchesNew: a reused context slot resets its lease
// cache on every arrival instead of building a new one, so a Reset cache
// dirtied by any mix of Fill/Lookup/Update/InvalidateOwn must answer every
// later op sequence exactly as a NewLeaseCache does.
func TestLeaseCacheResetMatchesNew(t *testing.T) {
	const entries, window = 4, 8
	rng := rand.New(rand.NewSource(1))
	// op applies one random operation and returns what it observed.
	type op struct {
		kind  int
		addr  cache.Addr
		value uint32
		now   uint64
	}
	apply := func(c *LeaseCache, o op) [2]uint32 {
		switch o.kind {
		case 0:
			c.Fill(o.addr, o.value, o.now)
		case 1:
			v, ok := c.Lookup(o.addr, o.now)
			return [2]uint32{v, b2u(ok)}
		case 2:
			return [2]uint32{0, b2u(c.Update(o.addr, o.value))}
		case 3:
			return [2]uint32{0, b2u(c.InvalidateOwn(o.addr))}
		}
		return [2]uint32{uint32(c.Len())}
	}
	randOps := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{kind: rng.Intn(5), addr: cache.Addr(4 * rng.Intn(8)), value: rng.Uint32(), now: uint64(i / 2)}
		}
		return ops
	}
	for trial := 0; trial < 200; trial++ {
		dirty := NewLeaseCache(entries, window)
		for _, o := range randOps(rng.Intn(40)) {
			apply(dirty, o)
		}
		dirty.Reset()
		fresh := NewLeaseCache(entries, window)
		// Stale tags would be invisible to the ops below (LRU evicts them
		// first), so the state itself is compared too.
		if !reflect.DeepEqual(dirty, fresh) {
			t.Fatalf("trial %d: reset cache state differs from a new cache's", trial)
		}
		for i, o := range randOps(40) {
			if got, want := apply(dirty, o), apply(fresh, o); got != want {
				t.Fatalf("trial %d op %d %+v: reset cache %v, new cache %v", trial, i, o, got, want)
			}
		}
		if dirty.Len() != fresh.Len() || dirty.Window() != fresh.Window() {
			t.Fatalf("trial %d: reset cache Len %d Window %d, new %d %d", trial, dirty.Len(), dirty.Window(), fresh.Len(), fresh.Window())
		}
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// TestCachedRemoteDecide pins the stateless pure-caching predictor:
// writes are remote, a read (always a lease miss: a hit never reaches
// the scheme) requests a lease; it never migrates.
func TestCachedRemoteDecide(t *testing.T) {
	s := NewCachedRemote()
	if s.Name() != "cached-remote" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.LeaseWindow() != DefaultLeaseWindow {
		t.Errorf("default window = %d", s.LeaseWindow())
	}
	if (CachedRemote{Window: 8}).LeaseWindow() != 8 {
		t.Error("explicit window ignored")
	}
	p := s.NewPredictor(0)
	mk := func(addr trace.Addr, write bool) AccessInfo {
		var info AccessInfo
		info.Access.Addr = addr
		info.Access.Write = write
		return info
	}
	if d := p.Decide(mk(64, true)); d != RemoteAccess {
		t.Errorf("write decided %v, want remote-access", d)
	}
	if d := p.Decide(mk(128, false)); d != RemoteReadCached {
		t.Errorf("read miss decided %v, want remote-read-cached", d)
	}
	if p.StateLen() != 0 {
		t.Errorf("stateless predictor carries %d state bytes", p.StateLen())
	}
}

// TestHybridDecideAndState: a read miss requests a lease, writes delegate to
// the embedded history predictor, and the wire state is exactly the
// history state (fixed-size, round-trips through Append/Set).
func TestHybridDecideAndState(t *testing.T) {
	h := NewHybrid(16)
	if h.Name() != "hybrid:16" {
		t.Errorf("Name = %q", h.Name())
	}
	if NewHybrid(0).LeaseWindow() != DefaultLeaseWindow {
		t.Error("zero window did not default")
	}
	p := h.NewPredictor(0)
	mk := func(addr trace.Addr, write bool) AccessInfo {
		info := AccessInfo{Home: 1}
		info.Access.Addr = addr
		info.Access.Write = write
		return info
	}
	if d := p.Decide(mk(128, false)); d != RemoteReadCached {
		t.Errorf("read miss decided %v, want remote-read-cached", d)
	}
	// Writes follow the history predictor: a long enough observed run to
	// one home must flip the write decision to Migrate.
	wrote := p.Decide(mk(64, true))
	if wrote != RemoteAccess && wrote != Migrate {
		t.Fatalf("write decided %v, want a history decision", wrote)
	}
	for i := 0; i < 8; i++ {
		p.Observe(geom.CoreID(1), 64)
	}
	p.Observe(geom.CoreID(0), 1<<20) // end the run so the table records it
	if d := p.Decide(mk(64, true)); d != Migrate {
		t.Errorf("write after a run of same-home observations decided %v, want migrate", d)
	}

	// State round-trip: hybrid state == history state, byte for byte.
	hist := NewHistory(DefaultHybridMinRun).NewPredictor(0)
	if p.StateLen() != hist.StateLen() {
		t.Fatalf("hybrid state %d bytes, history state %d", p.StateLen(), hist.StateLen())
	}
	b := p.AppendState(nil)
	if len(b) != p.StateLen() {
		t.Fatalf("AppendState wrote %d bytes, StateLen says %d", len(b), p.StateLen())
	}
	fresh := h.NewPredictor(0)
	if err := fresh.SetState(b); err != nil {
		t.Fatal(err)
	}
	if got := fresh.AppendState(nil); string(got) != string(b) {
		t.Error("state did not round-trip")
	}
}
