package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/trace"
)

// This file is the lease layer shared by the trace-model oracle
// (Engine) and the concurrent runtime (internal/machine): a small
// per-thread read cache for remote words, valid for a bounded window of
// the owning thread's own memory operations. Using the same LeaseCache
// on both sides is what makes runtime==model exact for the caching
// schemes — hit/miss/invalidate sequences are pure functions of each
// thread's own access stream, so the oracle replays them bit-for-bit.
//
// Determinism ground rules (DESIGN.md §10):
//
//   - The expiry clock is virtual: the holder thread's own completed
//     memory-operation count (runtime memSeq / trace access index). No
//     wall clock, no shared clock.
//   - A foreign write never removes a holder's entry — removal timing
//     would depend on message scheduling and make hit counts
//     nondeterministic. Foreign writes *update* the cached value in
//     place (write-update, not write-invalidate).
//   - Entries are removed only by events in the holder's own stream:
//     window expiry, the holder's own write to a held word, capacity
//     eviction, and migration/eviction departure.

// Lease defaults: a 16-entry fully-associative word cache with a
// 64-own-ops validity window — a plausible hardware budget next to the
// history predictor's 170-byte table.
const (
	DefaultLeaseWindow  = 64
	DefaultLeaseEntries = 16
)

// Leaser is implemented by schemes whose reads go through the lease
// cache. The engine and the runtime consult it to size the per-thread
// caches, and they serve every read of a validly leased word from the
// lease before the scheme is asked: Decide sees only lease misses and
// writes, and a Leaser answers a read miss with RemoteReadCached.
type Leaser interface {
	// LeaseWindow is the validity window in holder memory operations: a
	// word filled when the thread had completed m operations serves
	// cached reads while the thread's completed count is <= m+window.
	LeaseWindow() uint64
}

// leaseEnt is one cached word: its address, value, the last own-op count
// at which it may still be served, and the use stamp of its last fill or
// hit.
type leaseEnt struct {
	addr   trace.Addr
	value  uint32
	expire uint64
	used   uint64
}

// LeaseCache is one thread's lease cache: a word-granular,
// fully-associative, true-LRU store of the held words' values and
// expiries. It is not safe for concurrent use; in the runtime only the
// executor of the part its thread resides on touches it.
type LeaseCache struct {
	// ents holds one entry per held word, in no particular order, and its
	// capacity is the cache's entry count. It is a slice, not a map: at a
	// handful of entries a scan beats hashing on every probe, and the probe
	// runs on every remote-homed access.
	ents []leaseEnt
	// clock stamps each fill and hit; the entry with the oldest stamp is
	// the least recently used.
	clock  uint64
	window uint64
}

// NewLeaseCache builds a cache with the given entry count and validity
// window (zero values take the defaults).
func NewLeaseCache(entries int, window uint64) *LeaseCache {
	if entries <= 0 {
		entries = DefaultLeaseEntries
	}
	if window == 0 {
		window = DefaultLeaseWindow
	}
	return &LeaseCache{ents: make([]leaseEnt, 0, entries), window: window}
}

// Window returns the validity window.
func (c *LeaseCache) Window() uint64 { return c.window }

// Len returns the number of held leases (for invariant checks).
func (c *LeaseCache) Len() int { return len(c.ents) }

// find returns the index of addr's entry, or -1.
func (c *LeaseCache) find(addr trace.Addr) int {
	for i := range c.ents {
		if c.ents[i].addr == addr {
			return i
		}
	}
	return -1
}

// Lookup serves a cached read at own-op count now: on a valid entry it
// returns the value and stamps the entry used; an expired entry is
// removed and misses. The hit path is allocation-free.
func (c *LeaseCache) Lookup(addr trace.Addr, now uint64) (uint32, bool) {
	i := c.find(addr)
	if i < 0 {
		return 0, false
	}
	if now > c.ents[i].expire {
		c.drop(i)
		return 0, false
	}
	c.clock++
	c.ents[i].used = c.clock
	return c.ents[i].value, true
}

// Fill installs the reply of a lease-granting remote read performed at
// own-op count now, evicting the LRU entry if the cache is full.
func (c *LeaseCache) Fill(addr trace.Addr, value uint32, now uint64) {
	c.clock++
	e := leaseEnt{addr: addr, value: value, expire: now + c.window, used: c.clock}
	if i := c.find(addr); i >= 0 {
		c.ents[i] = e
		return
	}
	if len(c.ents) == cap(c.ents) {
		lru := 0
		for i := range c.ents {
			if c.ents[i].used < c.ents[lru].used {
				lru = i
			}
		}
		c.drop(lru)
	}
	c.ents = append(c.ents, e)
}

// InvalidateOwn removes addr after the holder's own write to it,
// reporting whether a lease was actually held (the lease_invals
// counter counts true returns).
func (c *LeaseCache) InvalidateOwn(addr trace.Addr) bool {
	i := c.find(addr)
	if i < 0 {
		return false
	}
	c.drop(i)
	return true
}

// Update refreshes the cached value after a foreign write, leaving the
// expiry untouched. A miss is a no-op: foreign writes never add or
// remove entries, so hit counts stay a pure function of the holder's
// own stream.
func (c *LeaseCache) Update(addr trace.Addr, value uint32) bool {
	i := c.find(addr)
	if i < 0 {
		return false
	}
	c.ents[i].value = value
	return true
}

// Reset returns the cache to the state NewLeaseCache builds, keeping its
// storage: a reused context slot resets its cache on every arrival.
func (c *LeaseCache) Reset() { c.ents, c.clock = c.ents[:0], 0 }

// DropAll empties the cache — migration or eviction departure.
func (c *LeaseCache) DropAll() {
	if len(c.ents) == 0 {
		return
	}
	c.Reset()
}

// drop deletes entry i, moving the last entry into its place.
func (c *LeaseCache) drop(i int) {
	last := len(c.ents) - 1
	c.ents[i] = c.ents[last]
	c.ents = c.ents[:last]
}

// CachedRemote is the pure-caching baseline (the dircc-equivalent point
// of the design space): execution never moves, reads go through the
// lease cache, writes are plain remote accesses.
type CachedRemote struct {
	// Window is the lease validity window (0 = DefaultLeaseWindow).
	Window uint64
}

// NewCachedRemote returns the baseline with the default window.
func NewCachedRemote() CachedRemote { return CachedRemote{} }

// Name implements Scheme.
func (CachedRemote) Name() string { return "cached-remote" }

// LeaseWindow implements Leaser.
func (s CachedRemote) LeaseWindow() uint64 {
	if s.Window == 0 {
		return DefaultLeaseWindow
	}
	return s.Window
}

// NewPredictor implements Scheme.
func (s CachedRemote) NewPredictor(int) Predictor { return cachedRemotePredictor{} }

type cachedRemotePredictor struct{ Stateless }

// Decide implements Predictor: a lease-requesting remote read, or a plain
// remote write. Never migrates.
func (cachedRemotePredictor) Decide(info AccessInfo) Decision {
	if info.Access.Write {
		return RemoteAccess
	}
	return RemoteReadCached
}

// Hybrid is the full design-space point: reads replicate through the
// lease cache (cached hit or lease-requesting remote read) while writes
// delegate to an embedded history predictor that chooses migrate vs
// remote access — replication for read sharing, migration for write
// locality. The predictor state is exactly the history table, so it is
// fixed-size and rides the existing context wire trailer
// (transport.Context.Sched) unchanged.
type Hybrid struct {
	// Window is the lease validity window (0 = DefaultLeaseWindow).
	Window uint64
}

// DefaultHybridMinRun is Hybrid's write-side history threshold.
const DefaultHybridMinRun = 2

// NewHybrid returns the hybrid scheme with the given lease window
// (0 = DefaultLeaseWindow).
func NewHybrid(window uint64) *Hybrid { return &Hybrid{Window: window} }

// Name implements Scheme.
func (h *Hybrid) Name() string { return fmt.Sprintf("hybrid:%d", h.LeaseWindow()) }

// LeaseWindow implements Leaser.
func (h *Hybrid) LeaseWindow() uint64 {
	if h.Window == 0 {
		return DefaultLeaseWindow
	}
	return h.Window
}

// NewPredictor implements Scheme.
func (h *Hybrid) NewPredictor(thread int) Predictor {
	hist := NewHistory(DefaultHybridMinRun).NewPredictor(thread)
	return &hybridPredictor{hist: hist.(*HistoryPredictor)}
}

// hybridPredictor wraps one thread's history state; the read side is
// stateless (the lease cache itself is machine state, not predictor
// state, and is dropped on migration rather than shipped).
type hybridPredictor struct {
	hist *HistoryPredictor
}

// Decide implements Predictor.
func (p *hybridPredictor) Decide(info AccessInfo) Decision {
	if !info.Access.Write {
		return RemoteReadCached
	}
	return p.hist.Decide(info)
}

// Observe implements Predictor.
func (p *hybridPredictor) Observe(home geom.CoreID, addr trace.Addr) { p.hist.Observe(home, addr) }

// Flush implements Predictor.
func (p *hybridPredictor) Flush() { p.hist.Flush() }

// StateLen implements Predictor: exactly the embedded history state.
func (p *hybridPredictor) StateLen() int { return p.hist.StateLen() }

// AppendState implements Predictor.
func (p *hybridPredictor) AppendState(b []byte) []byte { return p.hist.AppendState(b) }

// SetState implements Predictor.
func (p *hybridPredictor) SetState(b []byte) error { return p.hist.SetState(b) }
