package core

import (
	"fmt"

	"repro/internal/cache"
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
//     eviction, migration/eviction departure, and serve-mode region
//     reclamation.

// Lease defaults: a 16-entry fully-associative word cache with a
// 64-own-ops validity window — a plausible hardware budget next to the
// history predictor's 170-byte table.
const (
	DefaultLeaseWindow  = 64
	DefaultLeaseEntries = 16
)

// Leaser is implemented by schemes whose decisions use the lease cache
// (CachedRead / RemoteReadCached). The engine and the runtime consult it
// to size the per-thread caches.
type Leaser interface {
	// LeaseWindow is the validity window in holder memory operations: a
	// word filled when the thread had completed m operations serves
	// cached reads while the thread's completed count is <= m+window.
	LeaseWindow() uint64
}

// leaseEnt is one cached word: its address, value, and the last own-op
// count at which it may still be served.
type leaseEnt struct {
	addr   cache.Addr
	value  uint32
	expire uint64
}

// LeaseCache is one thread's lease cache: a word-granular,
// fully-associative, true-LRU tag store (internal/cache) plus the held
// words' values and expiries. It is not safe for concurrent use; the
// runtime serializes access per core.
type LeaseCache struct {
	tags *cache.Cache
	// ents holds one entry per held word, in no particular order. It is a
	// slice, not a map: at a handful of entries a scan beats hashing on
	// every probe, and the probe runs on every remote-homed access.
	ents   []leaseEnt
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
	return &LeaseCache{
		// One set of `entries` ways over 4-byte lines: fully associative
		// at word granularity, deterministic true LRU.
		tags:   cache.New(cache.Config{SizeBytes: 4 * entries, LineBytes: 4, Ways: entries}),
		ents:   make([]leaseEnt, 0, entries),
		window: window,
	}
}

// Window returns the validity window.
func (c *LeaseCache) Window() uint64 { return c.window }

// Len returns the number of held leases (for invariant checks).
func (c *LeaseCache) Len() int { return len(c.ents) }

// find returns the index of addr's entry, or -1.
func (c *LeaseCache) find(addr cache.Addr) int {
	for i := range c.ents {
		if c.ents[i].addr == addr {
			return i
		}
	}
	return -1
}

// Valid reports whether a cached read of addr would hit at own-op count
// now. It never mutates: Decide probes through it, and a pure probe
// keeps the decision replayable.
func (c *LeaseCache) Valid(addr cache.Addr, now uint64) bool {
	i := c.find(addr)
	return i >= 0 && now <= c.ents[i].expire
}

// Lookup serves a cached read at own-op count now: on a valid entry it
// returns the value and touches the LRU stamp; an expired entry is
// removed and misses. The hit path is allocation-free.
func (c *LeaseCache) Lookup(addr cache.Addr, now uint64) (uint32, bool) {
	i := c.find(addr)
	if i < 0 {
		return 0, false
	}
	if now > c.ents[i].expire {
		c.remove(i)
		return 0, false
	}
	c.tags.Access(addr, false)
	return c.ents[i].value, true
}

// Fill installs the reply of a lease-granting remote read performed at
// own-op count now, evicting the LRU entry if the cache is full.
func (c *LeaseCache) Fill(addr cache.Addr, value uint32, now uint64) {
	r := c.tags.Access(addr, false)
	if r.Evicted {
		if i := c.find(r.EvictedAddr); i >= 0 {
			c.drop(i)
		}
	}
	e := leaseEnt{addr: addr, value: value, expire: now + c.window}
	if i := c.find(addr); i >= 0 {
		c.ents[i] = e
	} else {
		c.ents = append(c.ents, e)
	}
}

// InvalidateOwn removes addr after the holder's own write to it,
// reporting whether a lease was actually held (the lease_invals
// counter counts true returns).
func (c *LeaseCache) InvalidateOwn(addr cache.Addr) bool {
	i := c.find(addr)
	if i < 0 {
		return false
	}
	c.remove(i)
	return true
}

// Update refreshes the cached value after a foreign write, leaving the
// expiry untouched. A miss is a no-op: foreign writes never add or
// remove entries, so hit counts stay a pure function of the holder's
// own stream.
func (c *LeaseCache) Update(addr cache.Addr, value uint32) bool {
	i := c.find(addr)
	if i < 0 {
		return false
	}
	c.ents[i].value = value
	return true
}

// Reset returns the cache to the state NewLeaseCache builds, keeping its
// storage: a reused context slot resets its cache on every arrival.
func (c *LeaseCache) Reset() {
	c.tags.Reset()
	c.ents = c.ents[:0]
}

// DropAll empties the cache — migration or eviction departure.
func (c *LeaseCache) DropAll() {
	if len(c.ents) == 0 {
		return
	}
	c.Reset()
}

// DropRange removes every lease in [lo, hi) — serve-mode region
// reclamation, so a recycled region can never serve a stale lease.
func (c *LeaseCache) DropRange(lo, hi cache.Addr) int {
	n := 0
	for i := len(c.ents) - 1; i >= 0; i-- {
		if a := c.ents[i].addr; lo <= a && a < hi {
			c.remove(i)
			n++
		}
	}
	return n
}

// remove drops entry i and its tag.
func (c *LeaseCache) remove(i int) {
	c.tags.Invalidate(c.ents[i].addr)
	c.drop(i)
}

// drop deletes entry i, moving the last entry into its place.
func (c *LeaseCache) drop(i int) {
	last := len(c.ents) - 1
	c.ents[i] = c.ents[last]
	c.ents = c.ents[:last]
}

// LeaseView is the non-mutating probe a predictor sees in
// AccessInfo.Lease: the thread's cache frozen at the current own-op
// count. The zero view (no cache) is never valid, so stateless schemes
// and the non-caching paths need no nil checks.
type LeaseView struct {
	c   *LeaseCache
	now uint64
}

// NewLeaseView builds the probe for one access.
func NewLeaseView(c *LeaseCache, now uint64) LeaseView { return LeaseView{c: c, now: now} }

// Valid reports whether a cached read of addr would hit.
func (v LeaseView) Valid(addr trace.Addr) bool {
	return v.c != nil && v.c.Valid(cache.Addr(addr), v.now)
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

// Decide implements Predictor: cached hit, lease-requesting remote read,
// or plain remote write. Never migrates.
func (cachedRemotePredictor) Decide(info AccessInfo) Decision {
	if info.Access.Write {
		return RemoteAccess
	}
	if info.Lease.Valid(info.Access.Addr) {
		return CachedRead
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
		if info.Lease.Valid(info.Access.Addr) {
			return CachedRead
		}
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
