// Package cache implements the set-associative cache model used by every
// memory system in this repository: the per-core L1/L2 data caches of EM²
// (16 KB L1 + 64 KB L2 in the paper's Figure 2 configuration) and the
// private caches of the directory-coherence baseline.
//
// The model tracks tags, dirty state, and true-LRU replacement. It stores no
// data — all simulators in this repository keep data in the xmem backing
// store — so a cache here answers only "would this access hit, and what got
// evicted".
package cache

import (
	"fmt"

	"repro/internal/stats"
)

// Addr is a byte address in the simulated global address space.
type Addr uint64

// Config describes one cache level.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size; must be a power of two
	Ways      int // associativity
}

// KB is a convenience multiplier for cache sizes.
const KB = 1024

// L1Default and L2Default mirror the paper's Figure 2 platform:
// "16KB L1 + 64KB L2 data caches".
func L1Default() Config { return Config{SizeBytes: 16 * KB, LineBytes: 64, Ways: 2} }

// L2Default returns the 64 KB L2 configuration of the paper's platform.
func L2Default() Config { return Config{SizeBytes: 64 * KB, LineBytes: 64, Ways: 4} }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive size/line/ways in %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*ways (%d)", c.SizeBytes, c.LineBytes*c.Ways)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Lines returns the total line capacity.
//
//em2:reference-only the cache tests size their expectations with it
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// LineOf returns the line-aligned address containing a.
func (c Config) LineOf(a Addr) Addr { return a &^ Addr(c.LineBytes-1) }

type line struct {
	tag   Addr
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp; larger = more recent
}

// Cache is one set-associative cache. The zero value is unusable; construct
// with New.
type Cache struct {
	cfg   Config
	sets  [][]line
	stamp uint64

	Hits, Misses, Evictions, Writebacks int64
}

// New returns an empty cache with the given configuration. It panics on an
// invalid configuration, which is a programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]line, cfg.Sets())
	backing := make([]line, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{cfg: cfg, sets: sets}
}

func (c *Cache) setAndTag(a Addr) (int, Addr) {
	lineAddr := c.cfg.LineOf(a)
	set := int(lineAddr/Addr(c.cfg.LineBytes)) % c.cfg.Sets()
	return set, lineAddr
}

// Result describes the outcome of one cache access.
type Result struct {
	Hit         bool
	Evicted     bool // a valid line was displaced
	EvictedAddr Addr // line address of the displaced line
	Writeback   bool // the displaced line was dirty
}

// Access performs a read (write=false) or write (write=true) of address a,
// allocating on miss and updating LRU state. It returns what happened.
func (c *Cache) Access(a Addr, write bool) Result {
	set, tag := c.setAndTag(a)
	c.stamp++
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.stamp
			if write {
				lines[i].dirty = true
			}
			c.Hits++
			return Result{Hit: true}
		}
	}
	c.Misses++
	// Miss: find invalid way, else LRU victim.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			goto fill
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
fill:
	res := Result{}
	if lines[victim].valid {
		res.Evicted = true
		res.EvictedAddr = lines[victim].tag
		res.Writeback = lines[victim].dirty
		c.Evictions++
		if lines[victim].dirty {
			c.Writebacks++
		}
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return res
}

// Probe reports whether address a is present without updating LRU or stats.
//
//em2:reference-only the cache and dircc tests check residency without touching LRU order
func (c *Cache) Probe(a Addr) bool {
	set, tag := c.setAndTag(a)
	for _, ln := range c.sets[set] {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the line containing a if present, returning whether it
// was present and whether it was dirty (the caller owes a writeback). Used
// by the directory-coherence baseline.
func (c *Cache) Invalidate(a Addr) (present, dirty bool) {
	set, tag := c.setAndTag(a)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			present, dirty = true, lines[i].dirty
			lines[i] = line{}
			return present, dirty
		}
	}
	return false, false
}

// CleanLine clears the dirty bit of the line containing a if present (a
// downgrade to shared state in the coherence baseline).
func (c *Cache) CleanLine(a Addr) {
	set, tag := c.setAndTag(a)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].dirty = false
			return
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for _, ln := range set {
			if ln.valid {
				n++
			}
		}
	}
	return n
}

// ValidLines returns the line addresses currently resident, in arbitrary
// order. Used by capacity/replication analyses (Table T4).
func (c *Cache) ValidLines() []Addr {
	out := make([]Addr, 0, c.Occupancy())
	for _, set := range c.sets {
		for _, ln := range set {
			if ln.valid {
				out = append(out, ln.tag)
			}
		}
	}
	return out
}

// Reset empties the cache and zeroes statistics.
//
//em2:reference-only the cache tests reuse one cache with it
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.stamp = 0
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
}

// HitRate returns hits/(hits+misses), or 0 if no accesses happened.
//
//em2:reference-only the cache tests check their hit counts through it
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Hierarchy is a two-level private cache (L1 backed by L2) with inclusive
// allocation: lines fill into both levels on a miss, as in the paper's
// per-core 16 KB L1 + 64 KB L2 arrangement.
type Hierarchy struct {
	L1, L2 *Cache
}

// NewHierarchy builds a two-level hierarchy from the two configurations.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: New(l2)}
}

// Level indicates where a hierarchy access was satisfied.
type Level int

// Hierarchy access outcomes.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMemory
)

// String implements fmt.Stringer.
//
//em2:reference-only fmt.Stringer for test failure output
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Access looks a in L1, then L2, then reports a memory fill. Fill policy is
// inclusive: on an L2 hit the line is also filled into L1; on a full miss it
// fills both levels.
func (h *Hierarchy) Access(a Addr, write bool) Level {
	if r := h.L1.Access(a, write); r.Hit {
		return LevelL1
	}
	if r := h.L2.Access(a, write); r.Hit {
		return LevelL2
	}
	return LevelMemory
}

// Probe reports whether a is resident at either level.
//
//em2:reference-only the two-level cache tests check residency with it
func (h *Hierarchy) Probe(a Addr) bool { return h.L1.Probe(a) || h.L2.Probe(a) }

// Reset empties both levels.
//
//em2:reference-only the two-level cache tests reuse one hierarchy with it
func (h *Hierarchy) Reset() { h.L1.Reset(); h.L2.Reset() }

// Stats renders hierarchy counters into the given counter set under the
// given prefix.
//
//em2:reference-only the two-level cache tests read the counters through it
func (h *Hierarchy) Stats(prefix string, c *stats.Counters) {
	c.Inc(prefix+".l1.hits", h.L1.Hits)
	c.Inc(prefix+".l1.misses", h.L1.Misses)
	c.Inc(prefix+".l2.hits", h.L2.Hits)
	c.Inc(prefix+".l2.misses", h.L2.Misses)
	c.Inc(prefix+".writebacks", h.L1.Writebacks+h.L2.Writebacks)
}
