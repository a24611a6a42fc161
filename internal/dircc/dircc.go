// Package dircc implements the baseline the paper positions EM² against: a
// directory-based MSI cache-coherence protocol over the same mesh, network
// parameters and cache capacity. It exists to reproduce the two §2 claims —
// that directory coherence replicates data in per-core caches ("loss of
// effective cache capacity") and that its multi-message transactions cost
// more interconnect traffic than EM²'s one-way migrations on
// sharing-heavy workloads (experiment T4).
//
// The model is trace-driven and transaction-accurate at message granularity:
// each access generates the MSI request/forward/invalidate/data messages a
// full-map directory would, with latency taken as the transaction's critical
// path and traffic as the sum of all messages. Threads execute at their
// native cores (coherence systems do not migrate execution).
package dircc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config describes the coherence platform.
type Config struct {
	Mesh geom.Mesh
	NoC  noc.Config
	// CacheCfg is the per-core private cache (the baseline folds L1+L2 into
	// one level so that capacity-driven evictions are visible to the
	// directory).
	CacheCfg cache.Config
	// CtrlBits and AddrBits size control messages; LineBits is the data
	// payload (a full cache line, vs EM²'s one-word remote accesses).
	CtrlBits int
	// MemCycles is charged when the home must fetch the line from memory.
	MemCycles int
}

// DefaultConfig matches the EM² comparison platform: identical mesh and
// link parameters, 64 KB private cache per core, 64-byte lines.
func DefaultConfig() Config {
	return Config{
		Mesh:      geom.SquareMesh(64),
		NoC:       noc.DefaultConfig(),
		CacheCfg:  cache.L2Default(),
		CtrlBits:  32,
		MemCycles: 100,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Mesh.Cores() <= 0 {
		return fmt.Errorf("dircc: empty mesh")
	}
	if err := c.NoC.Validate(); err != nil {
		return err
	}
	if err := c.CacheCfg.Validate(); err != nil {
		return err
	}
	if c.CtrlBits <= 0 || c.MemCycles < 0 {
		return fmt.Errorf("dircc: bad CtrlBits/MemCycles")
	}
	return nil
}

// lineBits returns the data-message payload: one cache line.
func (c Config) lineBits() int { return c.CacheCfg.LineBytes * 8 }

// dirState is the full-map directory entry for one line.
type dirState struct {
	sharers  map[geom.CoreID]struct{}
	owner    geom.CoreID
	modified bool
}

// Result aggregates a coherence run.
type Result struct {
	Workload string
	Accesses int64

	LocalHits     int64
	ReadMisses    int64
	WriteMisses   int64
	Invalidations int64 // invalidation messages sent
	Forwards      int64 // 3-hop M-state interventions
	Writebacks    int64
	MemFetches    int64

	Cycles  int64 // sum of per-access critical paths
	Traffic int64 // flit·hops over all protocol messages

	// ReplicationFactor is total valid cached lines divided by unique lines
	// — the §2 "data replication ... loss of effective cache capacity"
	// measurement (1.0 = no replication, as EM² guarantees).
	ReplicationFactor float64

	Counters stats.Counters
}

// String renders a one-line summary.
//
//em2:reference-only fmt.Stringer for test failure output
func (r *Result) String() string {
	return fmt.Sprintf("dircc/%s: accesses=%d hits=%d rdMiss=%d wrMiss=%d inval=%d cycles=%d traffic=%d repl=%.2f",
		r.Workload, r.Accesses, r.LocalHits, r.ReadMisses, r.WriteMisses,
		r.Invalidations, r.Cycles, r.Traffic, r.ReplicationFactor)
}

// Engine is the trace-driven directory-MSI simulator.
type Engine struct {
	cfg    Config
	place  placement.Policy // decides each line's home (directory) core
	caches []*cache.Cache
	dir    map[trace.Addr]*dirState // keyed by line address
	res    *Result
}

// NewEngine builds a coherence engine. The placement decides which core
// hosts each line's directory entry and backing storage — using the same
// policy as the EM² run keeps the comparison apples-to-apples.
func NewEngine(cfg Config, place placement.Policy) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if place == nil {
		return nil, fmt.Errorf("dircc: nil placement")
	}
	caches := make([]*cache.Cache, cfg.Mesh.Cores())
	for i := range caches {
		caches[i] = cache.New(cfg.CacheCfg)
	}
	return &Engine{cfg: cfg, place: place, caches: caches, dir: make(map[trace.Addr]*dirState)}, nil
}

func (e *Engine) line(a trace.Addr) trace.Addr { return a &^ trace.Addr(e.cfg.CacheCfg.LineBytes-1) }

func (e *Engine) entry(line trace.Addr) *dirState {
	d := e.dir[line]
	if d == nil {
		d = &dirState{sharers: make(map[geom.CoreID]struct{})}
		e.dir[line] = d
	}
	return d
}

// msg accounts one protocol message and returns its latency.
func (e *Engine) msg(from, to geom.CoreID, payloadBits int) int64 {
	hops := e.cfg.Mesh.Hops(from, to)
	e.res.Traffic += e.cfg.NoC.Traffic(hops, payloadBits)
	return e.cfg.NoC.Latency(hops, payloadBits)
}

// evictNotify handles a capacity eviction at core c: the directory forgets
// the sharer; dirty lines write back a full line of data.
func (e *Engine) evictNotify(c geom.CoreID, line trace.Addr, dirty bool) {
	d := e.dir[line]
	if d == nil {
		return
	}
	home := e.place.Touch(line, c)
	if dirty {
		e.res.Writebacks++
		e.msg(c, home, e.cfg.lineBits()) // writeback data (off critical path)
	} else {
		e.msg(c, home, e.cfg.CtrlBits) // silent-eviction notice
	}
	delete(d.sharers, c)
	if d.modified && d.owner == c {
		d.modified = false
	}
}

// Run executes the trace. Thread t issues from core t mod cores.
func (e *Engine) Run(tr *trace.Trace) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	e.res = &Result{Workload: tr.Name}
	cores := e.cfg.Mesh.Cores()

	for _, a := range tr.Accesses {
		c := geom.CoreID(a.Thread % cores)
		line := e.line(a.Addr)
		home := e.place.Touch(a.Addr, c)
		d := e.entry(line)
		e.res.Accesses++

		_, isSharer := d.sharers[c]
		isOwner := d.modified && d.owner == c

		// Local cache access models capacity: even a directory-visible
		// sharer can have lost the line to eviction.
		cr := e.caches[c].Access(cache.Addr(line), a.Write)
		if cr.Evicted {
			e.evictNotify(c, trace.Addr(cr.EvictedAddr), cr.Writeback)
			// Eviction may have dropped this very core from the directory;
			// re-check below uses the stale flags deliberately: the access
			// in flight still holds the line it just filled.
		}

		switch {
		case !a.Write && (isSharer || isOwner) && cr.Hit:
			// Read hit in S or M.
			e.res.LocalHits++
			e.res.Cycles++ // cache hit latency

		case a.Write && isOwner && cr.Hit:
			// Write hit in M.
			e.res.LocalHits++
			e.res.Cycles++

		case !a.Write:
			// Read miss: request to directory.
			e.res.ReadMisses++
			lat := e.msg(c, home, e.cfg.CtrlBits)
			if d.modified && d.owner != c {
				// 3-hop: forward to owner, owner sends data to requester
				// and writes back to home. Owner downgrades to S.
				e.res.Forwards++
				lat += e.msg(home, d.owner, e.cfg.CtrlBits)
				lat += e.msg(d.owner, c, e.cfg.lineBits())
				e.msg(d.owner, home, e.cfg.lineBits()) // writeback, off critical path
				e.res.Writebacks++
				e.caches[d.owner].CleanLine(cache.Addr(line))
				d.sharers[d.owner] = struct{}{}
				d.modified = false
			} else {
				if len(d.sharers) == 0 && !d.modified {
					// Home fetches from memory.
					e.res.MemFetches++
					lat += int64(e.cfg.MemCycles)
				}
				lat += e.msg(home, c, e.cfg.lineBits())
			}
			d.sharers[c] = struct{}{}
			e.res.Cycles += lat

		default:
			// Write miss (or upgrade): invalidate all other copies, grant M.
			e.res.WriteMisses++
			lat := e.msg(c, home, e.cfg.CtrlBits)
			var worstInval int64
			if d.modified && d.owner != c {
				e.res.Forwards++
				f := e.msg(home, d.owner, e.cfg.CtrlBits) // invalidate+fetch
				f += e.msg(d.owner, c, e.cfg.lineBits())  // data to requester
				e.caches[d.owner].Invalidate(cache.Addr(line))
				if f > worstInval {
					worstInval = f
				}
			} else {
				//em2:unordered-ok: per-sharer invalidations are independent; the counter is a sum and worstInval a max, both commutative
				for s := range d.sharers {
					if s == c {
						continue
					}
					e.res.Invalidations++
					iv := e.msg(home, s, e.cfg.CtrlBits) // invalidate
					iv += e.msg(s, home, e.cfg.CtrlBits) // ack
					e.caches[s].Invalidate(cache.Addr(line))
					if iv > worstInval {
						worstInval = iv
					}
				}
				if len(d.sharers) == 0 && !d.modified {
					e.res.MemFetches++
					worstInval += int64(e.cfg.MemCycles)
				}
				// Data (or ownership grant) from home.
				worstInval += e.msg(home, c, e.cfg.lineBits())
			}
			lat += worstInval
			//em2:unordered-ok: clearing the sharer set; deletion order is unobservable
			for s := range d.sharers {
				delete(d.sharers, s)
			}
			d.owner = c
			d.modified = true
			e.res.Cycles += lat
		}
	}

	e.computeReplication()
	e.collectCounters()
	return e.res, nil
}

// computeReplication measures end-of-run data replication across caches.
func (e *Engine) computeReplication() {
	unique := make(map[cache.Addr]struct{})
	var total int
	for _, c := range e.caches {
		for _, l := range c.ValidLines() {
			unique[l] = struct{}{}
			total++
		}
	}
	if len(unique) > 0 {
		e.res.ReplicationFactor = float64(total) / float64(len(unique))
	}
}

func (e *Engine) collectCounters() {
	c := &e.res.Counters
	c.Inc("accesses", e.res.Accesses)
	c.Inc("local_hits", e.res.LocalHits)
	c.Inc("read_misses", e.res.ReadMisses)
	c.Inc("write_misses", e.res.WriteMisses)
	c.Inc("invalidations", e.res.Invalidations)
	c.Inc("forwards", e.res.Forwards)
	c.Inc("writebacks", e.res.Writebacks)
	c.Inc("mem_fetches", e.res.MemFetches)
}

// CacheOf exposes a core's private cache for tests.
//
//em2:reference-only the dircc tests inspect a core cache through it
func (e *Engine) CacheOf(c geom.CoreID) *cache.Cache { return e.caches[c] }

// DirectoryState reports (sharerCount, modified) for a line, for tests.
//
//em2:reference-only the dircc tests check directory state through it
func (e *Engine) DirectoryState(a trace.Addr) (int, bool) {
	d := e.dir[e.line(a)]
	if d == nil {
		return 0, false
	}
	return len(d.sharers), d.modified
}
