package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/dircc"
	"repro/internal/oracle"
	"repro/internal/stackm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A Cell is the unit of parallelism of an experiment: an independently
// runnable piece (typically one workload or one scale point) that produces a
// contiguous block of table rows. A cell must be a pure function of the
// platform it closed over and the seed it is given — no shared mutable state
// — so that a sweep may execute cells in any order, on any number of
// workers, and still assemble byte-identical tables.
type Cell struct {
	Label string
	Run   func(seed uint64) [][]string
}

// CellSet is one experiment decomposed into cells plus the shape of the
// table the cells' rows assemble into. Row order is cell order.
type CellSet struct {
	Name    string // registry name (fig1, t2, ...)
	Title   string
	Headers []string
	Cells   []Cell
}

// CellSeed derives the deterministic per-cell seed: a hash of the base seed,
// the experiment name, and the cell index. Every runner — the serial
// wrappers in this package and the parallel sweep in internal/sweep — uses
// this same derivation, which is what makes results identical at any
// parallelism level.
func CellSeed(base uint64, experiment string, cell int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], base)
	h.Write(buf[:])
	h.Write([]byte(experiment))
	binary.LittleEndian.PutUint64(buf[:], uint64(cell))
	h.Write(buf[:])
	return h.Sum64()
}

// NewTable returns the empty table with the set's title and headers.
func (cs CellSet) NewTable() *stats.Table {
	return stats.NewTable(cs.Title, cs.Headers...)
}

// RunSerial executes every cell in order on the calling goroutine and
// assembles the table. base is the sweep-level seed (normally Platform.Seed).
//
//em2:reference-only the sweep tests check the parallel runner against this serial run
func (cs CellSet) RunSerial(base uint64) *stats.Table {
	t := cs.NewTable()
	for i, c := range cs.Cells {
		for _, row := range c.Run(CellSeed(base, cs.Name, i)) {
			t.AddStrings(row)
		}
	}
	return t
}

// countOutcomes runs tr through an engine and tallies the outcome of every
// access — the flow-chart counting shared by Figures 1 and 3.
func countOutcomes(cfg core.Config, p Platform, scheme core.Scheme, tr *trace.Trace) map[core.Outcome]int64 {
	eng, err := core.NewEngine(cfg, p.firstTouch(), scheme)
	if err != nil {
		panic(err)
	}
	counts := make(map[core.Outcome]int64)
	if _, err := eng.Run(tr, func(_ int, _ core.AccessInfo, o core.Outcome) { counts[o]++ }); err != nil {
		panic(err)
	}
	return counts
}

// Figure1Cells decomposes Figure 1: a single cell driving the hotspot
// micro-trace through the EM² flow chart and counting the path taken per
// access.
func Figure1Cells(p Platform) CellSet {
	return CellSet{
		Name:    "fig1",
		Title:   "Figure 1 — the life of a memory access under EM2 (path counts)",
		Headers: []string{"path", "accesses"},
		Cells: []Cell{{
			Label: "hotspot",
			Run: func(seed uint64) [][]string {
				cfg := p.Core
				cfg.GuestContexts = 1
				cfg.ChargeMemory = false
				tr := workload.Hotspot(workload.Config{Threads: p.Threads, Scale: 64, Iters: 2, Seed: seed})
				counts := countOutcomes(cfg, p, core.AlwaysMigrate{}, tr)
				return [][]string{
					stats.FormatRow("cacheable at current core -> access memory & continue", counts[core.OutcomeLocal]),
					stats.FormatRow("migrate to home core (guest context free)", counts[core.OutcomeMigrated]),
					stats.FormatRow("migrate to home core, evicting a guest to its native core", counts[core.OutcomeMigratedEvict]),
				}
			},
		}},
	}
}

// Figure2Cells decomposes Figure 2: a single OCEAN run binned by run length.
func Figure2Cells(p Platform, scale, iters int) CellSet {
	return CellSet{
		Name: "fig2",
		Title: fmt.Sprintf("Figure 2 — accesses to non-native cores by run length (ocean, %d cores/%d threads, first touch)",
			p.Core.Mesh.Cores(), p.Threads),
		Headers: []string{"run length", "runs", "accesses (runs x length)", "share of non-native accesses"},
		Cells: []Cell{{
			Label: "ocean",
			Run: func(seed uint64) [][]string {
				rows, _ := figure2Run(p, scale, iters, seed)
				return rows
			},
		}},
	}
}

// figure2Run is the shared body of Figure2 and its cell: one OCEAN run,
// returning the table rows and the raw run-length histogram.
func figure2Run(p Platform, scale, iters int, seed uint64) ([][]string, *stats.Hist) {
	tr := workload.Ocean(workload.Config{Threads: p.Threads, Scale: scale, Iters: iters, Seed: seed})
	res := p.runScheme(tr, core.AlwaysMigrate{})
	h := res.RunLengths

	var rows [][]string
	var shown int64
	for l := 1; l < h.Bound(); l++ {
		if c := h.Count(l); c > 0 {
			accesses := int64(l) * c
			shown += accesses
			rows = append(rows, stats.FormatRow(l, c, accesses,
				fmt.Sprintf("%.1f%%", 100*float64(accesses)/float64(h.Sum()))))
		}
	}
	if h.Overflow() > 0 {
		tail := res.NonNative - shown
		rows = append(rows, stats.FormatRow(fmt.Sprintf("%d+", h.Bound()), h.Overflow(), tail,
			fmt.Sprintf("%.1f%%", 100*float64(tail)/float64(h.Sum()))))
	}
	// The paper's headline reading ("about half of the accesses migrate
	// after one memory reference, while the other half keep accessing
	// memory at the core where they have migrated") as summary rows, so
	// every output mode of the sweep carries the shape claim.
	f1, fl := Figure2Shape(h)
	rows = append(rows,
		stats.FormatRow("(shape) runs of length 1", "", "", fmt.Sprintf("%.1f%%", 100*f1)),
		stats.FormatRow("(shape) runs of length >= 8", "", "", fmt.Sprintf("%.1f%%", 100*fl)))
	return rows, h
}

// Figure3Cells decomposes Figure 3: a single OCEAN run under the hybrid
// distance scheme, counting the decision path per access.
func Figure3Cells(p Platform) CellSet {
	return CellSet{
		Name:    "fig3",
		Title:   "Figure 3 — the life of a memory access under EM2-RA (path counts, distance<=3 decision)",
		Headers: []string{"path", "accesses"},
		Cells: []Cell{{
			Label: "ocean",
			Run: func(seed uint64) [][]string {
				cfg := p.modelCore()
				tr := workload.Ocean(workload.Config{Threads: p.Threads, Scale: 64, Iters: 1, Seed: seed})
				counts := countOutcomes(cfg, p, core.NewDistance(cfg.Mesh, 3), tr)
				return [][]string{
					stats.FormatRow("cacheable at current core -> access memory & continue", counts[core.OutcomeLocal]),
					stats.FormatRow("decision: migrate to home core", counts[core.OutcomeMigrated]+counts[core.OutcomeMigratedEvict]),
					stats.FormatRow("decision: remote request + data/ack reply", counts[core.OutcomeRemote]),
				}
			},
		}},
	}
}

// TableT1Cells decomposes T1 into one cell per trace length. Each cell runs
// both DP variants and the O(N) evaluator on the same synthetic steps and
// reports their (deterministic) model costs; the dense/sparse agreement
// check is the §3 cross-validation. No wall-clock enters the table, so it
// is byte-stable.
func TableT1Cells(p Platform, lengths []int) CellSet {
	cfg := p.modelCore()
	cells := make([]Cell, len(lengths))
	for i, n := range lengths {
		n := n
		cells[i] = Cell{
			Label: fmt.Sprintf("N=%d", n),
			Run: func(seed uint64) [][]string {
				steps := syntheticSteps(n, cfg.Mesh.Cores(), seed)
				dense := oracle.OptimalDense(cfg, steps, 0)
				sparse := oracle.OptimalSparse(cfg, steps, 0)
				eval := oracle.EvaluateScheme(cfg, steps, 0, core.AlwaysMigrate{}, 0)
				if dense.Cost != sparse.Cost {
					panic("sim: dense/sparse optimum mismatch")
				}
				return [][]string{stats.FormatRow(n, cfg.Mesh.Cores(), dense.Cost, sparse.Cost, eval)}
			},
		}
	}
	return CellSet{
		Name:    "t1",
		Title:   "T1 — §3 dynamic program optimum vs O(N) scheme evaluation (model cycles)",
		Headers: []string{"N (accesses)", "P (cores)", "dense DP cost", "sparse DP cost", "always-migrate eval"},
		Cells:   cells,
	}
}

// TableT2Cells decomposes T2 into one cell per workload: every decision
// scheme plus the DP oracle run on that workload's trace, so the
// within-row comparison stays on a single trace.
func TableT2Cells(p Platform, workloads []string, scale, iters int) CellSet {
	cfg := p.modelCore()
	cells := make([]Cell, len(workloads))
	for i, name := range workloads {
		name := name
		cells[i] = Cell{
			Label: name,
			Run: func(seed uint64) [][]string {
				g, err := workload.Get(name)
				if err != nil {
					panic(err)
				}
				tr := g(workload.Config{Threads: p.Threads, Scale: scale, Iters: iters, Seed: seed})
				am := p.runScheme(tr, core.AlwaysMigrate{}).Cycles
				ar := p.runScheme(tr, core.AlwaysRemote{}).Cycles
				di := p.runScheme(tr, core.NewDistance(cfg.Mesh, 3)).Cycles
				hi := p.runScheme(tr, core.NewHistory(2)).Cycles
				opt := oracle.OptimalForTrace(cfg, tr, p.firstTouch()).Cost
				return [][]string{stats.FormatRow(name, am, ar, di, hi, opt)}
			},
		}
	}
	return CellSet{
		Name:    "t2",
		Title:   "T2 — decision schemes vs DP oracle (total network cycles, lower is better)",
		Headers: []string{"workload", "always-migrate", "always-remote", "distance<=3", "history>=2", "ORACLE (DP)"},
		Cells:   cells,
	}
}

// TableT3Cells decomposes T3 as a single cell: all depth schemes and the
// depth DP must replay the same stack-augmented trace for the rows to be
// comparable, so the whole table is one unit of work.
func TableT3Cells(p Platform, scale, iters int) CellSet {
	return CellSet{
		Name:  "t3",
		Title: "T3 — stack-depth schemes vs depth DP (ocean with stack deltas)",
		Headers: []string{
			"scheme", "cycles", "migrations", "forced returns", "mean depth", "bits moved"},
		Cells: []Cell{{
			Label: "ocean+stack",
			Run: func(seed uint64) [][]string {
				ccfg := p.modelCore()
				scfg := p.Stack
				base := workload.Ocean(workload.Config{Threads: p.Threads, Scale: scale, Iters: iters, Seed: seed})
				tr := workload.WithStackDeltas(base, seed+1)
				steps := stackm.StepsForTrace(tr, p.firstTouch(), ccfg.Mesh.Cores())

				var rows [][]string
				for _, mk := range []func() stackm.DepthScheme{
					func() stackm.DepthScheme { return stackm.MinimalDepth{} },
					func() stackm.DepthScheme { return stackm.FixedDepth{K: 2} },
					func() stackm.DepthScheme { return stackm.FixedDepth{K: 4} },
					func() stackm.DepthScheme { return stackm.HalfDepth{Capacity: scfg.Capacity} },
					func() stackm.DepthScheme { return stackm.FullDepth{} },
				} {
					c := stackm.SchemeCostForTrace(ccfg, scfg, steps, ccfg.Mesh.Cores(), mk)
					rows = append(rows, stats.FormatRow(mk().Name(), c.Cycles, c.Migrations, c.ForcedReturns,
						fmt.Sprintf("%.2f", c.MeanDepth()), c.BitsMoved))
				}
				opt := stackm.OptimalDepthCostForTrace(ccfg, scfg, steps, ccfg.Mesh.Cores())
				rows = append(rows, stats.FormatRow("ORACLE (depth DP)", opt, "-", "-", "-", "-"))
				return rows
			},
		}},
	}
}

// TableT4Cells decomposes T4 into one cell per workload: EM² and the
// directory-coherence baseline on the same trace.
func TableT4Cells(p Platform, workloads []string, scale, iters int) CellSet {
	cells := make([]Cell, len(workloads))
	for i, name := range workloads {
		name := name
		cells[i] = Cell{
			Label: name,
			Run: func(seed uint64) [][]string {
				g, err := workload.Get(name)
				if err != nil {
					panic(err)
				}
				tr := g(workload.Config{Threads: p.Threads, Scale: scale, Iters: iters, Seed: seed})

				em := p.runScheme(tr, core.AlwaysMigrate{})

				ccEng, err := dircc.NewEngine(p.CC, p.firstTouch())
				if err != nil {
					panic(err)
				}
				cc, err := ccEng.Run(tr)
				if err != nil {
					panic(err)
				}
				return [][]string{stats.FormatRow(name, em.Cycles, em.Traffic, "1.00",
					cc.Cycles, cc.Traffic, fmt.Sprintf("%.2f", cc.ReplicationFactor),
					cc.Invalidations+cc.Forwards)}
			},
		}
	}
	return CellSet{
		Name:  "t4",
		Title: "T4 — EM2 vs directory cache coherence (same mesh, links, and placement)",
		Headers: []string{
			"workload", "EM2 cycles", "EM2 traffic", "EM2 repl", "CC cycles", "CC traffic", "CC repl", "CC inval+fwd"},
		Cells: cells,
	}
}

// TableT5Cells decomposes T5: a single seed-independent arithmetic cell.
func TableT5Cells(p Platform) CellSet {
	return CellSet{
		Name:    "t5",
		Title:   "T5 — migrated context size (bits) and one-way migration latency across the 8x8 mesh diameter",
		Headers: []string{"context", "bits", "flits", "latency (cycles)"},
		Cells: []Cell{{
			Label: "contexts",
			Run: func(uint64) [][]string {
				cfg := p.Core
				hops := cfg.Mesh.Diameter()
				var rows [][]string
				row := func(name string, bits int) {
					rows = append(rows, stats.FormatRow(name, bits, cfg.NoC.Flits(bits), cfg.NoC.Latency(hops, bits)))
				}
				row("register file (32x32b + PC)", cfg.ContextBits)
				row("register file + TLB (paper upper bound)", 2048)
				for _, d := range []int{1, 2, 4, 8, 16} {
					if d <= p.Stack.Capacity {
						row(fmt.Sprintf("stack, depth %d", d), p.Stack.CtxBits(d))
					}
				}
				return rows
			},
		}},
	}
}
