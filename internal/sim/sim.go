// Package sim is the experiment harness: one function per paper artifact
// (Figures 1–3) and per derived table (T1–T5 of DESIGN.md §4), each
// returning a stats.Table whose rows are what the paper reports.
//
// Every experiment is decomposed into Cells (see cells.go): independent
// units of work — typically one workload or one scale point — that are pure
// functions of the platform and a derived seed. The serial entry points
// below (Figure1, TableT2, ...) run the cells in order on one goroutine;
// internal/sweep fans the same cells out across a worker pool and assembles
// byte-identical tables. cmd/figures is a thin CLI over the sweep registry.
package sim

import (
	"repro/internal/core"
	"repro/internal/dircc"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/placement"
	"repro/internal/stackm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Platform bundles the machine configuration shared by all experiments.
type Platform struct {
	Core    core.Config
	Stack   stackm.Config
	CC      dircc.Config
	Threads int
	Seed    uint64
}

// DefaultPlatform reproduces the paper's evaluation setup: 64 cores / 64
// threads on an 8×8 mesh, 16 KB L1 + 64 KB L2, first-touch placement.
func DefaultPlatform() Platform {
	return Platform{
		Core:    core.DefaultConfig(),
		Stack:   stackm.DefaultConfig(),
		CC:      dircc.DefaultConfig(),
		Threads: 64,
		Seed:    2011, // SPAA'11
	}
}

// SmallPlatform is a 16-core variant for fast tests.
func SmallPlatform() Platform {
	p := DefaultPlatform()
	p.Core.Mesh = geom.NewMesh(4, 4)
	p.CC.Mesh = p.Core.Mesh
	p.Threads = 16
	return p
}

// modelCore returns the §3-model variant of the platform's core config.
func (p Platform) modelCore() core.Config {
	cfg := p.Core
	cfg.GuestContexts = 0
	cfg.ChargeMemory = false
	return cfg
}

func (p Platform) firstTouch() placement.Policy {
	return placement.NewFirstTouch(workload.PageBytes)
}

// runScheme executes tr under a scheme at model fidelity.
func (p Platform) runScheme(tr *trace.Trace, s core.Scheme) *core.Result {
	eng, err := core.NewEngine(p.modelCore(), p.firstTouch(), s)
	if err != nil {
		panic(err)
	}
	res, err := eng.Run(tr, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// Figure1 exercises every path of the paper's Figure 1 flow chart on a
// directed micro-trace and tabulates how many accesses took each path:
// local hit, migration, and migration-with-eviction.
//
//em2:reference-only the sim tests check the sweep cells against this serial run
func Figure1(p Platform) *stats.Table {
	return Figure1Cells(p).RunSerial(p.Seed)
}

// Figure2 reproduces the run-length histogram of the paper's Figure 2: the
// number of accesses to memory cached at non-native cores for an OCEAN run,
// binned by run length, on 64 cores/64 threads with first-touch placement.
// It returns the rendered table plus the raw histogram.
func Figure2(p Platform, scale, iters int) (*stats.Table, *stats.Hist) {
	cs := Figure2Cells(p, scale, iters)
	rows, h := figure2Run(p, scale, iters, CellSeed(p.Seed, cs.Name, 0))
	t := cs.NewTable()
	for _, row := range rows {
		t.AddStrings(row)
	}
	return t, h
}

// Figure2Shape summarizes the paper's headline reading of Figure 2: "about
// half of the accesses migrate after one memory reference, while the other
// half keep accessing memory at the core where they have migrated."
func Figure2Shape(h *stats.Hist) (fracLen1, fracLong float64) {
	if h.Sum() == 0 {
		return 0, 0
	}
	fracLen1 = float64(h.Count(1)) / float64(h.Sum())
	var longMass int64
	for l := 8; l < h.Bound(); l++ {
		longMass += int64(l) * h.Count(l)
	}
	// Overflow mass: total minus accounted.
	var accounted int64
	for l := 1; l < h.Bound(); l++ {
		accounted += int64(l) * h.Count(l)
	}
	longMass += h.Sum() - accounted
	fracLong = float64(longMass) / float64(h.Sum())
	return fracLen1, fracLong
}

// Figure3 exercises the EM²-RA flow of the paper's Figure 3 with a hybrid
// decision scheme and tabulates the path taken per access.
//
//em2:reference-only the sim tests check the sweep cells against this serial run
func Figure3(p Platform) *stats.Table {
	return Figure3Cells(p).RunSerial(p.Seed)
}

// TableT1 cross-validates the §3 dynamic program: the dense and sparse DP
// variants must agree on the optimal cost, and the O(N) scheme evaluator
// bounds it from above, across trace lengths. The table reports model costs
// (deterministic), never wall-clock.
//
//em2:reference-only the sim tests check the sweep cells against this serial run
func TableT1(p Platform, lengths []int) *stats.Table {
	return TableT1Cells(p, lengths).RunSerial(p.Seed)
}

// syntheticSteps builds a bimodal step sequence (isolated accesses + runs)
// for the DP.
func syntheticSteps(n, cores int, seed uint64) []oracle.Step {
	steps := make([]oracle.Step, 0, n)
	state := seed
	rnd := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(m))
	}
	for len(steps) < n {
		home := geom.CoreID(rnd(cores))
		if rnd(2) == 0 {
			steps = append(steps, oracle.Step{Home: home})
		} else {
			run := 2 + rnd(20)
			for j := 0; j < run && len(steps) < n; j++ {
				steps = append(steps, oracle.Step{Home: home, Write: j%3 == 0})
			}
		}
	}
	return steps
}

// TableT2 compares decision schemes against the DP oracle across workloads
// (§3's claim: the hybrid, decided well, beats both pure EM² and pure
// remote access; the oracle upper-bounds everything).
//
//em2:reference-only the sim tests check the sweep cells against this serial run
func TableT2(p Platform, workloads []string, scale, iters int) *stats.Table {
	return TableT2Cells(p, workloads, scale, iters).RunSerial(p.Seed)
}

// TableT3 compares stack-depth schemes against the depth DP (§4's claim:
// the same model framework bounds depth-decision schemes).
//
//em2:reference-only the sim tests check the sweep cells against this serial run
func TableT3(p Platform, scale, iters int) *stats.Table {
	return TableT3Cells(p, scale, iters).RunSerial(p.Seed)
}

// TableT4 compares EM² against the directory-coherence baseline on the §2
// axes: network cycles, traffic, and data replication.
//
//em2:reference-only the sim tests check the sweep cells against this serial run
func TableT4(p Platform, workloads []string, scale, iters int) *stats.Table {
	return TableT4Cells(p, workloads, scale, iters).RunSerial(p.Seed)
}

// TableT5 tabulates migrated context sizes: the register-file context the
// paper cites (1–2 Kbit) against stack contexts at increasing depths —
// the motivation for §4.
//
//em2:reference-only the sim tests check the sweep cells against this serial run
func TableT5(p Platform) *stats.Table {
	return TableT5Cells(p).RunSerial(p.Seed)
}
