// Package oracle implements the paper's §3 analytical model: a dynamic
// program that computes the optimal migrate-vs-remote-access decision
// sequence for a single thread's memory trace (an upper bound on the
// performance of any hardware decision scheme), an O(N) evaluator for
// concrete schemes, and the §4 generalization over stack depths.
//
// The model follows the paper's assumptions exactly: one thread at a time
// (no eviction effects), local memory accesses are free, and the full trace
// plus the address-to-core placement are known.
package oracle

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/trace"
)

// Step is one access of a single thread's trace, reduced to what the model
// needs: where the data lives, the address (for predictor feedback), and
// whether the access writes.
type Step struct {
	Home  geom.CoreID
	Addr  trace.Addr
	Write bool
}

// StepsForThread projects a multithreaded trace onto one thread and resolves
// each access's home under the placement (touching in global trace order so
// first-touch bindings match what a full-engine run would produce).
//
//em2:reference-only the oracle tests build per-thread inputs for the DP with it
func StepsForThread(tr *trace.Trace, pl interface {
	Touch(trace.Addr, geom.CoreID) geom.CoreID
}, cores int, thread int) []Step {
	var steps []Step
	for _, a := range tr.Accesses {
		native := geom.CoreID(a.Thread % cores)
		home := pl.Touch(a.Addr, native)
		if a.Thread == thread {
			steps = append(steps, Step{Home: home, Addr: a.Addr, Write: a.Write})
		}
	}
	return steps
}

// Result is an optimal decision sequence with its cost.
type Result struct {
	Cost int64
	// Decisions has one entry per non-local access in step order — exactly
	// the sequence core.NewFixed replays. A step is non-local when the
	// optimal path is not already at the step's home.
	Decisions []core.Decision
	// EndCore is where the thread finishes under the optimal path.
	EndCore geom.CoreID
}

const inf = int64(math.MaxInt64) / 4

// perStepChoice records what the DP chose for the "core hit" endpoint of a
// step, enough to reconstruct the optimal path in O(N) memory.
type perStepChoice struct {
	stayed  bool        // OPT(k+1, h) came from OPT(k, h) with no action
	migFrom geom.CoreID // otherwise: migrated from this core
}

// OptimalDense computes the optimal migrate-vs-remote-access plan for one
// thread with the paper's dense recurrence over all P cores.
//
// The recurrence (paper §3, verbatim): with OPT(k, c) the optimal cost of
// executing accesses 1..k ending at core c,
//
//	core miss (c ≠ d(m_{k+1})):  OPT(k+1, c) = OPT(k, c) + costRA(c, d(m_{k+1}))
//	core hit  (c = d(m_{k+1})):  OPT(k+1, c) = min(OPT(k, c),
//	                                min_{ci≠c} OPT(k, ci) + costMig(ci, c))
//
// Runtime is O(N·P) with O(P) extra memory plus O(N) for the backtrace
// (the paper quotes the conservative O(N·P²) bound).
func OptimalDense(cfg core.Config, steps []Step, start geom.CoreID) Result {
	p := cfg.Mesh.Cores()
	if !cfg.Mesh.Contains(start) {
		panic(fmt.Sprintf("oracle: start core %d outside mesh", start))
	}
	cost := make([]int64, p)
	for i := range cost {
		cost[i] = inf
	}
	cost[start] = 0
	choices := make([]perStepChoice, len(steps))

	next := make([]int64, p)
	for k, s := range steps {
		h := s.Home
		// Core-miss transitions: stay anywhere and remote-access.
		for c := 0; c < p; c++ {
			if cost[c] == inf {
				next[c] = inf
				continue
			}
			if geom.CoreID(c) == h {
				continue // handled below
			}
			next[c] = cost[c] + cfg.RemoteAccessCost(geom.CoreID(c), h, s.Write)
		}
		// Core-hit endpoint: stay at h for free, or migrate in from the best ci.
		best := cost[h] // staying (free local access)
		choice := perStepChoice{stayed: true}
		for c := 0; c < p; c++ {
			if geom.CoreID(c) == h || cost[c] == inf {
				continue
			}
			if v := cost[c] + cfg.MigrationCost(geom.CoreID(c), h, cfg.ContextBits); v < best {
				best = v
				choice = perStepChoice{migFrom: geom.CoreID(c)}
			}
		}
		next[h] = best
		choices[k] = choice
		cost, next = next, cost
	}

	// Optimal terminal core.
	end := geom.CoreID(0)
	for c := 1; c < p; c++ {
		if cost[c] < cost[end] {
			end = geom.CoreID(c)
		}
	}
	return backtrace(cfg, steps, start, end, cost[end], choices)
}

// OptimalSparse computes the same optimum restricted to the reachable core
// set {start} ∪ {homes in the trace}: under the recurrence a thread only
// ever sits at the start core or at a home it migrated to, so the restriction
// is exact. Runtime O(N·U) where U = distinct homes, typically far below P.
func OptimalSparse(cfg core.Config, steps []Step, start geom.CoreID) Result {
	// Collect reachable cores.
	seen := map[geom.CoreID]int{start: 0}
	order := []geom.CoreID{start}
	for _, s := range steps {
		if _, ok := seen[s.Home]; !ok {
			seen[s.Home] = len(order)
			order = append(order, s.Home)
		}
	}
	u := len(order)
	cost := make([]int64, u)
	for i := range cost {
		cost[i] = inf
	}
	cost[0] = 0
	choices := make([]perStepChoice, len(steps))
	next := make([]int64, u)

	for k, s := range steps {
		h := s.Home
		hi := seen[h]
		for i, c := range order {
			if cost[i] == inf {
				next[i] = inf
				continue
			}
			if c == h {
				continue
			}
			next[i] = cost[i] + cfg.RemoteAccessCost(c, h, s.Write)
		}
		best := cost[hi]
		choice := perStepChoice{stayed: true}
		for i, c := range order {
			if c == h || cost[i] == inf {
				continue
			}
			if v := cost[i] + cfg.MigrationCost(c, h, cfg.ContextBits); v < best {
				best = v
				choice = perStepChoice{migFrom: c}
			}
		}
		next[hi] = best
		choices[k] = choice
		cost, next = next, cost
	}

	endIdx := 0
	for i := 1; i < u; i++ {
		if cost[i] < cost[endIdx] {
			endIdx = i
		}
	}
	return backtrace(cfg, steps, start, order[endIdx], cost[endIdx], choices)
}

// backtrace reconstructs the decision list from the per-step choices by
// walking the optimal path backwards from the terminal core.
func backtrace(cfg core.Config, steps []Step, start, end geom.CoreID, total int64, choices []perStepChoice) Result {
	// pos[k] = core after executing step k (pos[-1] = start).
	pos := make([]geom.CoreID, len(steps))
	cur := end
	for k := len(steps) - 1; k >= 0; k-- {
		pos[k] = cur
		if cur == steps[k].Home {
			if choices[k].stayed {
				// Position before the step was also cur.
				continue
			}
			cur = choices[k].migFrom
			continue
		}
		// Remote access: position unchanged across the step.
	}
	// Forward pass: emit one decision per non-local step.
	var decisions []core.Decision
	at := start
	for k := range steps {
		h := steps[k].Home
		if at == h {
			// local; no decision
			continue
		}
		if pos[k] == h {
			decisions = append(decisions, core.Migrate)
			at = h
		} else {
			decisions = append(decisions, core.RemoteAccess)
			// at unchanged; sanity: the DP never moves on a remote access.
			if pos[k] != at {
				panic("oracle: inconsistent backtrace (remote access moved the thread)")
			}
		}
	}
	return Result{Cost: total, Decisions: decisions, EndCore: end}
}
