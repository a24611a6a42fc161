package oracle

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/placement"
	"repro/internal/trace"
)

// AllSteps resolves every access's home core in one pass over the global
// trace (so stateful placements bind pages in the same order a full engine
// run would) and returns the per-thread step sequences.
func AllSteps(tr *trace.Trace, pl placement.Policy, cores int) [][]Step {
	out := make([][]Step, tr.NumThreads)
	for _, a := range tr.Accesses {
		native := geom.CoreID(a.Thread % cores)
		home := pl.Touch(a.Addr, native)
		out[a.Thread] = append(out[a.Thread], Step{Home: home, Addr: a.Addr, Write: a.Write})
	}
	return out
}

// EvaluateScheme computes the §3 model cost of a decision scheme on one
// thread's steps in O(N): replay the trace, consult the scheme's per-thread
// predictor on every non-local access, accumulate migration/remote-access
// costs. This is the "computing the equivalent cost of a specific decision
// ... is O(N)" procedure from the paper.
//
// The predictor sees the same AccessInfo a full engine run would provide
// (except cache state, which the model ignores).
func EvaluateScheme(cfg core.Config, steps []Step, start geom.CoreID, scheme core.Scheme, thread int) int64 {
	at := start
	var total int64
	pred := scheme.NewPredictor(thread)
	for i, s := range steps {
		pred.Observe(s.Home, s.Addr)
		if at == s.Home {
			continue
		}
		info := core.AccessInfo{
			Thread: thread,
			Index:  i,
			Cur:    at,
			Home:   s.Home,
			Native: start,
			Access: trace.Access{Thread: thread, Addr: s.Addr, Write: s.Write},
		}
		switch pred.Decide(info) {
		case core.Migrate:
			total += cfg.MigrationCost(at, s.Home, cfg.ContextBits)
			at = s.Home
		case core.RemoteAccess:
			total += cfg.RemoteAccessCost(at, s.Home, s.Write)
		}
	}
	pred.Flush()
	return total
}

// EvaluateDecisions replays an explicit per-non-local-access decision list
// (e.g. an oracle Result) and returns its model cost. It panics if the list
// length does not match the number of non-local accesses, which indicates a
// trace/placement mismatch.
//
//em2:reference-only the oracle tests price decision sequences against the DP with it
func EvaluateDecisions(cfg core.Config, steps []Step, start geom.CoreID, decisions []core.Decision) int64 {
	at := start
	var total int64
	next := 0
	for _, s := range steps {
		if at == s.Home {
			continue
		}
		if next >= len(decisions) {
			panic("oracle: decision list shorter than non-local access count")
		}
		switch decisions[next] {
		case core.Migrate:
			total += cfg.MigrationCost(at, s.Home, cfg.ContextBits)
			at = s.Home
		case core.RemoteAccess:
			total += cfg.RemoteAccessCost(at, s.Home, s.Write)
		}
		next++
	}
	if next != len(decisions) {
		panic("oracle: decision list longer than non-local access count")
	}
	return total
}

// TraceResult aggregates the optimum over all threads of a trace.
type TraceResult struct {
	Cost      int64
	Decisions map[int][]core.Decision // per thread, for core.NewFixed
}

// OptimalForTrace runs the sparse DP per thread and sums the per-thread
// optima — legitimate because the §3 model treats threads independently
// ("considers one thread at a time").
func OptimalForTrace(cfg core.Config, tr *trace.Trace, pl placement.Policy) TraceResult {
	steps := AllSteps(tr, pl, cfg.Mesh.Cores())
	res := TraceResult{Decisions: make(map[int][]core.Decision)}
	for t := 0; t < tr.NumThreads; t++ {
		if len(steps[t]) == 0 {
			continue
		}
		r := OptimalSparse(cfg, steps[t], geom.CoreID(t%cfg.Mesh.Cores()))
		res.Cost += r.Cost
		res.Decisions[t] = r.Decisions
	}
	return res
}

// SchemeCostForTrace evaluates a scheme across all threads of a trace under
// the model (sum of per-thread O(N) evaluations). schemeFactory must return
// a fresh scheme per call when the scheme is stateful, so threads don't
// share predictor state they wouldn't share in hardware.
func SchemeCostForTrace(cfg core.Config, tr *trace.Trace, pl placement.Policy, schemeFactory func() core.Scheme) int64 {
	steps := AllSteps(tr, pl, cfg.Mesh.Cores())
	var total int64
	for t := 0; t < tr.NumThreads; t++ {
		if len(steps[t]) == 0 {
			continue
		}
		total += EvaluateScheme(cfg, steps[t], geom.CoreID(t%cfg.Mesh.Cores()), schemeFactory(), t)
	}
	return total
}
