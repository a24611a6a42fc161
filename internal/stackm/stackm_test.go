package stackm

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/placement"
	"repro/internal/workload"
)

func modelConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mesh = geom.NewMesh(4, 4)
	cfg.GuestContexts = 0
	cfg.ChargeMemory = false
	return cfg
}

func TestConfigValidateAndCtxBits(t *testing.T) {
	scfg := DefaultConfig()
	if err := scfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := scfg.CtxBits(0); got != 64 {
		t.Errorf("CtxBits(0) = %d, want 64 (pc+meta)", got)
	}
	if got := scfg.CtxBits(2); got != 64+2*32 {
		t.Errorf("CtxBits(2) = %d", got)
	}
	// §4's whole point: a shallow stack migration is far below the 1056-bit
	// register-file context.
	reg := core.DefaultConfig().ContextBits
	if scfg.CtxBits(2) >= reg/4 {
		t.Errorf("depth-2 stack context %d not << register context %d", scfg.CtxBits(2), reg)
	}
	// And a full 16-entry carry approaches but does not exceed... it may
	// be smaller than the register file; just check monotonicity.
	for k := 1; k <= scfg.Capacity; k++ {
		if scfg.CtxBits(k) <= scfg.CtxBits(k-1) {
			t.Fatalf("CtxBits not monotone at %d", k)
		}
	}
	for _, bad := range []Config{{Capacity: 0, PCBits: 32, WordBits: 32}, {Capacity: 4, PCBits: 0, WordBits: 32}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad config %+v validated", bad)
		}
	}
}

func TestCtxBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CtxBits(-1) did not panic")
		}
	}()
	DefaultConfig().CtxBits(-1)
}

func TestDepthRange(t *testing.T) {
	scfg := Config{Capacity: 8, PCBits: 32, WordBits: 32}
	tests := []struct {
		delta    int8
		min, max int
	}{
		{0, 0, 8},
		{2, 0, 6},  // pushing 2: at most 6 carried
		{-3, 3, 8}, // popping 3: at least 3 carried
	}
	for _, tt := range tests {
		min, max := scfg.DepthRange(tt.delta)
		if min != tt.min || max != tt.max {
			t.Errorf("DepthRange(%d) = [%d,%d], want [%d,%d]", tt.delta, min, max, tt.min, tt.max)
		}
	}
	if !scfg.Feasible(3, -3) || scfg.Feasible(2, -3) || scfg.Feasible(7, 2) {
		t.Error("Feasible wrong")
	}
}

func TestDepthSchemesRespectRange(t *testing.T) {
	info := DepthInfo{Min: 2, Max: 6}
	schemes := []DepthScheme{FixedDepth{K: 0}, FixedDepth{K: 99}, MinimalDepth{}, HalfDepth{Capacity: 16}, FullDepth{}}
	for _, s := range schemes {
		k := s.ChooseDepth(info)
		if k < info.Min || k > info.Max {
			t.Errorf("%s chose %d outside [%d,%d]", s.Name(), k, info.Min, info.Max)
		}
	}
	if (MinimalDepth{}).ChooseDepth(info) != 2 {
		t.Error("minimal should choose Min")
	}
	if (FullDepth{}).ChooseDepth(info) != 6 {
		t.Error("full should choose Max")
	}
}

func TestReplayAllLocalIsFree(t *testing.T) {
	steps := []Step{{Home: 0}, {Home: 0, Delta: 2}, {Home: 0, Delta: -2}}
	c := EvaluateDepthScheme(modelConfig(), DefaultConfig(), steps, 0, FixedDepth{K: 4}, 0)
	if c.Cycles != 0 || c.Migrations != 0 {
		t.Errorf("all-local cost = %+v", c)
	}
}

func TestReplaySingleRemoteRun(t *testing.T) {
	ccfg, scfg := modelConfig(), DefaultConfig()
	steps := []Step{{Home: 5}, {Home: 5, Delta: 1}, {Home: 5, Delta: -1}}
	c := EvaluateDepthScheme(ccfg, scfg, steps, 0, FixedDepth{K: 4}, 0)
	if c.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", c.Migrations)
	}
	want := ccfg.MigrationCost(0, 5, scfg.CtxBits(4))
	if c.Cycles != want {
		t.Errorf("cycles = %d, want %d", c.Cycles, want)
	}
	if c.MeanDepth() != 4 {
		t.Errorf("mean depth = %v", c.MeanDepth())
	}
}

func TestReplayUnderflowForcesReturn(t *testing.T) {
	ccfg, scfg := modelConfig(), DefaultConfig()
	// Carry the minimum (0 for delta 0), then pop 3: underflow at a guest
	// core forces a return migration and a re-departure.
	steps := []Step{{Home: 5, Delta: 0}, {Home: 5, Delta: -3}}
	c := EvaluateDepthScheme(ccfg, scfg, steps, 0, MinimalDepth{}, 0)
	if c.ForcedReturns != 1 {
		t.Errorf("forced returns = %d, want 1", c.ForcedReturns)
	}
	if c.Migrations != 3 { // out, back, out again
		t.Errorf("migrations = %d, want 3", c.Migrations)
	}
	// Carrying enough up front avoids the round trip entirely.
	c2 := EvaluateDepthScheme(ccfg, scfg, steps, 0, FixedDepth{K: 3}, 0)
	if c2.ForcedReturns != 0 || c2.Migrations != 1 {
		t.Errorf("fixed-3: %+v", c2)
	}
	if c2.Cycles >= c.Cycles {
		t.Errorf("avoiding underflow (%d) should beat thrashing (%d)", c2.Cycles, c.Cycles)
	}
}

func TestReplayOverflowForcesReturn(t *testing.T) {
	ccfg := modelConfig()
	scfg := Config{Capacity: 4, PCBits: 32, WordBits: 32, MetaBits: 32}
	// Carry full (4 for delta 0), then push 2: overflow.
	steps := []Step{{Home: 5, Delta: 0}, {Home: 5, Delta: 2}}
	c := EvaluateDepthScheme(ccfg, scfg, steps, 0, FullDepth{}, 0)
	if c.ForcedReturns != 1 {
		t.Errorf("forced returns = %d, want 1", c.ForcedReturns)
	}
}

func TestReplayGoingHomeCarriesHeight(t *testing.T) {
	ccfg, scfg := modelConfig(), DefaultConfig()
	steps := []Step{{Home: 5, Delta: 3}, {Home: 0}}
	c := EvaluateDepthScheme(ccfg, scfg, steps, 0, MinimalDepth{}, 0)
	want := ccfg.MigrationCost(0, 5, scfg.CtxBits(0)) + ccfg.MigrationCost(5, 0, scfg.CtxBits(3))
	if c.Cycles != want {
		t.Errorf("cycles = %d, want %d", c.Cycles, want)
	}
}

func TestReplayGuestToGuest(t *testing.T) {
	ccfg, scfg := modelConfig(), DefaultConfig()
	steps := []Step{{Home: 5, Delta: 2}, {Home: 9, Delta: -1}}
	c := EvaluateDepthScheme(ccfg, scfg, steps, 0, FixedDepth{K: 2}, 0)
	if c.Migrations != 2 || c.ForcedReturns != 0 {
		t.Errorf("cost = %+v", c)
	}
	// Second migration carries height 4 (2 carried + 2 pushed).
	want := ccfg.MigrationCost(0, 5, scfg.CtxBits(2)) + ccfg.MigrationCost(5, 9, scfg.CtxBits(4))
	if c.Cycles != want {
		t.Errorf("cycles = %d, want %d", c.Cycles, want)
	}
}

func TestSchemePanicsOutsideRange(t *testing.T) {
	bad := badScheme{}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range depth accepted")
		}
	}()
	EvaluateDepthScheme(modelConfig(), DefaultConfig(), []Step{{Home: 5, Delta: -2}}, 0, bad, 0)
}

type badScheme struct{}

func (badScheme) Name() string              { return "bad" }
func (badScheme) ChooseDepth(DepthInfo) int { return 0 } // violates Min=2 for delta=-2

// TestDepthDPLowerBoundsSchemes is the §4 analogue of the §3 oracle
// property: the depth DP is an upper bound on the performance of (lower
// bound on the cost of) every depth scheme.
func TestDepthDPLowerBoundsSchemes(t *testing.T) {
	ccfg := modelConfig()
	scfg := Config{Capacity: 6, PCBits: 32, WordBits: 32, MetaBits: 32}
	schemes := []func() DepthScheme{
		func() DepthScheme { return FixedDepth{K: 1} },
		func() DepthScheme { return FixedDepth{K: 3} },
		func() DepthScheme { return FixedDepth{K: 6} },
		func() DepthScheme { return MinimalDepth{} },
		func() DepthScheme { return HalfDepth{Capacity: 6} },
		func() DepthScheme { return FullDepth{} },
	}
	f := func(homes []uint8, deltas []int8) bool {
		n := len(homes)
		if len(deltas) < n {
			n = len(deltas)
		}
		steps := make([]Step, 0, n)
		for i := 0; i < n; i++ {
			d := deltas[i] % 4 // keep |delta| <= capacity
			steps = append(steps, Step{Home: geom.CoreID(int(homes[i]) % 16), Delta: d})
		}
		opt := OptimalDepthCost(ccfg, scfg, steps, 0)
		for _, mk := range schemes {
			c := EvaluateDepthScheme(ccfg, scfg, steps, 0, mk(), 0)
			if c.Cycles < opt {
				t.Logf("scheme %s cost %d beat DP %d on %v", mk().Name(), c.Cycles, opt, steps)
				return false
			}
		}
		return true
	}
	count := 50
	if testing.Short() {
		count = 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

func TestDepthDPOnWorkload(t *testing.T) {
	ccfg := modelConfig()
	scfg := DefaultConfig()
	scale := 32
	if testing.Short() {
		scale = 16
	}
	tr := workload.WithStackDeltas(
		workload.Ocean(workload.Config{Threads: 16, Scale: scale, Iters: 1, Seed: 3}), 7)
	steps := StepsForTrace(tr, placement.NewFirstTouch(4096), ccfg.Mesh.Cores())
	opt := OptimalDepthCostForTrace(ccfg, scfg, steps, ccfg.Mesh.Cores())
	for _, mk := range []func() DepthScheme{
		func() DepthScheme { return FixedDepth{K: 2} },
		func() DepthScheme { return MinimalDepth{} },
		func() DepthScheme { return FullDepth{} },
	} {
		c := SchemeCostForTrace(ccfg, scfg, steps, ccfg.Mesh.Cores(), mk)
		if c.Cycles < opt {
			t.Errorf("%s (%d) beat depth DP (%d)", mk().Name(), c.Cycles, opt)
		}
	}
	if opt <= 0 {
		t.Error("ocean stack workload should have positive optimal cost")
	}
}

// TestStackMigrationCheaperThanRegister reproduces the §4 headline: with
// shallow depths, stack-EM² moves far fewer bits per migration than
// register-file EM².
func TestStackMigrationCheaperThanRegister(t *testing.T) {
	ccfg := modelConfig()
	scfg := DefaultConfig()
	steps := []Step{{Home: 5, Delta: 0}, {Home: 5, Delta: 1}, {Home: 0}}
	stack := EvaluateDepthScheme(ccfg, scfg, steps, 0, MinimalDepth{}, 0)
	regBits := int64(2) * int64(ccfg.ContextBits) // out and back
	if stack.BitsMoved >= regBits {
		t.Errorf("stack bits %d not below register bits %d", stack.BitsMoved, regBits)
	}
}
