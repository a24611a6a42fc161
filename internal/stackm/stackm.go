// Package stackm implements the paper's §4 stack-machine EM² architecture
// as a migration *model*: the cost semantics of carrying only the top k
// stack entries on each migration, with stack-cache overflow/underflow at a
// guest core forcing an automatic return migration to the native core ("the
// offending thread will automatically migrate back to its native core
// (where its stack memory is assigned)"), plus the depth decision schemes
// the paper wants evaluated against the depth DP in dp.go.
//
// Modelling choices (recorded in DESIGN.md): the carried depth is chosen
// when a thread departs its native core (where the rest of the stack can be
// flushed to local stack memory "prior to migration"); guest-to-guest and
// guest-to-native migrations carry the current cached height unchanged,
// because away from home there is no local stack memory to flush into.
package stackm

import (
	"fmt"

	"repro/internal/geom"
)

// Config describes the stack architecture.
type Config struct {
	// Capacity is the guest stack-cache size in entries (the most a
	// migration can carry and the most a guest context can hold).
	Capacity int
	// PCBits, WordBits and MetaBits size the migrated context: program
	// counter, one stack entry, and fixed metadata (stack pointers, status).
	PCBits, WordBits, MetaBits int
}

// DefaultConfig models a 16-entry stack cache on the paper's 32-bit
// machine: PC (32) + frame metadata (2×16-bit stack pointers).
func DefaultConfig() Config {
	return Config{Capacity: 16, PCBits: 32, WordBits: 32, MetaBits: 32}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("stackm: non-positive capacity %d", c.Capacity)
	}
	if c.PCBits <= 0 || c.WordBits <= 0 || c.MetaBits < 0 {
		return fmt.Errorf("stackm: invalid bit widths %+v", c)
	}
	return nil
}

// CtxBits returns the migrated context size when carrying depth entries —
// the quantity §4 sets out to minimize. Compare Config.ContextBits of the
// register-file machine (1056 bits): a depth-2 stack migration is an order
// of magnitude smaller.
func (c Config) CtxBits(depth int) int {
	if depth < 0 || depth > c.Capacity {
		panic(fmt.Sprintf("stackm: depth %d outside [0,%d]", depth, c.Capacity))
	}
	return c.PCBits + c.MetaBits + depth*c.WordBits
}

// DepthRange returns the valid carried-depth interval for an access with
// the given stack delta: at least enough entries that the pops succeed
// (depth ≥ −δ) and little enough that the pushes fit (depth+δ ≤ capacity).
func (c Config) DepthRange(delta int8) (min, max int) {
	d := int(delta)
	min = 0
	if d < 0 {
		min = -d
	}
	max = c.Capacity
	if d > 0 {
		max = c.Capacity - d
	}
	if min > max {
		panic(fmt.Sprintf("stackm: delta %d infeasible for capacity %d", d, c.Capacity))
	}
	return min, max
}

// Feasible reports whether executing an access with stack delta d is
// possible with height h cached: no underflow (h+d ≥ 0) and no overflow
// (h+d ≤ capacity).
func (c Config) Feasible(h int, delta int8) bool {
	n := h + int(delta)
	return n >= 0 && n <= c.Capacity
}

// DepthInfo is what a depth-decision scheme sees when a thread departs its
// native core (or re-departs after a forced return).
type DepthInfo struct {
	Thread   int
	From, To geom.CoreID
	// Min and Max bound the legal choice for the access triggering the
	// migration (from Config.DepthRange).
	Min, Max int
	// Delta is the triggering access's stack delta.
	Delta int8
}

// DepthScheme chooses how much of the stack to carry on each migration out
// of the native core — the §4 analogue of the migrate-vs-RA decision.
type DepthScheme interface {
	Name() string
	ChooseDepth(info DepthInfo) int
}

// FixedDepth always carries k entries (clamped to the legal range) — the
// simplest hardware policy.
type FixedDepth struct{ K int }

// Name implements DepthScheme.
func (f FixedDepth) Name() string { return fmt.Sprintf("fixed-%d", f.K) }

// ChooseDepth implements DepthScheme.
func (f FixedDepth) ChooseDepth(info DepthInfo) int {
	k := f.K
	if k < info.Min {
		k = info.Min
	}
	if k > info.Max {
		k = info.Max
	}
	return k
}

// MinimalDepth carries the bare minimum the triggering access needs: the
// cheapest possible migration, maximizing underflow risk on later pops.
type MinimalDepth struct{}

// Name implements DepthScheme.
func (MinimalDepth) Name() string { return "minimal" }

// ChooseDepth implements DepthScheme.
func (MinimalDepth) ChooseDepth(info DepthInfo) int { return info.Min }

// HalfDepth carries half the stack cache: a balance point between migration
// size and forced-return frequency.
type HalfDepth struct{ Capacity int }

// Name implements DepthScheme.
func (h HalfDepth) Name() string { return "half" }

// ChooseDepth implements DepthScheme.
func (h HalfDepth) ChooseDepth(info DepthInfo) int {
	k := h.Capacity / 2
	if k < info.Min {
		k = info.Min
	}
	if k > info.Max {
		k = info.Max
	}
	return k
}

// FullDepth carries as much as fits — closest to the register-file EM², with
// the largest migrations and the fewest underflows.
type FullDepth struct{}

// Name implements DepthScheme.
func (FullDepth) Name() string { return "full" }

// ChooseDepth implements DepthScheme.
func (FullDepth) ChooseDepth(info DepthInfo) int { return info.Max }
