package telemetry

import (
	"fmt"

	"repro/internal/transport"
)

// Violation is one invariant failure found by a Checker, stamped with the
// virtual cycle of the offending sample — the FINDINGS-style record
// em2soak's report carries.
type Violation struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Checker asserts the machine's telemetry invariants over a stream of
// samples:
//
//   - monotone counters: every per-core counter is non-decreasing between
//     consecutive samples of the same core (a counter that moves backward
//     means sampling disturbed the machine, or the merge misattributed a
//     core);
//   - non-negative gauges: the guest pool never drifts below zero;
//   - quiescent zeros: whenever the caller declares the machine quiescent
//     (no in-flight jobs), every guest gauge and both shard-footprint
//     gauges must read exactly zero — every retire emptied the machine;
//   - bounded memory: with MaxWords set, the words gauge never exceeds it
//     (the serve bound: one job's region, in words).
//
// The zero value is ready; feed samples in order via Check.
type Checker struct {
	// MaxWords bounds the words gauge when positive.
	MaxWords int64

	prev    transport.Sample
	hasPrev bool
	checked int
	viols   []Violation
}

// Check asserts the invariants on s. quiescent declares that the machine
// has no in-flight work at this sample, arming the quiescent-zero checks.
func (c *Checker) Check(s *transport.Sample, quiescent bool) {
	c.checked++
	for i, g := range s.Guests {
		if g < 0 {
			c.fail(s.Cycle, "guest-drift", "core %d guest gauge %d below zero", coreOf(s, i), g)
		} else if quiescent && g != 0 {
			c.fail(s.Cycle, "guest-drift", "core %d holds %d guests while quiescent", coreOf(s, i), g)
		}
	}
	if s.Words < 0 || s.Events < 0 {
		c.fail(s.Cycle, "gauge-negative", "shard footprint words=%d events=%d", s.Words, s.Events)
	}
	if quiescent && (s.Words != 0 || s.Events != 0) {
		c.fail(s.Cycle, "unbounded-memory", "quiescent machine still holds %d words, %d events (retirement leaked)", s.Words, s.Events)
	}
	if c.MaxWords > 0 && s.Words > c.MaxWords {
		c.fail(s.Cycle, "unbounded-memory", "words gauge %d exceeds the %d-word window bound", s.Words, c.MaxWords)
	}
	if c.hasPrev && len(c.prev.PerCore) == len(s.PerCore) {
		for i := range s.PerCore {
			now, was := &s.PerCore[i], &c.prev.PerCore[i]
			if now.Core != was.Core {
				c.fail(s.Cycle, "counter-misattributed", "sample row %d is core %d, was core %d", i, now.Core, was.Core)
				continue
			}
			if now.Instructions < was.Instructions || now.LocalOps < was.LocalOps ||
				now.RemoteReads < was.RemoteReads || now.RemoteWrites < was.RemoteWrites ||
				now.Migrations < was.Migrations || now.Evictions < was.Evictions ||
				now.ContextFlits < was.ContextFlits || now.Overcommits < was.Overcommits {
				c.fail(s.Cycle, "counter-regressed", "core %d: a counter moved backward between samples", now.Core)
			}
		}
	}
	// Deep-copy the rows: the caller reuses its Sample buffers.
	c.prev.Cycle = s.Cycle
	c.prev.PerCore = append(c.prev.PerCore[:0], s.PerCore...)
	c.prev.Guests = append(c.prev.Guests[:0], s.Guests...)
	c.prev.Words, c.prev.Events = s.Words, s.Events
	c.hasPrev = true
}

func (c *Checker) fail(cycle uint64, kind, format string, args ...any) {
	c.viols = append(c.viols, Violation{Cycle: cycle, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Violations returns every failure found so far, in sample order.
func (c *Checker) Violations() []Violation { return c.viols }

// Checked returns how many samples were fed in.
func (c *Checker) Checked() int { return c.checked }

// coreOf names the core behind guest-gauge index i for diagnostics.
func coreOf(s *transport.Sample, i int) int64 {
	if i < len(s.PerCore) {
		return int64(s.PerCore[i].Core)
	}
	return int64(i)
}
