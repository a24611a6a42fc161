package machine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// CheckSC verifies that a recorded execution is sequentially consistent
// (experiment M1). The witness order for each address is its home shard's
// serialization order (EM² serves every access to an address at one core,
// so this order is total). The check has two parts:
//
//  1. Value legality: replaying each address's events in witness order, every
//     read (and the read half of every RMW) returns the most recent write,
//     and RMWs are atomic (no intervening write between their read and
//     write halves — guaranteed by construction here, surfaced as a value
//     mismatch if ever violated).
//
//  2. Embeddability: the union of program order (per thread) and the
//     per-address witness orders is acyclic, so one global total order
//     explains every thread's observations — the definition of SC.
//
// It returns nil for SC executions and a descriptive error otherwise.
// CheckSC assumes memory starts zeroed; executions that Preload initial
// values must use CheckSCFrom with the preloaded image.
//
//em2:reference-only the SC checker tests call it on zero-initialised executions
func CheckSC(events []Event) error { return CheckSCFrom(nil, events) }

// CheckSCFrom is CheckSC for an execution whose memory began as init
// (preloads are applied before the run and are deliberately not logged as
// events, so value legality must replay from the preloaded image). Each
// call checks with a fresh SCChecker, so concurrent calls are safe; a
// caller that checks one execution after another keeps its own SCChecker.
func CheckSCFrom(init map[uint32]uint32, events []Event) error {
	var c SCChecker
	return c.Check(init, events)
}

// SCChecker is CheckSCFrom with scratch that is reused from one Check to
// the next, so a long-running caller (serve's retirement path) checks each
// job in time O(n log n) in its n events and allocates nothing once the
// scratch has grown to the largest job seen. The happens-before graph is
// program order plus each address's witness order, so every event has at
// most two successors — the next event of its thread and the next event at
// its address — and two index sorts build it without maps. The zero value
// is ready to use; an SCChecker must not be used concurrently.
type SCChecker struct {
	witness []int32 // event indices by (Addr, Home, Seq): each address's witness order
	program []int32 // event indices by (Thread, TSeq): each thread's program order
	nextA   []int32 // successor in the event's witness order, or -1
	nextT   []int32 // successor in the event's program order, or -1
	indeg   []int32
	stack   []int32 // Kahn's ready set
}

// Check verifies events as CheckSCFrom does, with the same verdicts and
// error text, and additionally rejects a log that holds two events with
// the same (Thread, TSeq): program order would not be total.
func (c *SCChecker) Check(init map[uint32]uint32, events []Event) error {
	n := len(events)
	if n == 0 {
		return nil
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("machine: %d events exceed the SC checker's int32 index", n)
	}

	// --- Part 1: per-address value legality in witness order. Addresses
	// are checked in ascending order so an execution with several
	// violations always reports the same one.
	c.witness = iota32(c.witness, n)
	slices.SortFunc(c.witness, func(a, b int32) int {
		x, y := &events[a], &events[b]
		if x.Addr != y.Addr {
			return cmp.Compare(x.Addr, y.Addr)
		}
		if x.Home != y.Home {
			// A single address must have a single home.
			return cmp.Compare(x.Home, y.Home)
		}
		return cmp.Compare(x.Seq, y.Seq)
	})
	for lo := 0; lo < n; {
		addr := events[c.witness[lo]].Addr
		hi := lo + 1
		for hi < n && events[c.witness[hi]].Addr == addr {
			hi++
		}
		evs := c.witness[lo:hi]
		lo = hi
		home := events[evs[0]].Home
		for _, i := range evs[1:] {
			if h := events[i].Home; h != home {
				return fmt.Errorf("machine: address %#x served at two homes (%d and %d): single-home invariant violated",
					addr, home, h)
			}
		}
		cur := init[addr]
		for _, i := range evs {
			e := &events[i]
			switch e.Kind {
			case EvRead:
				if e.Read != cur {
					return fmt.Errorf("machine: thread %d read %#x=%d, witness order says %d",
						e.Thread, addr, e.Read, cur)
				}
			case EvWrite:
				cur = e.Wrote
			case EvRMW:
				if e.Read != cur {
					return fmt.Errorf("machine: thread %d RMW at %#x read %d, witness order says %d (atomicity violated)",
						e.Thread, addr, e.Read, cur)
				}
				cur = e.Wrote
			}
		}
	}

	// --- Part 2: acyclicity of program order ∪ witness orders. Edges join
	// consecutive events of each total order, which is sufficient for
	// cycle detection.
	c.program = iota32(c.program, n)
	slices.SortFunc(c.program, func(a, b int32) int {
		x, y := &events[a], &events[b]
		if x.Thread != y.Thread {
			return cmp.Compare(x.Thread, y.Thread)
		}
		return cmp.Compare(x.TSeq, y.TSeq)
	})
	for k := 1; k < n; k++ {
		x, y := &events[c.program[k-1]], &events[c.program[k]]
		if x.Thread == y.Thread && x.TSeq == y.TSeq {
			return fmt.Errorf("machine: thread %d logged TSeq %d twice: program order is not a total order", x.Thread, x.TSeq)
		}
	}
	c.nextA, c.nextT, c.indeg = fill32(c.nextA, n, -1), fill32(c.nextT, n, -1), fill32(c.indeg, n, 0)
	for k := 1; k < n; k++ {
		if a, b := c.witness[k-1], c.witness[k]; events[a].Addr == events[b].Addr {
			c.nextA[a] = b
			c.indeg[b]++
		}
		if a, b := c.program[k-1], c.program[k]; events[a].Thread == events[b].Thread {
			c.nextT[a] = b
			c.indeg[b]++
		}
	}
	// Kahn's algorithm. The events it orders are exactly those no cycle
	// reaches, so the count it reports does not depend on the visit order.
	stack := c.stack[:0]
	for i, d := range c.indeg {
		if d == 0 {
			stack = append(stack, int32(i))
		}
	}
	seen := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seen++
		for _, w := range [2]int32{c.nextT[v], c.nextA[v]} {
			if w >= 0 {
				if c.indeg[w]--; c.indeg[w] == 0 {
					stack = append(stack, w)
				}
			}
		}
	}
	c.stack = stack
	if seen != n {
		return fmt.Errorf("machine: happens-before graph has a cycle (%d of %d events ordered): execution not sequentially consistent", seen, n)
	}
	return nil
}

// iota32 returns s resized to n and holding 0, 1, ..., n-1.
func iota32(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// fill32 returns s resized to n, reusing its array when it is large
// enough, with every element set to v.
func fill32(s []int32, n int, v int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
