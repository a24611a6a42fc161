package machine

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// refCheckSCFrom is the map-and-sort.Slice SC checker that SCChecker
// replaced, kept verbatim as the fuzz reference: on every log whose
// (Thread, TSeq) pairs are unique, both must give the same verdict and the
// same error text.
func refCheckSCFrom(init map[uint32]uint32, events []Event) error {
	if len(events) == 0 {
		return nil
	}
	// --- Part 1: per-address value legality in witness order.
	byAddr := make(map[uint32][]Event)
	for _, e := range events {
		byAddr[e.Addr] = append(byAddr[e.Addr], e)
	}
	// Addresses are checked in sorted order so an execution with several
	// violations always reports the same one.
	addrs := slices.Sorted(maps.Keys(byAddr))
	for _, addr := range addrs {
		evs := byAddr[addr]
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Home != evs[j].Home {
				// A single address must have a single home.
				return evs[i].Home < evs[j].Home
			}
			return evs[i].Seq < evs[j].Seq
		})
		for i := 1; i < len(evs); i++ {
			if evs[i].Home != evs[0].Home {
				return fmt.Errorf("machine: address %#x served at two homes (%d and %d): single-home invariant violated",
					addr, evs[0].Home, evs[i].Home)
			}
		}
		cur := init[addr]
		for _, e := range evs {
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

	// --- Part 2: acyclicity of program order ∪ witness orders.
	// Nodes are events; build successor edges from consecutive events in
	// each total order, which is sufficient for cycle detection.
	n := len(events)
	idx := make(map[[2]int64]int, n) // (thread, tseq) -> node
	for i, e := range events {
		idx[[2]int64{int64(e.Thread), e.TSeq}] = i
	}
	adj := make([][]int, n)
	indeg := make([]int, n)
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], b)
		indeg[b]++
	}
	// Program order.
	byThread := make(map[int][]Event)
	for _, e := range events {
		byThread[e.Thread] = append(byThread[e.Thread], e)
	}
	// Sorted thread / address iteration keeps the edge insertion order —
	// and with it Kahn's traversal — identical across runs.
	for _, t := range slices.Sorted(maps.Keys(byThread)) {
		evs := byThread[t]
		sort.Slice(evs, func(i, j int) bool { return evs[i].TSeq < evs[j].TSeq })
		for i := 1; i < len(evs); i++ {
			a := idx[[2]int64{int64(evs[i-1].Thread), evs[i-1].TSeq}]
			b := idx[[2]int64{int64(evs[i].Thread), evs[i].TSeq}]
			addEdge(a, b)
		}
	}
	// Witness orders (byAddr slices are already sorted by Seq).
	for _, addr := range addrs {
		evs := byAddr[addr]
		for i := 1; i < len(evs); i++ {
			a := idx[[2]int64{int64(evs[i-1].Thread), evs[i-1].TSeq}]
			b := idx[[2]int64{int64(evs[i].Thread), evs[i].TSeq}]
			addEdge(a, b)
		}
	}
	// Kahn's algorithm.
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("machine: happens-before graph has a cycle (%d of %d events ordered): execution not sequentially consistent", seen, n)
	}
	return nil
}
