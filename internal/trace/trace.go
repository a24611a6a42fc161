// Package trace defines the memory access traces that drive every
// trace-based simulator in this repository. The paper's analytical model
// (§3) "assumes knowledge of the full memory trace of the application as
// well as the address-to-core data placement"; this package is that trace:
// an ordered sequence of per-thread reads and writes, with optional stack
// metadata for the stack-machine experiments of §4.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/cache"
)

// Addr aliases the canonical address type.
type Addr = cache.Addr

// Access is one memory reference.
type Access struct {
	Thread int  // issuing thread, 0-based
	Addr   Addr // byte address
	Write  bool
	// StackDelta is the net expression-stack height change of the
	// instruction run ending at this access (pushes − pops), used by the
	// stack-machine depth experiments of §4. Register-file traces leave it 0.
	StackDelta int8
}

// Trace is an ordered multi-threaded memory trace. The order is the global
// interleaving the generators produced; per-thread projections preserve it.
type Trace struct {
	Name       string
	NumThreads int
	WordBytes  int // access granularity; 4 for the paper's 32-bit machine
	Accesses   []Access
}

// New returns an empty trace for the given thread count.
func New(name string, numThreads int) *Trace {
	if numThreads <= 0 {
		panic(fmt.Sprintf("trace: invalid thread count %d", numThreads))
	}
	return &Trace{Name: name, NumThreads: numThreads, WordBytes: 4}
}

// Append adds one access. It panics if the thread index is out of range,
// since a malformed generator is a programming error.
func (t *Trace) Append(a Access) {
	if a.Thread < 0 || a.Thread >= t.NumThreads {
		panic(fmt.Sprintf("trace: access by thread %d in %d-thread trace", a.Thread, t.NumThreads))
	}
	t.Accesses = append(t.Accesses, a)
}

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// PerThread splits the trace into per-thread projections, preserving order.
// The result always has NumThreads entries, possibly empty.
func (t *Trace) PerThread() [][]Access {
	out := make([][]Access, t.NumThreads)
	counts := make([]int, t.NumThreads)
	for _, a := range t.Accesses {
		counts[a.Thread]++
	}
	for i, c := range counts {
		out[i] = make([]Access, 0, c)
	}
	for _, a := range t.Accesses {
		out[a.Thread] = append(out[a.Thread], a)
	}
	return out
}

// Validate checks structural invariants: thread indices in range and a
// positive word size. Generators call this before handing traces to
// simulators.
func (t *Trace) Validate() error {
	if t.NumThreads <= 0 {
		return fmt.Errorf("trace %q: bad thread count %d", t.Name, t.NumThreads)
	}
	if t.WordBytes <= 0 {
		return fmt.Errorf("trace %q: bad word size %d", t.Name, t.WordBytes)
	}
	for i, a := range t.Accesses {
		if a.Thread < 0 || a.Thread >= t.NumThreads {
			return fmt.Errorf("trace %q: access %d has thread %d outside [0,%d)", t.Name, i, a.Thread, t.NumThreads)
		}
	}
	return nil
}

// Summary holds aggregate statistics of a trace.
type Summary struct {
	Accesses    int
	Writes      int
	Threads     int
	UniqueAddrs int
	UniquePages int // 4 KB pages
	SharedAddrs int // addresses touched by more than one thread
}

// Summarize computes aggregate statistics.
func (t *Trace) Summarize() Summary {
	type addrInfo struct {
		firstThread int
		shared      bool
	}
	addrs := make(map[Addr]*addrInfo, len(t.Accesses)/4+1)
	pages := make(map[Addr]struct{})
	s := Summary{Threads: t.NumThreads, Accesses: len(t.Accesses)}
	for _, a := range t.Accesses {
		if a.Write {
			s.Writes++
		}
		pages[a.Addr/4096] = struct{}{}
		if info, ok := addrs[a.Addr]; ok {
			if info.firstThread != a.Thread {
				info.shared = true
			}
		} else {
			addrs[a.Addr] = &addrInfo{firstThread: a.Thread}
		}
	}
	s.UniqueAddrs = len(addrs)
	s.UniquePages = len(pages)
	//em2:unordered-ok: counting shared addresses; the sum is commutative
	for _, info := range addrs {
		if info.shared {
			s.SharedAddrs++
		}
	}
	return s
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("accesses=%d writes=%d threads=%d uniqueAddrs=%d pages=%d shared=%d",
		s.Accesses, s.Writes, s.Threads, s.UniqueAddrs, s.UniquePages, s.SharedAddrs)
}

// Interleave merges per-thread access streams round-robin (one access per
// thread per turn) into a single trace, the deterministic global order used
// by the trace-driven simulators.
func Interleave(name string, streams [][]Access) *Trace {
	t := New(name, len(streams))
	idx := make([]int, len(streams))
	for {
		progressed := false
		for th := range streams {
			if idx[th] < len(streams[th]) {
				a := streams[th][idx[th]]
				a.Thread = th
				t.Append(a)
				idx[th]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return t
}

// Touched returns the sorted set of unique addresses in the trace.
//
//em2:reference-only the trace tests check address sets with it
func (t *Trace) Touched() []Addr {
	set := make(map[Addr]struct{})
	for _, a := range t.Accesses {
		set[a.Addr] = struct{}{}
	}
	out := make([]Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
