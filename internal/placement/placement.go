// Package placement implements the data-placement policies that decide the
// home core of every address under EM². Because each address may be cached
// at exactly one core, the placement fully determines which accesses are
// local and which force a migration or remote access; the paper calls a good
// placement "critical" and evaluates Figure 2 under first-touch placement.
//
// All policies operate at page granularity (first-touch is an OS-page
// mechanism) except Striped, which interleaves at line granularity like a
// conventional S-NUCA address hash.
// Every policy is safe for concurrent use, as Policy's contract promises
// any caller: the static ones are pure functions and FirstTouch locks its
// pages. A machine part calls its policy from one goroutine; the contract
// is for policies shared beyond one part.
package placement

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cache"
	"repro/internal/geom"
)

// Addr aliases the canonical address type.
type Addr = cache.Addr

// Policy maps addresses to home cores. Touch is called in trace order by
// the simulators; for dynamic policies (first-touch) the first Touch of a
// page binds it to the accessing core, while static policies ignore the
// accessor. Implementations must be safe for concurrent use.
type Policy interface {
	// Touch returns the home of a, assigning it first if the policy is
	// dynamic and a's page is unassigned. by is the core performing the
	// access.
	Touch(a Addr, by geom.CoreID) geom.CoreID
	// HomeOf returns the current home of a without assigning. ok is false
	// if the policy has not yet bound a's page.
	HomeOf(a Addr) (home geom.CoreID, ok bool)
	// Name identifies the policy in experiment output.
	Name() string
}

// DefaultPageBytes is the page size used by page-granular policies, matching
// a conventional 4 KB OS page.
const DefaultPageBytes = 4096

// FirstTouch binds each page to the first core that touches it — the policy
// under which the paper's Figure 2 histogram was measured. The zero value is
// unusable; construct with NewFirstTouch.
type FirstTouch struct {
	pageBytes Addr
	mu        sync.Mutex
	pages     map[Addr]geom.CoreID
}

// NewFirstTouch returns a first-touch policy with the given page size (0
// selects DefaultPageBytes).
func NewFirstTouch(pageBytes int) *FirstTouch {
	if pageBytes == 0 {
		pageBytes = DefaultPageBytes
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("placement: page size %d not a power of two", pageBytes))
	}
	return &FirstTouch{pageBytes: Addr(pageBytes), pages: make(map[Addr]geom.CoreID)}
}

func (f *FirstTouch) page(a Addr) Addr { return a / f.pageBytes }

// Touch implements Policy.
func (f *FirstTouch) Touch(a Addr, by geom.CoreID) geom.CoreID {
	p := f.page(a)
	f.mu.Lock()
	defer f.mu.Unlock()
	if home, ok := f.pages[p]; ok {
		return home
	}
	f.pages[p] = by
	return by
}

// HomeOf implements Policy.
//
//em2:reference-only first-touch runs only in tests; Policy needs it
func (f *FirstTouch) HomeOf(a Addr) (geom.CoreID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	home, ok := f.pages[f.page(a)]
	return home, ok
}

// Name implements Policy.
func (f *FirstTouch) Name() string { return "first-touch" }

// Striped interleaves consecutive lines across cores round-robin, the
// S-NUCA-style static hash used as a placement baseline.
type Striped struct {
	lineShift uint // log2 of the line size
	cores     int
}

// NewStriped returns a line-interleaved placement over n cores.
func NewStriped(lineBytes, cores int) *Striped {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("placement: line size %d not a power of two", lineBytes))
	}
	if cores <= 0 {
		panic(fmt.Sprintf("placement: invalid core count %d", cores))
	}
	return &Striped{lineShift: uint(bits.TrailingZeros(uint(lineBytes))), cores: cores}
}

// Touch implements Policy.
func (s *Striped) Touch(a Addr, _ geom.CoreID) geom.CoreID {
	home, _ := s.HomeOf(a)
	return home
}

// HomeOf implements Policy.
func (s *Striped) HomeOf(a Addr) (geom.CoreID, bool) {
	return geom.CoreID((a >> s.lineShift) % Addr(s.cores)), true
}

// Name implements Policy.
func (s *Striped) Name() string { return "striped" }

// PageStriped interleaves pages (rather than lines) across cores.
type PageStriped struct {
	pageShift uint // log2 of the page size
	cores     int
	// mask is cores-1 when cores is a power of two above 1, so the home
	// is the page number masked; 0 otherwise, and HomeOf divides.
	mask Addr
}

// NewPageStriped returns a page-interleaved placement over n cores.
func NewPageStriped(pageBytes, cores int) *PageStriped {
	if pageBytes == 0 {
		pageBytes = DefaultPageBytes
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("placement: page size %d not a power of two", pageBytes))
	}
	if cores <= 0 {
		panic(fmt.Sprintf("placement: invalid core count %d", cores))
	}
	s := &PageStriped{pageShift: uint(bits.TrailingZeros(uint(pageBytes))), cores: cores}
	if cores&(cores-1) == 0 {
		s.mask = Addr(cores - 1)
	}
	return s
}

// Touch implements Policy.
func (s *PageStriped) Touch(a Addr, _ geom.CoreID) geom.CoreID {
	home, _ := s.HomeOf(a)
	return home
}

// HomeOf implements Policy.
func (s *PageStriped) HomeOf(a Addr) (geom.CoreID, bool) {
	if s.mask != 0 {
		return geom.CoreID((a >> s.pageShift) & s.mask), true
	}
	return geom.CoreID((a >> s.pageShift) % Addr(s.cores)), true
}

// Name implements Policy.
func (s *PageStriped) Name() string { return "page-striped" }
