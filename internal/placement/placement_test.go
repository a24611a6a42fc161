package placement

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestFirstTouchBindsOnce(t *testing.T) {
	p := NewFirstTouch(4096)
	if home := p.Touch(100, 5); home != 5 {
		t.Errorf("first touch = %d, want 5", home)
	}
	// Second toucher of the same page does not re-bind.
	if home := p.Touch(200, 9); home != 5 {
		t.Errorf("second touch rebound to %d", home)
	}
	// A different page binds independently.
	if home := p.Touch(4096, 9); home != 9 {
		t.Errorf("new page home = %d, want 9", home)
	}
	if len(p.pages) != 2 {
		t.Errorf("%d pages bound, want 2", len(p.pages))
	}
}

// TestFirstTouchConcurrent: FirstTouch is the one dynamic policy, and
// Policy's contract makes every implementation safe for concurrent use by
// callers outside the machine — one policy shared by several parts or
// goroutines. (A part itself calls it only from its executor.) Goroutines
// touching and peeking overlapping pages in different orders must bind
// each page once, to one of its touchers, and all see that same home.
func TestFirstTouchConcurrent(t *testing.T) {
	const goroutines, pages = 8, 64
	f := NewFirstTouch(64)
	homes := make([][pages]geom.CoreID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pages; i++ {
				// Each goroutine walks the pages in its own order, at its
				// own offset inside each page.
				pg := (i*7 + g*5) % pages
				a := Addr(pg*64 + g)
				if h, ok := f.HomeOf(a); ok && h >= goroutines {
					t.Errorf("page %d homed at %d before any toucher bound it", pg, h)
				}
				homes[g][pg] = f.Touch(a, geom.CoreID(g))
			}
		}()
	}
	wg.Wait()
	if len(f.pages) != pages {
		t.Fatalf("%d pages bound, want %d", len(f.pages), pages)
	}
	for pg := 0; pg < pages; pg++ {
		home, ok := f.HomeOf(Addr(pg * 64))
		if !ok || home >= goroutines {
			t.Fatalf("page %d: home %d, %v; want one of its touchers", pg, home, ok)
		}
		for g := range homes {
			if homes[g][pg] != home {
				t.Errorf("page %d: goroutine %d saw home %d, HomeOf says %d", pg, g, homes[g][pg], home)
			}
		}
	}
}

func TestFirstTouchHomeOf(t *testing.T) {
	p := NewFirstTouch(0) // default page size
	if _, ok := p.HomeOf(42); ok {
		t.Error("unbound page reported a home")
	}
	p.Touch(42, 3)
	home, ok := p.HomeOf(42 + 1000) // same 4K page
	if !ok || home != 3 {
		t.Errorf("HomeOf = %d,%v", home, ok)
	}
}

// Property (DESIGN.md §6): first-touch is deterministic — replaying the same
// (addr, core) sequence yields the same homes.
func TestFirstTouchDeterministic(t *testing.T) {
	f := func(addrs []uint32, cores []uint8) bool {
		if len(addrs) == 0 || len(cores) == 0 {
			return true
		}
		a, b := NewFirstTouch(1024), NewFirstTouch(1024)
		for i, ad := range addrs {
			core := geom.CoreID(cores[i%len(cores)] % 64)
			if a.Touch(Addr(ad), core) != b.Touch(Addr(ad), core) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every address has exactly one home once touched — the EM²
// coherence invariant.
func TestSingleHomeInvariant(t *testing.T) {
	policies := []Policy{
		NewFirstTouch(4096),
		NewStriped(64, 16),
		NewPageStriped(4096, 16),
	}
	f := func(ad uint32, c1, c2 uint8) bool {
		for _, p := range policies {
			h1 := p.Touch(Addr(ad), geom.CoreID(c1%16))
			h2 := p.Touch(Addr(ad), geom.CoreID(c2%16))
			if h1 != h2 {
				return false
			}
			got, ok := p.HomeOf(Addr(ad))
			if !ok || got != h1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStriped(t *testing.T) {
	p := NewStriped(64, 4)
	tests := []struct {
		a    Addr
		want geom.CoreID
	}{
		{0, 0}, {63, 0}, {64, 1}, {128, 2}, {192, 3}, {256, 0},
	}
	for _, tt := range tests {
		if got := p.Touch(tt.a, 99); got != tt.want {
			t.Errorf("striped home(%d) = %d, want %d", tt.a, got, tt.want)
		}
	}
	if p.Name() != "striped" {
		t.Error("name")
	}
}

func TestPageStriped(t *testing.T) {
	// Pages 0-3 home on cores 0-3: the binding core's engine tests run on.
	p := NewPageStriped(4096, 4)
	for page, want := range []geom.CoreID{0, 1, 2, 3, 0} {
		if h := p.Touch(Addr(page)*4096+100, 99); h != want {
			t.Errorf("page %d home = %d, want %d", page, h, want)
		}
	}
	p2 := NewPageStriped(0, 4)
	if h := p2.Touch(DefaultPageBytes, 99); h != 1 {
		t.Errorf("default page size wrong: %d", h)
	}
}

// TestPageStripedHomeIsModulo: the home is the page number modulo the
// core count, whether HomeOf masks (a power of two) or divides, over
// addresses above 2^32 too.
func TestPageStripedHomeIsModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cores := range []int{1, 3, 6, 16, 64} {
		p := NewPageStriped(4096, cores)
		for i := 0; i < 1000; i++ {
			a := Addr(rng.Uint64() >> (16 * (i % 3))) // 64, 48 and 32 significant bits
			if got, _ := p.HomeOf(a); got != geom.CoreID((a>>12)%Addr(cores)) {
				t.Fatalf("%d cores: HomeOf(%#x) = %d, want %d", cores, a, got, (a>>12)%Addr(cores))
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewFirstTouch(3)", func() { NewFirstTouch(3) })
	mustPanic("NewStriped(0,4)", func() { NewStriped(0, 4) })
	mustPanic("NewStriped(64,0)", func() { NewStriped(64, 0) })
	mustPanic("NewPageStriped(5,4)", func() { NewPageStriped(5, 4) })
	mustPanic("NewPageStriped(4096,0)", func() { NewPageStriped(4096, 0) })
}

func TestNames(t *testing.T) {
	if NewFirstTouch(0).Name() != "first-touch" {
		t.Error("first-touch name")
	}
	if NewPageStriped(0, 2).Name() != "page-striped" {
		t.Error("page-striped name")
	}
}
