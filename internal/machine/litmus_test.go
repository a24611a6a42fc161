package machine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/placement"
)

// litmusConfig is the canonical small platform for litmus runs: 2x2 mesh,
// 64-byte striping (so the generator's stride-64 addresses spread over all
// four homes), tight quantum for scheduling churn.
func litmusConfig() Config {
	return Config{
		Mesh:          geom.NewMesh(2, 2),
		GuestContexts: 2,
		Placement:     placement.NewStriped(64, 4),
		LogEvents:     true,
		Quantum:       8,
	}
}

// runLitmus executes lit once on the in-process machine and validates the
// recorded execution against SC from the preloaded image.
func runLitmus(t *testing.T, cfg Config, lit Litmus) (*Machine, *Result) {
	t.Helper()
	m, err := New(cfg, len(lit.Threads))
	if err != nil {
		t.Fatal(err)
	}
	//em2:unordered-ok: Preload writes each address into its home shard's word table; the final image is order-independent
	for a, v := range lit.Mem {
		m.Preload(a, v, 0)
	}
	res, err := m.Run(lit.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSCFrom(lit.Mem, res.Events); err != nil {
		t.Fatalf("%s: SC violation: %v", lit.Name, err)
	}
	if lit.Check != nil {
		if err := lit.Check(m.Read, res.FinalRegs); err != nil {
			t.Fatalf("%s: %v", lit.Name, err)
		}
	}
	return m, res
}

func TestBuiltinLitmuses(t *testing.T) {
	t.Parallel()
	for _, lit := range []Litmus{
		MessagePassingLitmus(64),
		StoreBufferingLitmus(64),
		AtomicCounterLitmus(6, sized(60, 20)),
	} {
		t.Run(lit.Name, func(t *testing.T) {
			for i := 0; i < sized(10, 3); i++ {
				runLitmus(t, litmusConfig(), lit)
			}
		})
	}
}

// TestRandomLitmusBattery is the randomized litmus generator battery:
// seeded random programs, every execution validated with the SC checker.
// Table-driven over seeds and generator shapes; runs under -race in short
// mode via the CI race job.
func TestRandomLitmusBattery(t *testing.T) {
	t.Parallel()
	shapes := []struct {
		name string
		opts RandOpts
	}{
		{"shared", RandOpts{}},
		{"shared-hot", RandOpts{Threads: 4, Ops: 6, Iters: 6, Addrs: 2}},
		{"private", RandOpts{PrivateWrites: true}},
		{"private-wide", RandOpts{PrivateWrites: true, Threads: 4, Ops: 10, Addrs: 8}},
	}
	seeds := sized(24, 6)
	for _, shape := range shapes {
		for seed := 0; seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", shape.name, seed), func(t *testing.T) {
				lit := RandomLitmus(uint64(seed), shape.opts)
				runLitmus(t, litmusConfig(), lit)
			})
		}
	}
}

// TestRandomLitmusPrivateDeterminism: the PrivateWrites shape promises a
// schedule-independent outcome — two independent runs must agree on every
// final register and the whole memory image. (This is the property the
// differential transport test relies on.)
func TestRandomLitmusPrivateDeterminism(t *testing.T) {
	t.Parallel()
	for seed := 0; seed < sized(8, 3); seed++ {
		lit := RandomLitmus(uint64(seed), RandOpts{PrivateWrites: true})
		m1, r1 := runLitmus(t, litmusConfig(), lit)
		m2, r2 := runLitmus(t, litmusConfig(), lit)
		if !reflect.DeepEqual(r1.FinalRegs, r2.FinalRegs) {
			t.Fatalf("seed %d: final registers differ between runs", seed)
		}
		if !reflect.DeepEqual(m1.MemImage(), m2.MemImage()) {
			t.Fatalf("seed %d: memory images differ between runs", seed)
		}
	}
}

// TestRandomLitmusTerminates pins the generator's termination argument:
// the instruction count of a run is bounded by threads × iters × body, so
// no generated program can spin forever.
func TestRandomLitmusTerminates(t *testing.T) {
	t.Parallel()
	lit := RandomLitmus(1, RandOpts{Threads: 4, Ops: 10, Iters: 6})
	_, res := runLitmus(t, litmusConfig(), lit)
	perThread := int64(2 + 6*(10+2) + 1) // prologue + iters×(body+loop ctl) + halt
	if res.Instructions > int64(len(lit.Threads))*perThread {
		t.Fatalf("instructions = %d, bound %d", res.Instructions, int64(len(lit.Threads))*perThread)
	}
}

// TestRandomLitmusMatchesReference holds RandomLitmus to the generator it
// replaced: the same name, programs and memory image for seeds 0..2000,
// for seeds that math/rand maps to its zero-seed substitute (multiples of
// 2³¹−1), and for seeds at and above 2⁶³ (negative as int64), in both
// write modes and in shapes whose draws run past the tap (273) and past
// the whole register (607).
func TestRandomLitmusMatchesReference(t *testing.T) {
	t.Parallel()
	var seeds []uint64
	for s := range uint64(2001) {
		seeds = append(seeds, s)
	}
	const p = 1<<31 - 1
	for _, k := range []uint64{1, 2, 3, 1 << 20, 1 << 32, math.MaxUint64 / p} {
		seeds = append(seeds, k*p)
	}
	seeds = append(seeds, 1<<63, 1<<63+1, 1<<63+p, math.MaxUint64-p+1, math.MaxUint64-2*p+1, math.MaxUint64-1, math.MaxUint64)
	shapes := []RandOpts{
		{},
		{PrivateWrites: true},
		{Threads: 4, Ops: 64},
		{Threads: 4, Ops: 64, Iters: 2, Addrs: 8, PrivateWrites: true},
	}
	for _, o := range shapes {
		for _, seed := range seeds {
			got, want := RandomLitmus(seed, o), refRandomLitmus(seed, o)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %+v: %+v\nreference %+v", seed, o, got, want)
			}
		}
	}
}

// FuzzLitmusSource compares litmusSource's raw stream with
// math/rand.NewSource's for a fuzzed seed and up to 2000 draws, from a
// fresh source and from one reseeded after a different seed's draws.
func FuzzLitmusSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 89482311, 1<<31 - 1, -(1<<31 - 1), math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws % 2001)
		want := rand.NewSource(seed).(rand.Source64)
		var fresh, reused litmusSource
		reused.Seed(seed ^ 0x5eed)
		for range 1000 {
			reused.Uint64()
		}
		fresh.Seed(seed)
		reused.Seed(seed)
		for k := range n {
			w := want.Uint64()
			if got := fresh.Uint64(); got != w {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, k, got, w)
			}
			if got := reused.Uint64(); got != w {
				t.Fatalf("seed %d draw %d after a reseed: %#x, math/rand %#x", seed, k, got, w)
			}
		}
	})
}
