package machine

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestPeekDoesNotBindPlacement pins the read-only contract of Part.Peek:
// inspecting an address no thread has touched must not bind its page under
// a dynamic placement. The old implementation resolved the home via
// place.touch(addr, 0), which first-touch-bound the page to core 0 — so a
// later Preload by core 2 would land the data at the wrong home.
func TestPeekDoesNotBindPlacement(t *testing.T) {
	t.Parallel()
	ft := placement.NewFirstTouch(64)
	cfg := testConfig()
	cfg.Placement = ft
	tr := transport.NewLocal(cfg.Mesh.Cores(), 1)
	p, err := NewPart(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	const addr = 0x200
	if v, ok := p.Peek(addr); ok || v != 0 {
		t.Fatalf("Peek of untouched addr = (%d, %v), want (0, false)", v, ok)
	}
	if home, ok := ft.HomeOf(cache.Addr(addr)); ok {
		t.Fatalf("Peek bound untouched page to core %d", home)
	}

	// First touch after the peek must still win: Preload by core 2 homes the
	// page at core 2, and Peek now sees the stored word there.
	p.Preload(addr, 99, geom.CoreID(2))
	if home, ok := ft.HomeOf(cache.Addr(addr)); !ok || home != 2 {
		t.Fatalf("home after Preload by core 2 = (%d, %v), want (2, true)", home, ok)
	}
	if v, ok := p.Peek(addr); !ok || v != 99 {
		t.Fatalf("Peek after Preload = (%d, %v), want (99, true)", v, ok)
	}
}

// TestSampleEncodeZeroAlloc pins the telemetry tick at zero allocations: a
// 64-core part snapshotted into a reused Sample and rendered as
// line-protocol points into a reused buffer — what one serve-loop sample
// costs the machine — so periodic sampling can never become a per-tick
// allocation tax on a soak.
func TestSampleEncodeZeroAlloc(t *testing.T) {
	mesh := geom.NewMesh(8, 8)
	cfg := Config{Mesh: mesh, Placement: placement.NewStriped(64, mesh.Cores())}
	part, err := NewPart(cfg, transport.NewLocal(mesh.Cores(), 4))
	if err != nil {
		t.Fatal(err)
	}
	var s transport.Sample
	part.SampleInto(&s)
	buf := telemetry.AppendSamplePoints(nil, &s, 1)
	if len(s.PerCore) != mesh.Cores() || len(buf) == 0 {
		t.Fatalf("sampled %d cores into %d bytes, want %d cores", len(s.PerCore), len(buf), mesh.Cores())
	}
	if n := testing.AllocsPerRun(100, func() {
		part.SampleInto(&s)
		buf = telemetry.AppendSamplePoints(buf[:0], &s, 1)
	}); n != 0 {
		t.Errorf("SampleInto + AppendSamplePoints into reused storage: %.0f allocs, want 0", n)
	}
}

// TestCountersPublishedBeforeHalt: per-instruction counters reach the
// core's atomics once per execution slice, and the halting slice's before
// the halt report, so a driver that samples the moment a thread halts sees
// every instruction it ran.
func TestCountersPublishedBeforeHalt(t *testing.T) {
	tr := transport.NewLocal(1, 1)
	part, err := NewPart(Config{Mesh: geom.NewMesh(1, 1), Placement: placement.NewStriped(64, 1)}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// One slice: two local memory ops among four instructions.
	threads := []ThreadSpec{{Program: isa.MustAssemble(`
		addi r1, r0, 1
		sw   r1, 0(r0)
		lw   r2, 0(r0)
		halt
	`)}}
	seen := make(chan transport.CoreMetrics, 1)
	if err := part.Start(threads, func(transport.HaltMsg) {
		s, _ := part.Sample()
		seen <- s.PerCore[0]
	}); err != nil {
		t.Fatal(err)
	}
	if err := Inject(threads, 1, tr.SendEviction); err != nil {
		t.Fatal(err)
	}
	got := <-seen
	part.Stop()
	if got.Instructions != 4 || got.LocalOps != 2 {
		t.Fatalf("sampled at the halt report: %d instructions, %d local ops; want 4 and 2", got.Instructions, got.LocalOps)
	}
}

// TestMachineRunCopiesNoImage: Machine.Run returns counters, registers and
// events, never the memory image, so it must not copy the image either —
// the allocations of a run cannot grow with the words preloaded.
func TestMachineRunCopiesNoImage(t *testing.T) {
	mallocs := func(words int) uint64 {
		m, err := New(Config{Mesh: geom.NewMesh(2, 2), Placement: placement.NewStriped(64, 4)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < words; a++ {
			m.Preload(uint32(4*a), 1, 0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Run([]ThreadSpec{{Program: isa.MustAssemble("halt")}}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// The fewest of three runs each, so a stray runtime allocation cannot
	// decide the verdict.
	least := func(words int) uint64 { return min(mallocs(words), mallocs(words), mallocs(words)) }
	if small, large := least(1), least(50_000); large > small+16 {
		t.Errorf("Machine.Run: %d allocations with 50 000 preloaded words, %d with one; the image is being copied", large, small)
	}
}
