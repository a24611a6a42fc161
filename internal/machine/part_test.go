package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
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
