package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestVNetForCoversAllKinds(t *testing.T) {
	kinds := []Kind{
		KindMigration, KindEviction, KindRemoteRead, KindRemoteWrite,
		KindRemoteReadRep, KindRemoteWriteAck, KindMemRead, KindMemWrite, KindMemRep,
	}
	seen := make(map[VNet]bool)
	for _, k := range kinds {
		v := VNetFor(k)
		if !v.Valid() {
			t.Errorf("VNetFor(%v) = %v invalid", k, v)
		}
		seen[v] = true
	}
	if len(seen) != int(NumVNets) {
		t.Errorf("message kinds cover %d virtual networks, want %d", len(seen), NumVNets)
	}
}

func TestSixVirtualNetworks(t *testing.T) {
	// The paper: "requiring six virtual channels in total".
	if NumVNets != 6 {
		t.Fatalf("NumVNets = %d, want 6 per the paper", NumVNets)
	}
}

// TestVNetDependencyDAG verifies the deadlock-freedom precondition: the
// message-dependency relation between virtual networks must be acyclic, and
// every chain must terminate in a network whose messages are consumed
// unconditionally (no outgoing dependency).
func TestVNetDependencyDAG(t *testing.T) {
	// Floyd-Warshall style reachability over 6 nodes.
	var reach [NumVNets][NumVNets]bool
	for a := VNet(0); a < NumVNets; a++ {
		for b := VNet(0); b < NumVNets; b++ {
			reach[a][b] = DependsOn(a, b)
		}
	}
	for k := VNet(0); k < NumVNets; k++ {
		for a := VNet(0); a < NumVNets; a++ {
			for b := VNet(0); b < NumVNets; b++ {
				if reach[a][k] && reach[k][b] {
					reach[a][b] = true
				}
			}
		}
	}
	for a := VNet(0); a < NumVNets; a++ {
		if reach[a][a] {
			t.Errorf("virtual network %v participates in a dependency cycle", a)
		}
	}
	// Terminal networks: eviction, remote-rep, mem-rep must depend on nothing.
	for _, term := range []VNet{VNEviction, VNRemoteRep, VNMemRep} {
		for b := VNet(0); b < NumVNets; b++ {
			if DependsOn(term, b) {
				t.Errorf("terminal network %v depends on %v", term, b)
			}
		}
	}
}

func TestVNetStrings(t *testing.T) {
	if VNMigration.String() != "migration" || VNMemRep.String() != "mem-rep" {
		t.Error("vnet names wrong")
	}
	if VNet(99).String() != "vnet(99)" {
		t.Errorf("out-of-range vnet string = %q", VNet(99).String())
	}
	if KindRemoteRead.String() != "remote-read" {
		t.Errorf("kind string = %q", KindRemoteRead.String())
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("kind string = %q", Kind(99).String())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{FlitBits: 0, PerHopCycles: 1},
		{FlitBits: 128, PerHopCycles: 0},
		{FlitBits: 128, PerHopCycles: 1, InjectCycles: -1},
		{FlitBits: 128, PerHopCycles: 1, EjectCycles: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestFlits(t *testing.T) {
	c := Config{FlitBits: 128, PerHopCycles: 2, InjectCycles: 1, EjectCycles: 1}
	tests := []struct {
		bits, want int
	}{
		{0, 1},    // head flit only
		{1, 2},    // head + 1 body
		{128, 2},  // exactly one body flit
		{129, 3},  // spills into a second body flit
		{1024, 9}, // 1-Kbit context: 8 body flits + head
		{2048, 17},
	}
	for _, tt := range tests {
		if got := c.Flits(tt.bits); got != tt.want {
			t.Errorf("Flits(%d) = %d, want %d", tt.bits, got, tt.want)
		}
	}
}

func TestLatencyFormula(t *testing.T) {
	c := DefaultConfig() // 128-bit flits, 2 cyc/hop, 1+1 inject/eject
	// 1-Kbit context over 7 hops: 1 + 14 + (9-1) + 1 = 24 cycles.
	if got := c.Latency(7, 1024); got != 24 {
		t.Errorf("Latency(7,1024) = %d, want 24", got)
	}
	// A one-word remote request over the same distance is much cheaper:
	// 64-bit addr+word payload: flits=2, 1 + 14 + 1 + 1 = 17.
	if got := c.Latency(7, 64); got != 17 {
		t.Errorf("Latency(7,64) = %d, want 17", got)
	}
	// Zero-hop (local) message still pays inject/eject + serialization.
	if got := c.Latency(0, 0); got != 2 {
		t.Errorf("Latency(0,0) = %d, want 2", got)
	}
}

func TestLatencyMonotone(t *testing.T) {
	c := DefaultConfig()
	f := func(h1, h2, p1, p2 uint8) bool {
		ha, hb := int(h1), int(h2)
		pa, pb := int(p1)*8, int(p2)*8
		if ha > hb {
			ha, hb = hb, ha
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return c.Latency(ha, pa) <= c.Latency(hb, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrafficProxy(t *testing.T) {
	c := DefaultConfig()
	// Traffic scales with both flit count and hops.
	if got := c.Traffic(7, 1024); got != 9*7 {
		t.Errorf("Traffic(7,1024) = %d, want 63", got)
	}
	if got := c.Traffic(0, 1024); got != 0 {
		t.Errorf("local traffic = %d, want 0", got)
	}
}

func TestDependsOnPanicsNever(t *testing.T) {
	for a := VNet(0); a < NumVNets; a++ {
		for b := VNet(0); b < NumVNets; b++ {
			DependsOn(a, b) // must not panic
		}
	}
}

func TestVNetForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("VNetFor(unknown) did not panic")
		}
	}()
	VNetFor(Kind(99))
}

func TestFlitsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Flits(-1) did not panic")
		}
	}()
	DefaultConfig().Flits(-1)
}

func TestLatencyNegativeHopsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Latency(-1,..) did not panic")
		}
	}()
	DefaultConfig().Latency(-1, 0)
}

func TestGeomIntegration(t *testing.T) {
	m := geom.SquareMesh(64)
	c := DefaultConfig()
	// Worst-case one-way migration on 8x8 with a 1-Kbit context.
	worst := c.Latency(m.Diameter(), 1024)
	if worst != 1+14*2+8+1 {
		t.Errorf("worst-case migration latency = %d, want 38", worst)
	}
}
