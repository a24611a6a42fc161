package geom

import (
	"testing"
	"testing/quick"
)

func TestNewMeshPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMesh(dims[0], dims[1])
		}()
	}
}

func TestSquareMesh(t *testing.T) {
	tests := []struct {
		n, side int
	}{
		{1, 1}, {2, 2}, {4, 2}, {5, 3}, {9, 3}, {16, 4}, {17, 5}, {64, 8}, {1000, 32},
	}
	for _, tt := range tests {
		m := SquareMesh(tt.n)
		if m.Width() != tt.side || m.Height() != tt.side {
			t.Errorf("SquareMesh(%d) = %v, want %dx%d", tt.n, m, tt.side, tt.side)
		}
		if m.Cores() < tt.n {
			t.Errorf("SquareMesh(%d) has %d cores, want >= %d", tt.n, m.Cores(), tt.n)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	m := NewMesh(8, 8)
	for id := CoreID(0); int(id) < m.Cores(); id++ {
		if got := m.CoreAt(m.CoordOf(id)); got != id {
			t.Fatalf("CoreAt(CoordOf(%d)) = %d", id, got)
		}
	}
}

func TestCoordOfRowMajor(t *testing.T) {
	m := NewMesh(4, 3)
	tests := []struct {
		id CoreID
		c  Coord
	}{
		{0, Coord{0, 0}}, {1, Coord{1, 0}}, {3, Coord{3, 0}},
		{4, Coord{0, 1}}, {7, Coord{3, 1}}, {11, Coord{3, 2}},
	}
	for _, tt := range tests {
		if got := m.CoordOf(tt.id); got != tt.c {
			t.Errorf("CoordOf(%d) = %+v, want %+v", tt.id, got, tt.c)
		}
	}
}

func TestHops(t *testing.T) {
	m := NewMesh(8, 8)
	tests := []struct {
		a, b CoreID
		want int
	}{
		{0, 0, 0},
		{0, 7, 7},
		{0, 56, 7},
		{0, 63, 14},
		{9, 18, 2},  // (1,1) -> (2,2)
		{63, 0, 14}, // symmetric
	}
	for _, tt := range tests {
		if got := m.Hops(tt.a, tt.b); got != tt.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestHopsSymmetricAndTriangle(t *testing.T) {
	m := NewMesh(5, 7)
	f := func(a, b, c uint8) bool {
		x := CoreID(int(a) % m.Cores())
		y := CoreID(int(b) % m.Cores())
		z := CoreID(int(c) % m.Cores())
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		if m.Hops(x, y) < 0 {
			return false
		}
		if (m.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiameter(t *testing.T) {
	if got := NewMesh(8, 8).Diameter(); got != 14 {
		t.Errorf("8x8 diameter = %d, want 14", got)
	}
	if got := NewMesh(1, 1).Diameter(); got != 0 {
		t.Errorf("1x1 diameter = %d, want 0", got)
	}
}

func TestRouteProperties(t *testing.T) {
	m := NewMesh(6, 6)
	f := func(a, b uint8) bool {
		src := CoreID(int(a) % m.Cores())
		dst := CoreID(int(b) % m.Cores())
		path := m.Route(src, dst)
		if len(path) != m.Hops(src, dst)+1 {
			return false
		}
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		for i := 1; i < len(path); i++ {
			if m.Hops(path[i-1], path[i]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteXBeforeY(t *testing.T) {
	m := NewMesh(4, 4)
	// (0,0) -> (2,2): XY routing goes east twice then south twice.
	path := m.Route(0, 10)
	want := []CoreID{0, 1, 2, 6, 10}
	if len(path) != len(want) {
		t.Fatalf("route length = %d, want %d", len(path), len(want))
	}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("path[%d] = %d, want %d", i, path[i], want[i])
		}
	}
}

func TestContains(t *testing.T) {
	m := NewMesh(2, 2)
	for _, tt := range []struct {
		id CoreID
		ok bool
	}{{-1, false}, {0, true}, {3, true}, {4, false}, {None, false}} {
		if got := m.Contains(tt.id); got != tt.ok {
			t.Errorf("Contains(%d) = %v, want %v", tt.id, got, tt.ok)
		}
	}
}

func TestString(t *testing.T) {
	if got := NewMesh(8, 8).String(); got != "8x8 mesh" {
		t.Errorf("String() = %q", got)
	}
}
