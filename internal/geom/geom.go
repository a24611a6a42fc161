// Package geom models the two-dimensional mesh geometry of a tiled
// multicore: core coordinates, dimension-ordered (XY) routing, and hop
// distances. Every higher-level component (the NoC model, the EM² cost
// model, the DP oracle) measures distance through this package so that all
// of them agree on the topology.
package geom

import (
	"fmt"
	"math"
)

// CoreID identifies a core (tile) on the chip. Cores are numbered in
// row-major order: core 0 is at (0,0), core 1 at (1,0), and so on.
type CoreID int

// None is the sentinel "no core" value.
const None CoreID = -1

// Coord is a tile position on the mesh: X grows to the east, Y to the south.
type Coord struct {
	X, Y int
}

// Mesh is a W×H grid of cores with dimension-ordered routing.
// The zero value is not useful; construct with NewMesh.
type Mesh struct {
	w, h int
}

// NewMesh returns a mesh with the given width and height.
// It panics if either dimension is not positive, since a malformed mesh is a
// programming error, not a runtime condition.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("geom: invalid mesh dimensions %dx%d", w, h))
	}
	return Mesh{w: w, h: h}
}

// SquareMesh returns the smallest square mesh holding at least n cores.
// EM² evaluations conventionally use square meshes (8×8 for 64 cores).
func SquareMesh(n int) Mesh {
	if n <= 0 {
		panic(fmt.Sprintf("geom: invalid core count %d", n))
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	return NewMesh(side, side)
}

// Width returns the number of columns.
func (m Mesh) Width() int { return m.w }

// Height returns the number of rows.
func (m Mesh) Height() int { return m.h }

// Cores returns the total number of cores on the mesh.
func (m Mesh) Cores() int { return m.w * m.h }

// Contains reports whether id is a valid core on this mesh.
func (m Mesh) Contains(id CoreID) bool {
	return id >= 0 && int(id) < m.Cores()
}

// CoordOf returns the coordinate of a core. It panics on an invalid id.
func (m Mesh) CoordOf(id CoreID) Coord {
	if !m.Contains(id) {
		panic(fmt.Sprintf("geom: core %d outside %dx%d mesh", id, m.w, m.h))
	}
	return Coord{X: int(id) % m.w, Y: int(id) / m.w}
}

// CoreAt returns the core at a coordinate. It panics if the coordinate is
// outside the mesh.
//
//em2:reference-only the geometry tests check coordinates round-trip through it
func (m Mesh) CoreAt(c Coord) CoreID {
	if c.X < 0 || c.X >= m.w || c.Y < 0 || c.Y >= m.h {
		panic(fmt.Sprintf("geom: coord %+v outside %dx%d mesh", c, m.w, m.h))
	}
	return CoreID(c.Y*m.w + c.X)
}

// Hops returns the Manhattan distance between two cores, the number of
// router-to-router links a dimension-ordered packet traverses.
func (m Mesh) Hops(a, b CoreID) int {
	ca, cb := m.CoordOf(a), m.CoordOf(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// Diameter returns the largest hop distance on the mesh.
func (m Mesh) Diameter() int { return (m.w - 1) + (m.h - 1) }

// Route returns the sequence of cores a dimension-ordered (X-then-Y) packet
// visits travelling from src to dst, inclusive of both endpoints. XY routing
// is deadlock-free on a mesh, which is why EM² uses it for all six virtual
// networks.
//
//em2:reference-only the geometry tests check XY routing against hop counts
func (m Mesh) Route(src, dst CoreID) []CoreID {
	cs, cd := m.CoordOf(src), m.CoordOf(dst)
	path := make([]CoreID, 0, m.Hops(src, dst)+1)
	cur := cs
	path = append(path, m.CoreAt(cur))
	for cur.X != cd.X {
		cur.X += sign(cd.X - cur.X)
		path = append(path, m.CoreAt(cur))
	}
	for cur.Y != cd.Y {
		cur.Y += sign(cd.Y - cur.Y)
		path = append(path, m.CoreAt(cur))
	}
	return path
}

// String implements fmt.Stringer.
func (m Mesh) String() string { return fmt.Sprintf("%dx%d mesh", m.w, m.h) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

//em2:reference-only Route steps with it
func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
