// Package grid implements the hash grid over non-empty cells used by
// both the KDS-rejection baseline and the BBST algorithm (GRID-MAPPING
// in Algorithm 1 of the paper).
//
// The cell side equals the window half-extent l (the paper states this
// as "side length l/2" for an l x l window; our windows are written as
// [r.x-l, r.x+l] following the paper's experimental setup, so the cell
// side is l). With this choice a window w(r) overlaps at most the 3x3
// block of cells around the cell containing r, and:
//
//   - the center cell is always fully covered by w(r)   (case 1, 0-sided)
//   - the four edge neighbors are 1-sided               (case 2)
//   - the four corner neighbors are 2-sided             (case 3)
//
// Cells keep two copies of their points, sorted by x and by y, so that
// 1-sided counts and samples are a single binary search.
package grid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Direction indexes the 3x3 neighborhood of the cell containing a
// query point. The numbering groups the three paper cases so callers
// can range over them: Center (case 1), then the four edges (case 2),
// then the four corners (case 3).
type Direction int

// Neighborhood directions. W/E/S/N are 1-sided cells; SW/NW/SE/NE are
// the 2-sided corners handled by the BBST.
const (
	Center    Direction = iota // case 1: fully covered
	West                       // case 2: constraint x >= w.XMin
	East                       // case 2: constraint x <= w.XMax
	South                      // case 2: constraint y >= w.YMin
	North                      // case 2: constraint y <= w.YMax
	SouthWest                  // case 3: x >= w.XMin, y >= w.YMin
	NorthWest                  // case 3: x >= w.XMin, y <= w.YMax
	SouthEast                  // case 3: x <= w.XMax, y >= w.YMin
	NorthEast                  // case 3: x <= w.XMax, y <= w.YMax

	// NumDirections is the size of a full neighborhood.
	NumDirections = 9
)

var directionNames = [NumDirections]string{
	"center", "west", "east", "south", "north",
	"southwest", "northwest", "southeast", "northeast",
}

// String returns the lowercase name of the direction.
func (d Direction) String() string {
	if d < 0 || d >= NumDirections {
		return fmt.Sprintf("direction(%d)", int(d))
	}
	return directionNames[d]
}

// Case returns the paper's case number (1, 2 or 3) for the direction.
func (d Direction) Case() int {
	switch {
	case d == Center:
		return 1
	case d <= North:
		return 2
	default:
		return 3
	}
}

// offsets maps a Direction to its (dx, dy) cell offset.
var offsets = [NumDirections][2]int32{
	{0, 0},          // Center
	{-1, 0}, {1, 0}, // West, East
	{0, -1}, {0, 1}, // South, North
	{-1, -1}, {-1, 1}, // SouthWest, NorthWest
	{1, -1}, {1, 1}, // SouthEast, NorthEast
}

// Key identifies a grid cell by its integer coordinates.
type Key struct {
	CX, CY int32
}

var opposites = [NumDirections]Direction{
	Center, East, West, North, South, NorthEast, SouthEast, NorthWest, SouthWest,
}

// Opposite returns the direction pointing back: cell k lies in
// direction d.Opposite() of k.Neighbor(d).
func (d Direction) Opposite() Direction { return opposites[d] }

// Neighbor returns the key of the cell in direction d.
func (k Key) Neighbor(d Direction) Key {
	off := offsets[d]
	return Key{CX: k.CX + off[0], CY: k.CY + off[1]}
}

// Cell holds the points of S that fall into one grid cell, in two
// sort orders. XSorted corresponds to S(c) in the paper (pre-sorted by
// x) and YSorted to Sy(c).
type Cell struct {
	Key     Key
	XSorted []geom.Point
	YSorted []geom.Point
}

// Len returns the number of points in the cell.
func (c *Cell) Len() int { return len(c.XSorted) }

// Rect returns the closed spatial extent of the cell given the grid
// cell side.
func (c *Cell) Rect(side float64) geom.Rect {
	return geom.Rect{
		XMin: float64(c.Key.CX) * side,
		YMin: float64(c.Key.CY) * side,
		XMax: float64(c.Key.CX+1) * side,
		YMax: float64(c.Key.CY+1) * side,
	}
}

// CountXAtLeast returns the number of points with X >= x, together
// with the first index of that suffix in XSorted.
func (c *Cell) CountXAtLeast(x float64) (count, start int) {
	start = sort.Search(len(c.XSorted), func(i int) bool { return c.XSorted[i].X >= x })
	return len(c.XSorted) - start, start
}

// CountXAtMost returns the number of points with X <= x; the matching
// points are the prefix XSorted[:count].
func (c *Cell) CountXAtMost(x float64) int {
	return sort.Search(len(c.XSorted), func(i int) bool { return c.XSorted[i].X > x })
}

// CountYAtLeast returns the number of points with Y >= y, together
// with the first index of that suffix in YSorted.
func (c *Cell) CountYAtLeast(y float64) (count, start int) {
	start = sort.Search(len(c.YSorted), func(i int) bool { return c.YSorted[i].Y >= y })
	return len(c.YSorted) - start, start
}

// CountYAtMost returns the number of points with Y <= y; the matching
// points are the prefix YSorted[:count].
func (c *Cell) CountYAtMost(y float64) int {
	return sort.Search(len(c.YSorted), func(i int) bool { return c.YSorted[i].Y > y })
}

// Matching returns the points of c satisfying the constraint that a
// case 1 or case 2 direction d places on window w, as the run of one
// sort order that holds them — so counting is len and sampling is one
// uniform index.
func (c *Cell) Matching(d Direction, w geom.Rect) []geom.Point {
	switch d {
	case Center:
		return c.XSorted
	case West:
		_, start := c.CountXAtLeast(w.XMin)
		return c.XSorted[start:]
	case East:
		return c.XSorted[:c.CountXAtMost(w.XMax)]
	case South:
		_, start := c.CountYAtLeast(w.YMin)
		return c.YSorted[start:]
	case North:
		return c.YSorted[:c.CountYAtMost(w.YMax)]
	}
	panic("grid: Matching on a corner direction")
}

// Grid is a hash grid over the non-empty cells of a point set.
type Grid struct {
	side  float64
	cells map[Key]*Cell
	size  int // total number of points
}

// Build maps each point to its cell and sorts the per-cell copies.
// It corresponds to GRID-MAPPING(S, l) plus the per-cell sorting of
// Algorithm 1. side must be positive.
func Build(points []geom.Point, side float64) (*Grid, error) {
	if side <= 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("grid: cell side must be positive and finite, got %g", side)
	}
	g := &Grid{side: side, cells: make(map[Key]*Cell), size: len(points)}
	for _, p := range points {
		k := g.KeyAt(p.X, p.Y)
		c := g.cells[k]
		if c == nil {
			c = &Cell{Key: k}
			g.cells[k] = c
		}
		c.XSorted = append(c.XSorted, p)
	}
	for _, c := range g.cells {
		sort.Slice(c.XSorted, func(i, j int) bool { return c.XSorted[i].X < c.XSorted[j].X })
		c.YSorted = append([]geom.Point(nil), c.XSorted...)
		sort.Slice(c.YSorted, func(i, j int) bool { return c.YSorted[i].Y < c.YSorted[j].Y })
	}
	return g, nil
}

// Side returns the cell side length.
func (g *Grid) Side() float64 { return g.side }

// Len returns the total number of points in the grid.
func (g *Grid) Len() int { return g.size }

// NumCells returns the number of non-empty cells.
func (g *Grid) NumCells() int { return len(g.cells) }

// KeyAt returns the key of the cell containing coordinate (x, y).
func (g *Grid) KeyAt(x, y float64) Key { return KeyFor(x, y, g.side) }

// KeyFor returns the key of the cell containing (x, y) for the given
// cell side — the grid-free spelling for callers (the incremental
// maintenance path) that track cells in a Dir instead of a Grid.
func KeyFor(x, y, side float64) Key {
	return Key{
		CX: int32(math.Floor(x / side)),
		CY: int32(math.Floor(y / side)),
	}
}

// CellAt returns the cell containing (x, y), or nil when it is empty.
func (g *Grid) CellAt(x, y float64) *Cell { return g.cells[g.KeyAt(x, y)] }

// Cell returns the cell with key k, or nil when it is empty.
func (g *Grid) Cell(k Key) *Cell { return g.cells[k] }

// Neighborhood fills dst with the 3x3 block of cells around the cell
// containing r, indexed by Direction; empty cells are nil. It returns
// dst to allow chaining.
func (g *Grid) Neighborhood(r geom.Point, dst *[NumDirections]*Cell) *[NumDirections]*Cell {
	k := g.KeyAt(r.X, r.Y)
	for d := Direction(0); d < NumDirections; d++ {
		dst[d] = g.cells[k.Neighbor(d)]
	}
	return dst
}

// Cells calls fn for every non-empty cell. Iteration order is
// unspecified.
func (g *Grid) Cells(fn func(*Cell)) {
	for _, c := range g.cells {
		fn(c)
	}
}

// SizeBytes estimates the heap footprint of the grid: two point copies
// per point plus map overhead. Used by the memory experiment.
func (g *Grid) SizeBytes() int {
	const pointSize = 24 // 2 float64 + int32 padded
	const cellOverhead = 96
	total := 0
	for _, c := range g.cells {
		total += cellOverhead + pointSize*(len(c.XSorted)+len(c.YSorted))
	}
	return total
}
