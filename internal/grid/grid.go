// Package grid implements the grid over the non-empty cells, found by a
// radix sort of their keys and searched, used by both the KDS-rejection
// baseline and the BBST algorithm (GRID-MAPPING in Algorithm 1).
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
// Cells keep their points sorted by x, and the y order as positions into
// that run, so that 1-sided counts and samples are a single binary
// search. A built Grid is a dense table in cell-major order: one array
// of every cell's points, one of their y positions and one offset per
// cell, so a cell costs its key and offset (12 B) beyond its points.
package grid

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/par"
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

// packed is k's row-major sort key, CY above CX, each sign bit flipped
// so unsigned order is signed order: the cells of a row west to east
// have consecutive keys unless CX±1 wraps around int32.
func (k Key) packed() uint64 {
	return uint64(uint32(k.CY)^1<<31)<<32 | uint64(uint32(k.CX)^1<<31)
}

// unpacked inverts packed.
func unpacked(p uint64) Key {
	return Key{CX: int32(uint32(p) ^ 1<<31), CY: int32(uint32(p>>32) ^ 1<<31)}
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
// x); YOrder lists the positions in XSorted by ascending y, so
// XSorted[YOrder[i]] is point i of Sy(c), at 4 bytes a point instead
// of a second copy.
//
// A Cell is the two runs alone; its key is wherever the caller found
// it. A Grid hands out its cells by value (ByIndex): views whose runs
// are windows into the grid's arrays, so a kept view pins all of the
// grid's points. Cells made outside a Grid (NewCell, WithUpdates) own
// their runs.
type Cell struct {
	XSorted []geom.Point
	YOrder  []int32
}

// Len returns the number of points in the cell; a nil cell (what
// WithUpdates returns for an emptied one) has none.
func (c *Cell) Len() int {
	if c == nil {
		return 0
	}
	return len(c.XSorted)
}

// CountXAtLeast returns the number of points with X >= x; the matching
// points are the suffix XSorted[len-count:].
func (c *Cell) CountXAtLeast(x float64) int {
	return len(c.XSorted) - sort.Search(len(c.XSorted), func(i int) bool { return c.XSorted[i].X >= x })
}

// CountXAtMost returns the number of points with X <= x; the matching
// points are the prefix XSorted[:count].
func (c *Cell) CountXAtMost(x float64) int {
	return sort.Search(len(c.XSorted), func(i int) bool { return c.XSorted[i].X > x })
}

// CountYAtLeast returns the number of points with Y >= y; the matching
// points are those at the suffix YOrder[len-count:].
func (c *Cell) CountYAtLeast(y float64) int {
	return len(c.YOrder) - sort.Search(len(c.YOrder), func(i int) bool { return c.XSorted[c.YOrder[i]].Y >= y })
}

// CountYAtMost returns the number of points with Y <= y; the matching
// points are those at the prefix YOrder[:count].
func (c *Cell) CountYAtMost(y float64) int {
	return sort.Search(len(c.YOrder), func(i int) bool { return c.XSorted[c.YOrder[i]].Y > y })
}

// Matching returns the number of points of c satisfying the constraint
// that a case 1 or case 2 direction d places on window w. They are one
// run of one sort order — all of XSorted for Center, its last count
// for West and first count for East, likewise of YOrder for South and
// North — so sampling is one uniform index.
func (c *Cell) Matching(d Direction, w geom.Rect) int {
	switch d {
	case Center:
		return len(c.XSorted)
	case West:
		return c.CountXAtLeast(w.XMin)
	case East:
		return c.CountXAtMost(w.XMax)
	case South:
		return c.CountYAtLeast(w.YMin)
	case North:
		return c.CountYAtMost(w.YMax)
	}
	panic("grid: Matching on a corner direction")
}

// Grid is the grid over the non-empty cells of a point set, in
// row-major key order, stored cell-major. A cell's Index is its dense
// position, 0 <= Index < NumCells, the rank of its key in row-major
// order (by CY, then CX): cell i has key keys[i] and the runs
// pts[off[i]:off[i+1]] and ys[off[i]:off[i+1]]. Callers keep per-cell
// side tables in a slice indexed by it, so reaching a cell's
// structures costs the one key lookup that found the cell (Block).
// The grid has no per-cell header or allocation; ByIndex assembles a
// cell's view on demand.
type Grid struct {
	side float64
	keys []uint64     // packed cell keys, ascending
	off  []int32      // NumCells+1 offsets into pts and ys
	pts  []geom.Point // every cell's points, cell by cell, x-sorted within a cell
	ys   []int32      // every cell's YOrder, cell by cell
}

// Build maps each point to its cell and sorts the per-cell copies.
// It corresponds to GRID-MAPPING(S, l) plus the per-cell sorting of
// Algorithm 1; points need no order. The copies live in one array of
// points and their y positions in one array of int32, each cell a run
// of both, so a build makes a handful of allocations whatever its cell
// count. side must be positive.
func Build(points []geom.Point, side float64) (*Grid, error) {
	return BuildWorkers(points, side, 0)
}

// BuildWorkers is Build with the per-cell sorts split across at most
// par.Limit(workers) goroutines. The grid is the same for every worker
// count.
func BuildWorkers(points []geom.Point, side float64, workers int) (*Grid, error) {
	if side <= 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("grid: cell side must be positive and finite, got %g", side)
	}
	keys, starts, perm := GroupByCell(points, side)
	g := &Grid{
		side: side,
		keys: make([]uint64, len(keys)),
		off:  slices.Clone(starts), // exact size: GroupByCell appends
		pts:  make([]geom.Point, len(points)),
		ys:   make([]int32, len(points)),
	}
	par.ForEach(len(keys), workers, func(_, ci int) {
		lo, hi := starts[ci], starts[ci+1]
		sortRuns(points, perm[lo:hi], g.pts[lo:hi], g.ys[lo:hi])
		g.keys[ci] = keys[ci].packed()
	})
	return g, nil
}

// NewCell returns the cell of the points points[i], i in idx, sorted
// by the per-cell sort of BuildWorkers, into two runs of its own: the
// cell a Grid built from the same grouping (GroupByCell) hands out,
// ties in the same order, but pinning no other cell's points.
func NewCell(points []geom.Point, idx []int32) *Cell {
	c := &Cell{XSorted: make([]geom.Point, len(idx)), YOrder: make([]int32, len(idx))}
	sortRuns(points, idx, c.XSorted, c.YOrder)
	return c
}

// sortRuns is the one per-cell sort: it fills xs with points[i], i in
// idx, sorted by x, and ys with their y order. The x sort is unstable,
// so ties keep the order this sort gives them from idx's order; they
// are part of the seeded North/South draws.
func sortRuns(points []geom.Point, idx []int32, xs []geom.Point, ys []int32) {
	for j, i := range idx {
		xs[j] = points[i]
	}
	slices.SortFunc(xs, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
	yOrder(xs, ys)
}

// yOrder fills ord with the positions of xs in ascending y. The sort
// compares xs[a].Y with xs[b].Y exactly as sorting a copy of xs by y
// would, and pdqsort's permutation depends only on the outcomes, so
// ties come out in the order that sort of a copy gives them.
func yOrder(xs []geom.Point, ord []int32) {
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(xs[a].Y, xs[b].Y) })
}

// GroupByCell groups pts by grid cell with a stable radix sort of their
// row-major cell keys, offset to the occupied bounding box: keys lists
// the occupied cells in that order, and perm[starts[c]:starts[c+1]]
// holds the indexes of cell keys[c]'s points, ascending.
func GroupByCell(pts []geom.Point, side float64) (keys []Key, starts, perm []int32) {
	lo, hi := Key{math.MaxInt32, math.MaxInt32}, Key{math.MinInt32, math.MinInt32}
	for _, p := range pts {
		k := KeyFor(p.X, p.Y, side)
		lo = Key{min(lo.CX, k.CX), min(lo.CY, k.CY)}
		hi = Key{max(hi.CX, k.CX), max(hi.CY, k.CY)}
	}
	xbits := bits.Len64(uint64(int64(hi.CX) - int64(lo.CX)))
	items := make([]radixItem[uint64], len(pts))
	for i, p := range pts {
		k := KeyFor(p.X, p.Y, side)
		items[i] = radixItem[uint64]{key: uint64(int64(k.CY)-int64(lo.CY))<<xbits | uint64(int64(k.CX)-int64(lo.CX)), i: int32(i)}
	}
	items = radixSort(items, make([]radixItem[uint64], len(items)))
	perm = make([]int32, len(items))
	for j, it := range items {
		perm[j] = it.i
		if j == 0 || it.key != items[j-1].key {
			keys = append(keys, Key{CX: lo.CX + int32(it.key&(1<<xbits-1)), CY: lo.CY + int32(it.key>>xbits)})
			starts = append(starts, int32(j))
		}
	}
	return keys, append(starts, int32(len(items))), perm
}

// Side returns the cell side length.
func (g *Grid) Side() float64 { return g.side }

// Len returns the total number of points in the grid.
func (g *Grid) Len() int { return len(g.pts) }

// NumCells returns the number of non-empty cells.
func (g *Grid) NumCells() int { return len(g.keys) }

// KeyFor returns the key of the cell containing (x, y) for the given
// cell side.
func KeyFor(x, y, side float64) Key {
	return Key{
		CX: int32(math.Floor(x / side)),
		CY: int32(math.Floor(y / side)),
	}
}

// ByIndex returns a view of the cell of Index i: the lookup for
// callers that resolved a key to an Index once (Block) and keep it. It
// allocates nothing; the view's runs are windows into the grid's
// arrays, capped at the cell's end.
func (g *Grid) ByIndex(i int32) Cell {
	lo, hi := g.off[i], g.off[i+1]
	return Cell{XSorted: g.pts[lo:hi:hi], YOrder: g.ys[lo:hi:hi]}
}

// Key returns the key of the cell of Index i.
func (g *Grid) Key(i int32) Key { return unpacked(g.keys[i]) }

// CellLen returns the number of points of the cell of Index i.
func (g *Grid) CellLen(i int32) int { return int(g.off[i+1] - g.off[i]) }

// Block fills dst with the Index of each cell of the 3x3 block around
// cell k, by Direction, -1 where the cell is empty: one search per row,
// whose three cells have consecutive packed keys.
func (g *Grid) Block(k Key, dst *[NumDirections]int32) {
	wraps := k.CX == math.MinInt32 || k.CX == math.MaxInt32 // the rows are not consecutive
	for _, row := range [3][3]Direction{{SouthWest, South, SouthEast}, {West, Center, East}, {NorthWest, North, NorthEast}} {
		i := 0
		for j, d := range row {
			want := k.Neighbor(d).packed()
			if j == 0 || wraps {
				i, _ = slices.BinarySearch(g.keys, want)
			}
			dst[d] = -1
			if i < len(g.keys) && g.keys[i] == want {
				dst[d] = int32(i)
				i++
			}
		}
	}
}

// SizeBytes estimates the heap footprint of the grid: per point its
// 24-byte copy and its 4-byte y position, per cell its 8-byte key and
// 4-byte offset. Each is one large array, so size-class rounding adds
// next to nothing.
func (g *Grid) SizeBytes() int {
	return 12*len(g.keys) + 28*len(g.pts)
}
