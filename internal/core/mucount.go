package core

// Batched upper bounding (UB): µ(r, d) for all R points of one grid
// cell at a time. Every R point of a cell shares its 3×3 block of S
// cells, so the block is looked up once per cell. The edge counts are
// one-sided thresholds that move monotonically with r, so one sweep of
// the cell's points in x (or y) order against the neighbour's sorted
// run counts the whole cell. Corners stay per-point queries (sCell.mu),
// grouped by direction so one corner structure serves the whole cell
// while it is in cache. The frozen Count, NewMutable's build and
// ApplyOps' recount all go through this one counter.

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// nbhd is the S side of one R cell's 3×3 block, by Direction: each
// non-empty cell with its corner structure, the zero sCell where the
// cell is empty.
type nbhd [grid.NumDirections]sCell

// muCounter counts µ(r, d) for the R points of one cell at a time.
// The caller lists the cell's points (and their current counts) with
// add, then calls count; cnt[i] then holds point i's counts. All
// buffers are reused across cells, so a pass over every cell allocates
// only while they grow. A counter must not be shared between
// goroutines.
type muCounter struct {
	half     float64 // window half-extent l
	pts      []geom.Point
	cnt      []dirCounts
	byX, byY []uint64  // order keys of pts by x / y, built on demand
	run      []float64 // the swept S cell's coordinates, in its run's order
	sc       cornerScratch
}

// reset empties the point list for the next cell.
func (mc *muCounter) reset() {
	mc.pts, mc.cnt = mc.pts[:0], mc.cnt[:0]
	mc.byX, mc.byY = mc.byX[:0], mc.byY[:0]
}

// add lists one R point of the cell with its current counts; count
// overwrites only the directions of its mask.
func (mc *muCounter) add(pt geom.Point, cnt dirCounts) {
	mc.pts = append(mc.pts, pt)
	mc.cnt = append(mc.cnt, cnt)
}

// count writes µ(r, d) into cnt for every listed point and every
// direction d of mask, against the block nb around the points' cell:
// exact for cases 1–2, the corner structure's bound for case 3, 0
// where the cell is empty.
func (mc *muCounter) count(nb *nbhd, mask dirMask) {
	for d := grid.Direction(0); d < grid.NumDirections; d++ {
		if mask&(1<<d) == 0 {
			continue
		}
		c := &nb[d]
		switch {
		case c.cell.Len() == 0:
			for i := range mc.cnt {
				mc.cnt[i][d] = 0
			}
		case d == grid.Center:
			n := int32(c.cell.Len())
			for i := range mc.cnt {
				mc.cnt[i][d] = n
			}
		case d.Case() == 2:
			mc.sweep(&c.cell, d)
		default:
			for i, r := range mc.pts {
				mc.cnt[i][d] = int32(c.mu(d, geom.Window(r, mc.half), &mc.sc))
			}
		}
	}
}

// sweep counts edge direction d for every listed point in one pass
// over the cell's points in x (or y) order. The window side facing c
// (XMin for West, XMax for East, YMin for South, YMax for North) grows
// with the coordinate, so the boundary into c's run in the same order
// moves forward as the pass goes: c.Matching's binary search places
// it for the first point, each later point moves it on. Every point finds its
// exact boundary, so the counts equal c.Matching(d, w), ties
// included; the boundary may also step back, which keeps them exact
// where order leaves near-equal coordinates out of order. The pass
// walks the run's x (or y) coordinates, gathered first into one array
// in the run's order (through YOrder for y).
func (mc *muCounter) sweep(c *grid.Cell, d grid.Direction) {
	byY := d == grid.South || d == grid.North
	run, ord := mc.run[:0], &mc.byX
	if byY {
		for _, o := range c.YOrder {
			run = append(run, c.XSorted[o].Y)
		}
		ord = &mc.byY
	} else {
		for _, s := range c.XSorted {
			run = append(run, s.X)
		}
	}
	mc.run = run
	// upper: the run's matching part is the prefix up to the side
	// (coordinate <= side); otherwise the suffix from it (>= side).
	upper := d == grid.East || d == grid.North
	idx := mc.indexMask()
	p := -1
	for _, o := range mc.order(ord, byY) {
		i := int(o & idx)
		w := geom.Window(mc.pts[i], mc.half)
		side := w.XMin
		switch d {
		case grid.East:
			side = w.XMax
		case grid.South:
			side = w.YMin
		case grid.North:
			side = w.YMax
		}
		if p < 0 { // first point: one binary search
			n := c.Matching(d, w)
			if p = n; !upper {
				p = len(run) - n
			}
		}
		if upper {
			p = boundary(run, p, func(v float64) bool { return v <= side })
			mc.cnt[i][d] = int32(p)
		} else {
			p = boundary(run, p, func(v float64) bool { return v < side })
			mc.cnt[i][d] = int32(len(run) - p)
		}
	}
}

// boundary moves p, an index into run, to the first coordinate of run
// not below the side: below holds on a prefix of run, and the result
// is that prefix's length.
func boundary(run []float64, p int, below func(float64) bool) int {
	for p < len(run) && below(run[p]) {
		p++
	}
	for p > 0 && !below(run[p-1]) {
		p--
	}
	return p
}

// indexMask covers the low bits that order keys spend on a point's
// index.
func (mc *muCounter) indexMask() uint64 {
	return 1<<bits.Len(uint(len(mc.pts))) - 1
}

// order returns sort keys for the listed points in ascending x (or y)
// order, building them into *buf on the first call after reset. A key
// is the coordinate's order-preserving bit pattern with its low bits
// (indexMask) replaced by the point's index, so one sort of plain
// integers orders the cell. Coordinates that differ only in those low
// bits may come out of order; sweep stays exact regardless.
func (mc *muCounter) order(buf *[]uint64, byY bool) []uint64 {
	if len(*buf) == len(mc.pts) {
		return *buf
	}
	idx := mc.indexMask()
	keys := (*buf)[:0]
	for i, p := range mc.pts {
		v := p.X
		if byY {
			v = p.Y
		}
		u := math.Float64bits(v)
		if u>>63 != 0 {
			u = ^u // negative: larger magnitude sorts first
		} else {
			u |= 1 << 63
		}
		keys = append(keys, u&^idx|uint64(i))
	}
	slices.Sort(keys)
	*buf = keys
	return keys
}
