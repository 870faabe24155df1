package grid

// Copy-on-write cell updates for the incremental maintenance path.
// A Cell is immutable once published to a serving view; an update
// batch produces a replacement cell in one merge pass per sort order,
// leaving the original (and every reader holding it) untouched.

import (
	"sort"

	"repro/internal/geom"
)

// WithUpdates returns a new cell holding the points of c (nil means an
// empty cell with the given key) minus those matching drop, plus ins.
// Both sort orders are rebuilt in one filter-and-merge pass each —
// O(|cell| + |ins| log |ins|) for any number of changes, which is why
// the dynamic path batches its per-cell work instead of editing point
// by point. Returns nil when the result is empty (the cell leaves the
// directory). c is never modified; ins is not retained.
func WithUpdates(key Key, c *Cell, ins []geom.Point, drop func(geom.Point) bool) *Cell {
	var oldX, oldY []geom.Point
	if c != nil {
		oldX, oldY = c.XSorted, c.YSorted
	}
	keep := len(oldX)
	if drop != nil {
		keep = 0
		for _, p := range oldX {
			if !drop(p) {
				keep++
			}
		}
	}
	if keep+len(ins) == 0 {
		return nil
	}
	n := keep + len(ins)
	buf := make([]geom.Point, 2*n) // both orders in one allocation, as Build lays them out
	nc := &Cell{Key: key, Index: -1, XSorted: buf[:0:n], YSorted: buf[n:n]}
	insX := append([]geom.Point(nil), ins...)
	sort.Slice(insX, func(i, j int) bool { return insX[i].X < insX[j].X })
	nc.XSorted = filterMerge(nc.XSorted, oldX, insX, drop,
		func(a, b geom.Point) bool { return a.X <= b.X })
	insY := insX
	sort.Slice(insY, func(i, j int) bool { return insY[i].Y < insY[j].Y })
	nc.YSorted = filterMerge(nc.YSorted, oldY, insY, drop,
		func(a, b geom.Point) bool { return a.Y <= b.Y })
	return nc
}

// filterMerge appends to dst the merge of old (minus dropped points)
// and ins, both already ascending under le.
func filterMerge(dst, old, ins []geom.Point, drop func(geom.Point) bool, le func(a, b geom.Point) bool) []geom.Point {
	i, j := 0, 0
	for i < len(old) || j < len(ins) {
		if i < len(old) && drop != nil && drop(old[i]) {
			i++
			continue
		}
		if j >= len(ins) || (i < len(old) && le(old[i], ins[j])) {
			dst = append(dst, old[i])
			i++
		} else {
			dst = append(dst, ins[j])
			j++
		}
	}
	return dst
}
