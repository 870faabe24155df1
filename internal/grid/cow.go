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
// empty cell) minus those matching drop, plus ins.
// Both sort orders are rebuilt in one filter-and-merge pass each —
// O(|cell| + |ins| log |ins|) for any number of changes, which is why
// the dynamic path batches its per-cell work instead of editing point
// by point. On equal coordinates a kept point goes before an inserted
// one in both orders. Returns nil when the result is empty (the cell
// leaves the directory). c is never modified; ins is not retained.
func WithUpdates(c *Cell, ins []geom.Point, drop func(geom.Point) bool) *Cell {
	var oldX []geom.Point
	var oldY []int32
	if c != nil {
		oldX, oldY = c.XSorted, c.YOrder
	}
	// at[i] is old point i's position in the new x run (-1 once
	// dropped), then at[len(oldX)+j] inserted point j's.
	at := make([]int32, len(oldX)+len(ins))
	keep := len(oldX)
	if drop != nil {
		for i, p := range oldX {
			if drop(p) {
				at[i] = -1
				keep--
			}
		}
	}
	if keep+len(ins) == 0 {
		return nil
	}
	insX := append([]geom.Point(nil), ins...)
	sort.Slice(insX, func(i, j int) bool { return insX[i].X < insX[j].X })
	xs := make([]geom.Point, 0, keep+len(ins))
	for i, j := 0, 0; i < len(oldX) || j < len(insX); {
		switch {
		case i < len(oldX) && at[i] < 0:
			i++
		case j >= len(insX) || (i < len(oldX) && oldX[i].X <= insX[j].X):
			at[i] = int32(len(xs))
			xs = append(xs, oldX[i])
			i++
		default:
			at[len(oldX)+j] = int32(len(xs))
			xs = append(xs, insX[j])
			j++
		}
	}
	// The inserted positions, sorted by y through the same comparisons
	// as sorting insX itself by y.
	insY := at[len(oldX):]
	sort.Slice(insY, func(i, j int) bool { return xs[insY[i]].Y < xs[insY[j]].Y })
	ys := make([]int32, 0, len(xs))
	for i, j := 0, 0; i < len(oldY) || j < len(insY); {
		p := int32(-1)
		if i < len(oldY) {
			if p = at[oldY[i]]; p < 0 {
				i++
				continue
			}
		}
		if j >= len(insY) || (p >= 0 && xs[p].Y <= xs[insY[j]].Y) {
			ys = append(ys, p)
			i++
		} else {
			ys = append(ys, insY[j])
			j++
		}
	}
	return &Cell{XSorted: xs, YOrder: ys}
}
