// Package join computes the exact spatial range join: a plane sweep
// (Patel & DeWitt-style, specialized to points), the exact-join
// baseline the paper's introduction sets the samplers against, with
// brute force as its test reference. It also counts |J|, which the
// experiments need to report the join size and the approximation ratio
// Σµ/|J|, and materializes J for small inputs. The grid-partitioned and
// R-tree index nested-loop joins of the paper's related work are not
// provided: the grid package serves the samplers only.
package join

import (
	"sort"

	"repro/internal/geom"
)

// Emit receives one join pair; returning false stops the join early.
type Emit func(r, s geom.Point) bool

// BruteForce enumerates J by testing all n*m pairs. Only for tests
// and tiny inputs.
func BruteForce(R, S []geom.Point, l float64, emit Emit) {
	for _, r := range R {
		for _, s := range S {
			if geom.InWindow(r, s, l) {
				if !emit(r, s) {
					return
				}
			}
		}
	}
}

// PlaneSweep computes J by sweeping both sets in ascending x order,
// maintaining for each r the window [r.X-l, r.X+l] over an S cursor
// and filtering on y. Runtime O((n+m) log(n+m) + matches-in-x-band);
// for the window sizes of the paper this is close to O(|J|).
func PlaneSweep(R, S []geom.Point, l float64, emit Emit) {
	if len(R) == 0 || len(S) == 0 {
		return
	}
	rs := append([]geom.Point(nil), R...)
	ss := append([]geom.Point(nil), S...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].X < rs[j].X })
	sort.Slice(ss, func(i, j int) bool { return ss[i].X < ss[j].X })
	lo := 0
	for _, r := range rs {
		for lo < len(ss) && ss[lo].X < r.X-l {
			lo++
		}
		for i := lo; i < len(ss) && ss[i].X <= r.X+l; i++ {
			if d := r.Y - ss[i].Y; d <= l && d >= -l {
				if !emit(r, ss[i]) {
					return
				}
			}
		}
	}
}

// Size returns |J| without materializing the join, via plane sweep.
func Size(R, S []geom.Point, l float64) uint64 {
	var n uint64
	PlaneSweep(R, S, l, func(geom.Point, geom.Point) bool { n++; return true })
	return n
}

// Materialize collects the full join result. Memory is Θ(|J|); use
// only when |J| is known to be small.
func Materialize(R, S []geom.Point, l float64) []geom.Pair {
	var out []geom.Pair
	PlaneSweep(R, S, l, func(r, s geom.Point) bool {
		out = append(out, geom.Pair{R: r, S: s})
		return true
	})
	return out
}
