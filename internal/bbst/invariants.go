package bbst

import (
	"fmt"
	"math"
)

// CheckInvariants verifies the structural contract Build establishes:
// balanced bucket occupancy (Cap() or Cap()-1 points), exact summaries,
// buckets in ascending x order, and both trees' key, y-order and
// subtree-array invariants. Test batteries (the mutable index's
// invariant sweep, its fuzz target) call it on every pair they hold.
func (p *Pair) CheckInvariants() error {
	if p.cap < 1 {
		return fmt.Errorf("bbst: cap %d < 1", p.cap)
	}
	npts := 0
	for i, b := range p.buckets {
		if b.Len() < max(1, p.cap-1) || b.Len() > p.cap {
			return fmt.Errorf("bbst: bucket %d occupancy %d outside [%d,%d]", i, b.Len(), max(1, p.cap-1), p.cap)
		}
		want := bucketOf(b.Pts)
		if b.MinX != want.MinX || b.MaxX != want.MaxX || b.MinY != want.MinY || b.MaxY != want.MaxY {
			return fmt.Errorf("bbst: bucket %d summary not exact", i)
		}
		for j := 1; j < len(b.Pts); j++ {
			if b.Pts[j-1].X > b.Pts[j].X {
				return fmt.Errorf("bbst: bucket %d points not x-sorted at %d", i, j)
			}
		}
		if i > 0 && p.buckets[i-1].MaxX > b.MinX {
			return fmt.Errorf("bbst: buckets not in x order at %d", i)
		}
		npts += b.Len()
	}
	if npts != p.npts {
		return fmt.Errorf("bbst: npts %d != summed occupancy %d", p.npts, npts)
	}
	if err := p.checkTree(p.tMin, func(b Bucket) float64 { return b.MinX },
		math.Inf(-1), math.Inf(1)); err != nil {
		return fmt.Errorf("tMin: %w", err)
	}
	if err := p.checkTree(p.tMax, func(b Bucket) float64 { return b.MaxX },
		math.Inf(-1), math.Inf(1)); err != nil {
		return fmt.Errorf("tMax: %w", err)
	}
	for _, root := range []*node{p.tMin, p.tMax} {
		n := 0
		if root != nil {
			n = len(root.aMinY)
		}
		if n != len(p.buckets) {
			return fmt.Errorf("bbst: root subtree holds %d buckets, pair %d", n, len(p.buckets))
		}
	}
	return nil
}

// checkTree validates one subtree: key bounds, y-sorted arrays, b-list
// keys equal to the node key, a-arrays exactly the union of the b-list
// and child a-arrays, and no empty subtrees.
func (p *Pair) checkTree(u *node, key func(Bucket) float64, lo, hi float64) error {
	if u == nil {
		return nil
	}
	if !(u.x > lo) || !(u.x < hi) {
		return fmt.Errorf("node key %g outside (%g, %g)", u.x, lo, hi)
	}
	if len(u.aMinY) == 0 {
		return fmt.Errorf("empty subtree at key %g", u.x)
	}
	if len(u.aMinY) != len(u.aMaxY) || len(u.bMinY) != len(u.bMaxY) {
		return fmt.Errorf("order lengths disagree at key %g", u.x)
	}
	for _, ids := range [][]int32{u.bMinY, u.bMaxY, u.aMinY, u.aMaxY} {
		for _, id := range ids {
			if id < 0 || int(id) >= len(p.buckets) {
				return fmt.Errorf("bucket id %d out of range at key %g", id, u.x)
			}
		}
	}
	for _, id := range u.bMinY {
		if key(p.buckets[id]) != u.x {
			return fmt.Errorf("bucket %d key %g in b-list of node %g", id, key(p.buckets[id]), u.x)
		}
	}
	for j := 1; j < len(u.bMinY); j++ {
		if p.buckets[u.bMinY[j-1]].MinY > p.buckets[u.bMinY[j]].MinY {
			return fmt.Errorf("bMinY unsorted at key %g", u.x)
		}
	}
	for j := 1; j < len(u.bMaxY); j++ {
		if p.buckets[u.bMaxY[j-1]].MaxY > p.buckets[u.bMaxY[j]].MaxY {
			return fmt.Errorf("bMaxY unsorted at key %g", u.x)
		}
	}
	for j := 1; j < len(u.aMinY); j++ {
		if p.buckets[u.aMinY[j-1]].MinY > p.buckets[u.aMinY[j]].MinY {
			return fmt.Errorf("aMinY unsorted at key %g", u.x)
		}
	}
	for j := 1; j < len(u.aMaxY); j++ {
		if p.buckets[u.aMaxY[j-1]].MaxY > p.buckets[u.aMaxY[j]].MaxY {
			return fmt.Errorf("aMaxY unsorted at key %g", u.x)
		}
	}
	want := map[int32]int{}
	for _, id := range u.bMinY {
		want[id]++
	}
	if u.left != nil {
		for _, id := range u.left.aMinY {
			want[id]++
		}
	}
	if u.right != nil {
		for _, id := range u.right.aMinY {
			want[id]++
		}
	}
	got := map[int32]int{}
	for _, id := range u.aMinY {
		got[id]++
	}
	if len(got) != len(want) {
		return fmt.Errorf("a-array of node %g is not the union of b-list and children", u.x)
	}
	for id, n := range want {
		if got[id] != n {
			return fmt.Errorf("a-array of node %g disagrees on bucket %d", u.x, id)
		}
	}
	if err := p.checkTree(u.left, key, lo, u.x); err != nil {
		return err
	}
	return p.checkTree(u.right, key, u.x, hi)
}
