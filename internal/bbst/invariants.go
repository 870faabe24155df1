package bbst

import (
	"cmp"
	"fmt"
)

// CheckInvariants verifies the structural contract Build establishes:
// balanced bucket occupancy (Cap() or Cap()-1 points), exact summaries,
// buckets in ascending x order, and for every node of both trees its
// split at the median key and its rows' y-orders. Test batteries (the
// mutable index's invariant sweep, its fuzz target) call it on every
// pair they hold.
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
	k := len(p.buckets)
	if len(p.ids) != 4*rows(k)*k {
		return fmt.Errorf("bbst: %d ids, want %d rows of %d", len(p.ids), 4*rows(k), k)
	}
	for t := range 2 {
		var err error
		p.walk(t, 0, 0, k, func(d, lo, eqLo, eqHi, hi int) {
			if err == nil {
				err = p.checkNode(t, d, lo, eqLo, eqHi, hi)
			}
		})
		if err != nil {
			return fmt.Errorf("bbst: tree %d: %w", t, err)
		}
	}
	return nil
}

// checkNode validates tree t's node [lo, hi) at depth d: its b-list
// [eqLo, eqHi) is the median bucket's key run, whole, and its a-array
// and b-list rows hold their ids in y-order.
func (p *Pair) checkNode(t, d, lo, eqLo, eqHi, hi int) error {
	mid := lo + (hi-lo)/2
	x := p.key(t, mid)
	if eqLo > mid || eqHi <= mid || p.key(t, eqLo) != x || p.key(t, eqHi-1) != x {
		return fmt.Errorf("node [%d,%d): b-list [%d,%d) is not its median's key run", lo, hi, eqLo, eqHi)
	}
	if eqLo > lo && p.key(t, eqLo-1) >= x || eqHi < hi && p.key(t, eqHi) <= x {
		return fmt.Errorf("node [%d,%d): a child shares the key %g of b-list [%d,%d)", lo, hi, x, eqLo, eqHi)
	}
	if d+1 >= rows(len(p.buckets)) {
		return fmt.Errorf("node [%d,%d) at depth %d has no b-list row", lo, hi, d)
	}
	for o := range 2 {
		if err := p.checkSegment(p.row(t, d, o)[lo:hi], lo, o); err != nil {
			return fmt.Errorf("a-array of node [%d,%d), y-order %d: %w", lo, hi, o, err)
		}
		if err := p.checkSegment(p.row(t, d+1, o)[eqLo:eqHi], eqLo, o); err != nil {
			return fmt.Errorf("b-list of node [%d,%d), y-order %d: %w", lo, hi, o, err)
		}
	}
	return nil
}

// checkSegment requires seg to hold each of the ids lo, ...,
// lo+len(seg)-1 once, ascending by y-order o with ties in id order.
// The order is strict, so no id repeats.
func (p *Pair) checkSegment(seg []int32, lo, o int) error {
	for i, id := range seg {
		if int(id) < lo || int(id) >= lo+len(seg) {
			return fmt.Errorf("id %d outside [%d,%d)", id, lo, lo+len(seg))
		}
		if i == 0 {
			continue
		}
		prev := seg[i-1]
		if c := cmp.Compare(p.y(o, prev), p.y(o, id)); c > 0 || c == 0 && prev >= id {
			return fmt.Errorf("ids %d, %d out of y-order", prev, id)
		}
	}
	return nil
}
