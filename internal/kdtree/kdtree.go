// Package kdtree implements a balanced, array-backed kd-tree over 2-D
// points with subtree counts, supporting orthogonal range counting
// and spatial independent range sampling (IRS).
//
// The sampling operation follows KDS (Xie et al., "Spatial Independent
// Range Sampling", SIGMOD 2021), the structure both baselines of the
// paper build on: one traversal decomposes the query window into
// canonical subtrees (fully covered, sampled by subtree size) plus the
// individual in-window points of partially covered leaves. A weighted
// uniform draw over this decomposition returns a point s ∈ S(w)
// with probability exactly 1/|S(w)|, together with the exact count
// |S(w)| — both in O(sqrt m) time for m points.
package kdtree

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// leafSize is the maximum number of points stored in a leaf. Small
// leaves keep the O(sqrt m) traversal bound tight while avoiding
// per-point node overhead.
const leafSize = 8

// node is one kd-tree node. Leaves have left == -1 and scan
// pts[lo:hi]; internal nodes split pts[lo:hi] at the median of the
// split axis.
type node struct {
	bbox        geom.Rect
	lo, hi      int32
	left, right int32 // -1 for leaves
}

// Tree is an immutable kd-tree. Build it with New.
type Tree struct {
	pts   []geom.Point // permuted copy of the input
	nodes []node
	root  int32
}

// New builds a kd-tree over a copy of pts in O(m log m) time using
// median splits on alternating axes.
func New(pts []geom.Point) *Tree {
	t := &Tree{pts: append([]geom.Point(nil), pts...), root: -1}
	if len(t.pts) == 0 {
		return t
	}
	t.nodes = make([]node, 0, 2*len(pts)/leafSize+2)
	t.root = t.build(0, int32(len(t.pts)), 0)
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// build constructs the subtree over pts[lo:hi) splitting on axis
// (0 = x, 1 = y) and returns its node index.
func (t *Tree) build(lo, hi int32, axis int) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{
		bbox: geom.BoundingRect(t.pts[lo:hi]),
		lo:   lo, hi: hi,
		left: -1, right: -1,
	})
	if hi-lo <= leafSize {
		return idx
	}
	mid := lo + (hi-lo)/2
	t.selectNth(lo, hi, mid, axis)
	left := t.build(lo, mid, 1-axis)
	right := t.build(mid, hi, 1-axis)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// coord returns the axis coordinate of point i.
func (t *Tree) coord(i int32, axis int) float64 {
	if axis == 0 {
		return t.pts[i].X
	}
	return t.pts[i].Y
}

// selectNth partially sorts pts[lo:hi) so that pts[n] holds the
// element of rank n-lo along axis (Hoare quickselect with
// median-of-three pivots; expected linear time).
func (t *Tree) selectNth(lo, hi, n int32, axis int) {
	for hi-lo > 1 {
		// Median-of-three pivot.
		mid := lo + (hi-lo)/2
		a, b, c := t.coord(lo, axis), t.coord(mid, axis), t.coord(hi-1, axis)
		var pivot float64
		switch {
		case (a <= b && b <= c) || (c <= b && b <= a):
			pivot = b
		case (b <= a && a <= c) || (c <= a && a <= b):
			pivot = a
		default:
			pivot = c
		}
		// Three-way partition (Dutch national flag) to cope with
		// long runs of equal coordinates.
		lt, i, gt := lo, lo, hi
		for i < gt {
			v := t.coord(i, axis)
			switch {
			case v < pivot:
				t.pts[lt], t.pts[i] = t.pts[i], t.pts[lt]
				lt++
				i++
			case v > pivot:
				gt--
				t.pts[gt], t.pts[i] = t.pts[i], t.pts[gt]
			default:
				i++
			}
		}
		switch {
		case n < lt:
			hi = lt
		case n >= gt:
			lo = gt
		default:
			return // n lands in the run of pivot-equal elements
		}
	}
}

// Count returns |S(w)|: the number of indexed points inside w.
func (t *Tree) Count(w geom.Rect) int {
	if t.root < 0 {
		return 0
	}
	return t.count(t.root, w)
}

func (t *Tree) count(ni int32, w geom.Rect) int {
	nd := &t.nodes[ni]
	if !w.Intersects(nd.bbox) {
		return 0
	}
	if w.Covers(nd.bbox) {
		return int(nd.hi - nd.lo)
	}
	if nd.left < 0 {
		c := 0
		for _, p := range t.pts[nd.lo:nd.hi] {
			if w.Contains(p) {
				c++
			}
		}
		return c
	}
	return t.count(nd.left, w) + t.count(nd.right, w)
}

// Scratch holds the reusable canonical-decomposition buffers for
// Sample. The zero value is ready; not safe for concurrent use.
type Scratch struct {
	ranges [][2]int32 // fully covered subtree point ranges
	single []int32    // indices of in-window points from partial leaves
}

// Sample draws one point uniformly at random from S(w) and returns it
// together with the exact count |S(w)|. ok is false when the window is
// empty. Successive calls are independent — this is the IRS primitive
// of KDS.
func (t *Tree) Sample(w geom.Rect, r *rng.RNG, s *Scratch) (pt geom.Point, count int, ok bool) {
	s.ranges = s.ranges[:0]
	s.single = s.single[:0]
	if t.root >= 0 {
		t.decompose(t.root, w, s)
	}
	count = len(s.single)
	for _, rg := range s.ranges {
		count += int(rg[1] - rg[0])
	}
	if count == 0 {
		return geom.Point{}, 0, false
	}
	u := r.Intn(count)
	if u < len(s.single) {
		return t.pts[s.single[u]], count, true
	}
	u -= len(s.single)
	for _, rg := range s.ranges {
		n := int(rg[1] - rg[0])
		if u < n {
			return t.pts[int(rg[0])+u], count, true
		}
		u -= n
	}
	panic("kdtree: sample index out of decomposition")
}

// decompose appends the canonical pieces of w to s.
func (t *Tree) decompose(ni int32, w geom.Rect, s *Scratch) {
	nd := &t.nodes[ni]
	if !w.Intersects(nd.bbox) {
		return
	}
	if w.Covers(nd.bbox) {
		s.ranges = append(s.ranges, [2]int32{nd.lo, nd.hi})
		return
	}
	if nd.left < 0 {
		for i := nd.lo; i < nd.hi; i++ {
			if w.Contains(t.pts[i]) {
				s.single = append(s.single, i)
			}
		}
		return
	}
	t.decompose(nd.left, w, s)
	t.decompose(nd.right, w, s)
}

// Height returns the height of the tree (0 when empty).
func (t *Tree) Height() int {
	if t.root < 0 {
		return 0
	}
	return t.height(t.root)
}

func (t *Tree) height(ni int32) int {
	nd := &t.nodes[ni]
	if nd.left < 0 {
		return 1
	}
	l, r := t.height(nd.left), t.height(nd.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// SizeBytes estimates the heap footprint: the permuted point copy plus
// the node array, and 0 for a nil tree (one not built yet). Used by
// the memory experiment (Fig. 4).
func (t *Tree) SizeBytes() int {
	if t == nil {
		return 0
	}
	const pointSize = 24
	const nodeSize = 32 + 16
	return len(t.pts)*pointSize + len(t.nodes)*nodeSize
}

// Validate checks structural invariants (used by tests): every node's
// bbox covers its points, children partition the parent range, and
// leaves respect leafSize. It returns the first violation found.
func (t *Tree) Validate() error {
	if t.root < 0 {
		return nil
	}
	var walk func(ni int32) error
	walk = func(ni int32) error {
		nd := &t.nodes[ni]
		for _, p := range t.pts[nd.lo:nd.hi] {
			if !nd.bbox.Contains(p) {
				return fmt.Errorf("node %d bbox %v misses point %v", ni, nd.bbox, p)
			}
		}
		if nd.left < 0 {
			if nd.hi-nd.lo > leafSize {
				return fmt.Errorf("leaf %d has %d points (> %d)", ni, nd.hi-nd.lo, leafSize)
			}
			return nil
		}
		l, r := &t.nodes[nd.left], &t.nodes[nd.right]
		if l.lo != nd.lo || l.hi != r.lo || r.hi != nd.hi {
			return fmt.Errorf("node %d children do not partition [%d,%d)", ni, nd.lo, nd.hi)
		}
		if err := walk(nd.left); err != nil {
			return err
		}
		return walk(nd.right)
	}
	if err := walk(t.root); err != nil {
		return err
	}
	// Height must be logarithmic: median splits guarantee it.
	n := len(t.pts)
	if n > leafSize {
		maxH := int(math.Ceil(math.Log2(float64(n)/leafSize))) + 2
		if h := t.Height(); h > maxH {
			return fmt.Errorf("height %d exceeds bound %d for %d points", h, maxH, n)
		}
	}
	return nil
}
