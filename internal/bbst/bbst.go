// Package bbst implements the Bucket-based Binary Search Tree, the
// core data structure of "Random Sampling over Spatial Range Joins"
// (ICDE 2025, Section IV-B).
//
// A BBST answers 2-sided orthogonal range questions over the points of
// one grid cell — exactly the queries that arise at the four corner
// cells of a window's 3x3 neighborhood (case 3). The points of the
// cell, pre-sorted by x, are partitioned into consecutive buckets of
// at most b = ceil(log2 m) points: a cell of N points gets the paper's
// ceil(N/b) buckets, balanced so that their sizes differ by at most
// one, and its own capacity ceil(N/ceil(N/b)) <= b. Each bucket
// records min/max of both coordinates. A balanced binary search tree
// is built over the buckets keyed by the bucket's min-x (T^min) or
// max-x (T^max); every node additionally stores the buckets of its
// subtree in two y-orders (by min-y and by max-y), which is what turns
// the second coordinate into a binary search instead of a tree walk.
//
// For a corner query the tree gives a canonical decomposition of the
// x-constraint into O(log) node sets; within each set a binary search
// on the appropriate y-order counts matching buckets. The approximate
// count is (number of matching buckets) x the cell's capacity, which
// Lemma 5 of the paper shows is an O(log m)-approximate upper bound of
// the exact count (the capacity never exceeds b). The same
// decomposition supports drawing a uniform (bucket, slot) pair, which
// is how the sampling phase picks candidate points. Balancing keeps
// every bucket of a freshly built cell full or one short of full, so
// few of those slots come up empty.
package bbst

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Bucket summarizes one bucket of a cell: at most Cap() points in
// ascending x order, plus the exact min/max of both coordinates. After
// a bulk Build the Pts slices are zero-copy windows into the caller's
// x-sorted slice; every in-place mutation (Insert/Delete) replaces the
// slice rather than writing through it, so the caller's backing array
// is never modified. A nil Pts marks a dead (free-listed) slot in the
// Pair's bucket table and never appears in query results.
type Bucket struct {
	Pts        []geom.Point
	MinX, MaxX float64
	MinY, MaxY float64
}

// Len returns the number of points in the bucket.
func (b Bucket) Len() int { return len(b.Pts) }

// Corner identifies which 2-sided query a BBST pair answers; it maps
// one-to-one onto the four case-3 grid directions.
type Corner int

// The four 2-sided corner queries. The comment gives the constraint the
// corner cell imposes on a point s given window w.
const (
	SouthWest Corner = iota // s.x >= w.XMin && s.y >= w.YMin
	NorthWest               // s.x >= w.XMin && s.y <= w.YMax
	SouthEast               // s.x <= w.XMax && s.y >= w.YMin
	NorthEast               // s.x <= w.XMax && s.y <= w.YMax
)

// String names the corner for diagnostics.
func (c Corner) String() string {
	switch c {
	case SouthWest:
		return "southwest"
	case NorthWest:
		return "northwest"
	case SouthEast:
		return "southeast"
	case NorthEast:
		return "northeast"
	}
	return fmt.Sprintf("corner(%d)", int(c))
}

// node is one BBST node. Bucket ids with key equal to the node key
// live in the b-lists; the a-arrays hold every bucket of the subtree.
// Both are kept in two y-orders (by bucket MinY and by bucket MaxY).
type node struct {
	x            float64 // node key: the median bucket key
	bMinY, bMaxY []int32
	aMinY, aMaxY []int32
	left, right  *node
	fc           *fcNode // fractional-cascading bridges; nil unless enabled
}

// tree is one of the two BBSTs of a cell: keyed by bucket MinX
// (answers "key <= q") or by bucket MaxX (answers "key >= q").
type tree struct {
	root *node
}

// Pair bundles the shared bucket array and the two trees built over
// one cell's x-sorted points, i.e. (T^min_c, T^max_c) in the paper.
// A Pair built by Build is immediately queryable and, unless
// fractional cascading has been enabled, mutable through Insert and
// Delete (see maint.go).
type Pair struct {
	buckets []Bucket
	order   []int32 // live bucket ids in ascending (MinX, MaxX) order
	free    []int32 // dead bucket ids available for reuse
	npts    int     // live point count
	cap     int     // bucket capacity: ceil(N/ceil(N/b)) <= b at build
	tMin    tree
	tMax    tree
	fcOn    bool // fractional cascading enabled
	deep    bool // an insert descended past the depth hatch; rebuild trees
}

// BucketCap returns the maximum bucket size for a dataset of m points:
// b = ceil(log2 m), at least 1 (Definition 3). Build gives a cell a
// smaller capacity when its points split evenly into smaller
// buckets.
func BucketCap(m int) int {
	if m <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(m))))
}

// Build constructs the two BBSTs over points, which must already be
// sorted in ascending x order (the paper pre-sorts S by x). bucketCap
// is the maximum bucket size b; use BucketCap(m) for the paper's
// setting. The N points are cut into the paper's ceil(N/b) buckets,
// balanced so that their sizes differ by at most one, and the pair's
// capacity (Cap) is the largest of them, ceil(N/ceil(N/b)) <= b (b
// itself when b divides N or N is 0). The slice is retained, not
// copied.
func Build(points []geom.Point, bucketCap int) (*Pair, error) {
	if bucketCap < 1 {
		return nil, fmt.Errorf("bbst: bucket capacity must be >= 1, got %d", bucketCap)
	}
	if !slices.IsSortedFunc(points, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) }) {
		return nil, fmt.Errorf("bbst: points must be sorted by x")
	}
	n := len(points)
	p := &Pair{cap: bucketCap, npts: n}
	if n == 0 {
		return p, nil
	}
	k := (n + bucketCap - 1) / bucketCap
	p.cap = (n + k - 1) / k
	p.buckets = make([]Bucket, k)
	p.order = make([]int32, k)
	for i := range k {
		// Bucket i spans [⌊i·n/k⌋, ⌊(i+1)·n/k⌋): every size is ⌊n/k⌋
		// or ⌈n/k⌉. The three-index subslice keeps a later append
		// through this header from clobbering the caller's array.
		start, end := i*n/k, (i+1)*n/k
		p.buckets[i] = bucketOf(points[start:end:end])
		p.order[i] = int32(i)
	}
	p.rebuildTrees()
	return p, nil
}

// bucketOf wraps pts (ascending x, non-empty) in a Bucket with exact
// summaries. The slice is retained as-is.
func bucketOf(pts []geom.Point) Bucket {
	b := Bucket{
		Pts:  pts,
		MinX: pts[0].X, MaxX: pts[len(pts)-1].X,
		MinY: math.Inf(1), MaxY: math.Inf(-1),
	}
	for _, pt := range pts {
		if pt.Y < b.MinY {
			b.MinY = pt.Y
		}
		if pt.Y > b.MaxY {
			b.MaxY = pt.Y
		}
	}
	return b
}

// rebuildTrees bulk-rebuilds both trees over the live buckets — the
// build path, Compact, and the depth escape hatch of the incremental
// path all land here.
func (p *Pair) rebuildTrees() {
	p.deep = false
	if len(p.order) == 0 {
		p.tMin.root, p.tMax.root = nil, nil
		return
	}
	p.tMin.root = p.makeTree(func(b Bucket) float64 { return b.MinX })
	p.tMax.root = p.makeTree(func(b Bucket) float64 { return b.MaxX })
}

// makeTree builds one balanced tree over the live buckets using key(b)
// as the bucket's x-coordinate (Algorithm 2).
func (p *Pair) makeTree(key func(Bucket) float64) *node {
	byKey := append([]int32(nil), p.order...)
	sort.SliceStable(byKey, func(i, j int) bool {
		return key(p.buckets[byKey[i]]) < key(p.buckets[byKey[j]])
	})
	byMinY := append([]int32(nil), byKey...)
	sort.SliceStable(byMinY, func(i, j int) bool {
		return p.buckets[byMinY[i]].MinY < p.buckets[byMinY[j]].MinY
	})
	byMaxY := append([]int32(nil), byKey...)
	sort.SliceStable(byMaxY, func(i, j int) bool {
		return p.buckets[byMaxY[i]].MaxY < p.buckets[byMaxY[j]].MaxY
	})
	return p.makeNode(byKey, byMinY, byMaxY, key)
}

// makeNode recursively builds the subtree for the given bucket ids.
// byKey is sorted by the tree key; byMinY/byMaxY are the same ids in
// the two y-orders and become the node's a-arrays.
func (p *Pair) makeNode(byKey, byMinY, byMaxY []int32, key func(Bucket) float64) *node {
	if len(byKey) == 0 {
		return nil
	}
	u := &node{
		x:     key(p.buckets[byKey[len(byKey)/2]]),
		aMinY: byMinY,
		aMaxY: byMaxY,
	}
	// Partition each order into (< median), (== median), (> median),
	// preserving the respective sort order.
	var keyL, keyR []int32
	for _, id := range byKey {
		switch k := key(p.buckets[id]); {
		case k < u.x:
			keyL = append(keyL, id)
		case k > u.x:
			keyR = append(keyR, id)
		}
	}
	var minL, minR, maxL, maxR []int32
	for _, id := range byMinY {
		switch k := key(p.buckets[id]); {
		case k < u.x:
			minL = append(minL, id)
		case k > u.x:
			minR = append(minR, id)
		default:
			u.bMinY = append(u.bMinY, id)
		}
	}
	for _, id := range byMaxY {
		switch k := key(p.buckets[id]); {
		case k < u.x:
			maxL = append(maxL, id)
		case k > u.x:
			maxR = append(maxR, id)
		default:
			u.bMaxY = append(u.bMaxY, id)
		}
	}
	u.left = p.makeNode(keyL, minL, maxL, key)
	u.right = p.makeNode(keyR, minR, maxR, key)
	return u
}

// NumBuckets returns the number of live buckets in the cell.
func (p *Pair) NumBuckets() int { return len(p.order) }

// NumPoints returns the number of live points in the cell.
func (p *Pair) NumPoints() int { return p.npts }

// Cap returns the pair's bucket capacity: the largest bucket size
// Build gave the cell, at most the b it was called with. It is the
// per-bucket slot count of Mu and SampleSlot and the split threshold
// of Insert.
func (p *Pair) Cap() int { return p.cap }

// Buckets returns the live bucket summaries in ascending x order, for
// tests and diagnostics. The returned slice is freshly allocated (the
// internal table may contain free-listed holes).
func (p *Pair) Buckets() []Bucket {
	out := make([]Bucket, len(p.order))
	for i, id := range p.order {
		out[i] = p.buckets[id]
	}
	return out
}

// piece is one element of the canonical decomposition: a y-sorted
// bucket-id array together with the contiguous matching region
// [lo, hi) under the query's y-constraint.
type piece struct {
	ids    []int32
	lo, hi int32
}

// cornerQuery resolves a Corner plus window into the concrete
// traversal parameters.
func cornerQuery(c Corner, w geom.Rect) (qx, qy float64, xGE, yGE bool) {
	switch c {
	case SouthWest:
		return w.XMin, w.YMin, true, true
	case NorthWest:
		return w.XMin, w.YMax, true, false
	case SouthEast:
		return w.XMax, w.YMin, false, true
	case NorthEast:
		return w.XMax, w.YMax, false, false
	}
	panic("bbst: invalid corner")
}

// decompose walks the appropriate tree and appends to dst one piece
// per visited node: the node's own b-list for on-path nodes and the
// a-array for canonical subtrees, each restricted to the region that
// satisfies the y-constraint. It returns the extended slice and the
// total number of matching buckets.
func (p *Pair) decompose(c Corner, w geom.Rect, dst []piece) ([]piece, int) {
	if p.fcOn {
		return p.decomposeFC(c, w, dst)
	}
	qx, qy, xGE, yGE := cornerQuery(c, w)
	// The x-constraint "MaxX >= qx" is answered by the tree keyed on
	// MaxX and vice versa; both trees store both y-orders, so the y
	// side is independent.
	var u *node
	if xGE {
		u = p.tMax.root
	} else {
		u = p.tMin.root
	}
	total := 0
	addPiece := func(n *node, canonical bool) {
		var ids []int32
		if canonical {
			if yGE {
				ids = n.aMaxY
			} else {
				ids = n.aMinY
			}
		} else {
			if yGE {
				ids = n.bMaxY
			} else {
				ids = n.bMinY
			}
		}
		if len(ids) == 0 {
			return
		}
		var lo, hi int32
		if yGE {
			// Matching buckets have MaxY >= qy: a suffix of the
			// MaxY-ascending order.
			lo = int32(sort.Search(len(ids), func(i int) bool {
				return p.buckets[ids[i]].MaxY >= qy
			}))
			hi = int32(len(ids))
		} else {
			// Matching buckets have MinY <= qy: a prefix of the
			// MinY-ascending order.
			lo = 0
			hi = int32(sort.Search(len(ids), func(i int) bool {
				return p.buckets[ids[i]].MinY > qy
			}))
		}
		if lo >= hi {
			return
		}
		dst = append(dst, piece{ids: ids, lo: lo, hi: hi})
		total += int(hi - lo)
	}
	for u != nil {
		if xGE {
			if u.x < qx {
				u = u.right
				continue
			}
			// All buckets at u and in its right subtree satisfy
			// key >= qx.
			addPiece(u, false)
			if u.right != nil {
				addPiece(u.right, true)
			}
			if u.x == qx {
				break
			}
			u = u.left
		} else {
			if u.x > qx {
				u = u.left
				continue
			}
			addPiece(u, false)
			if u.left != nil {
				addPiece(u.left, true)
			}
			if u.x == qx {
				break
			}
			u = u.right
		}
	}
	return dst, total
}

// CountBuckets returns the number of buckets whose min/max summary
// satisfies the 2-sided constraint of corner c for window w. The
// paper's upper bound is µ(r, corner) = Cap() * CountBuckets(...).
// scratch, if non-nil, is reused to avoid per-query allocation.
func (p *Pair) CountBuckets(c Corner, w geom.Rect, scratch *[]piece) int {
	var buf []piece
	if scratch != nil {
		buf = (*scratch)[:0]
	}
	buf, total := p.decompose(c, w, buf)
	if scratch != nil {
		*scratch = buf
	}
	return total
}

// Mu returns the paper's approximate upper bound µ(r, corner) for the
// number of points of this cell inside w: bucket count times the
// cell's capacity Cap() (at most b; with balanced buckets a built
// cell's buckets each hold Cap() or Cap()-1 points).
func (p *Pair) Mu(c Corner, w geom.Rect, scratch *[]piece) int {
	return p.CountBuckets(c, w, scratch) * p.cap
}

// SampleSlot draws a uniform slot among the µ(r, corner) candidate
// slots of corner c (each matching bucket contributes exactly Cap()
// slots). It returns the point occupying the slot, or ok == false when
// the slot is empty (bucket shorter than Cap(): after Build at most one
// slot per bucket, more once deletes or splits have thinned a bucket)
// — the caller must then reject the whole sampling iteration to
// preserve uniformity. The caller is also responsible for the final
// w(r)-membership check.
func (p *Pair) SampleSlot(c Corner, w geom.Rect, r *rng.RNG, scratch *[]piece) (pt geom.Point, ok bool) {
	var buf []piece
	if scratch != nil {
		buf = (*scratch)[:0]
	}
	buf, total := p.decompose(c, w, buf)
	if scratch != nil {
		*scratch = buf
	}
	if total == 0 {
		return geom.Point{}, false
	}
	u := r.Intn(total * p.cap)
	bucketPos := u / p.cap
	slot := u % p.cap
	for _, pc := range buf {
		n := int(pc.hi - pc.lo)
		if bucketPos < n {
			b := p.buckets[pc.ids[int(pc.lo)+bucketPos]]
			if slot >= b.Len() {
				return geom.Point{}, false
			}
			return b.Pts[slot], true
		}
		bucketPos -= n
	}
	// Unreachable: total is the sum of piece sizes.
	panic("bbst: slot index out of decomposition")
}

// Scratch is an opaque reusable buffer for CountBuckets/Mu/SampleSlot.
// A zero value is ready to use; it must not be shared across
// goroutines.
type Scratch struct{ pieces []piece }

// CountBucketsS is CountBuckets using a Scratch buffer.
func (p *Pair) CountBucketsS(c Corner, w geom.Rect, s *Scratch) int {
	return p.CountBuckets(c, w, &s.pieces)
}

// MuS is Mu using a Scratch buffer.
func (p *Pair) MuS(c Corner, w geom.Rect, s *Scratch) int {
	return p.Mu(c, w, &s.pieces)
}

// SampleSlotS is SampleSlot using a Scratch buffer.
func (p *Pair) SampleSlotS(c Corner, w geom.Rect, r *rng.RNG, s *Scratch) (geom.Point, bool) {
	return p.SampleSlot(c, w, r, &s.pieces)
}

// Height returns the height of the taller of the two trees (root-only
// trees have height 1); 0 when the cell is empty. Used by tests to
// verify balance.
func (p *Pair) Height() int {
	h1 := height(p.tMin.root)
	h2 := height(p.tMax.root)
	if h1 > h2 {
		return h1
	}
	return h2
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NumNodes returns the node count of both trees combined; tests use it
// to verify the O(N / log m) node bound.
func (p *Pair) NumNodes() int { return countNodes(p.tMin.root) + countNodes(p.tMax.root) }

func countNodes(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// SizeBytes estimates the heap footprint of the pair (buckets, nodes,
// and all id arrays), excluding the point storage itself, which a
// freshly built pair shares with the grid cell (callers that account
// for mutated, bucket-owned points add 16*NumPoints on top). Used by
// the memory experiment (Fig. 4).
func (p *Pair) SizeBytes() int {
	const bucketSize = 24 + 4*8     // Pts header + 4 float summaries
	const nodeSize = 8 + 4*24 + 2*8 // key + 4 slice headers + 2 pointers
	total := len(p.buckets)*bucketSize + 4*(len(p.order)+len(p.free))
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		total += nodeSize + 4*(len(n.bMinY)+len(n.bMaxY)+len(n.aMinY)+len(n.aMaxY))
		walk(n.left)
		walk(n.right)
	}
	walk(p.tMin.root)
	walk(p.tMax.root)
	return total
}

// ReportBuckets calls fn for every bucket whose summary matches the
// corner constraint of w, using the same canonical decomposition as
// counting. fn returning false stops the enumeration. The per-bucket
// point ranges let callers scan exactly the candidate points (each
// bucket holds at most Cap() of them).
func (p *Pair) ReportBuckets(c Corner, w geom.Rect, scratch *Scratch, fn func(Bucket) bool) {
	var buf []piece
	if scratch != nil {
		buf = scratch.pieces[:0]
	}
	buf, _ = p.decompose(c, w, buf)
	if scratch != nil {
		scratch.pieces = buf
	}
	for _, pc := range buf {
		for _, id := range pc.ids[pc.lo:pc.hi] {
			if !fn(p.buckets[id]) {
				return
			}
		}
	}
}

// ReportPoints calls fn for every point of the cell that satisfies the
// corner's 2-sided constraint exactly (bucket candidates are filtered
// point-by-point). fn returning false stops the enumeration.
func (p *Pair) ReportPoints(c Corner, w geom.Rect, scratch *Scratch, fn func(geom.Point) bool) {
	qx, qy, xGE, yGE := cornerQuery(c, w)
	match := func(pt geom.Point) bool {
		if xGE && pt.X < qx {
			return false
		}
		if !xGE && pt.X > qx {
			return false
		}
		if yGE && pt.Y < qy {
			return false
		}
		if !yGE && pt.Y > qy {
			return false
		}
		return true
	}
	stopped := false
	p.ReportBuckets(c, w, scratch, func(b Bucket) bool {
		for _, pt := range b.Pts {
			if match(pt) {
				if !fn(pt) {
					stopped = true
					return false
				}
			}
		}
		return true
	})
	_ = stopped
}
