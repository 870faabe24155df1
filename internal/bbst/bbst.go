// Package bbst implements the Bucket-based Binary Search Tree, the
// core data structure of "Random Sampling over Spatial Range Joins"
// (ICDE 2025, Section IV-B).
//
// A BBST answers 2-sided orthogonal range questions over the points of
// one grid cell — exactly the queries that arise at the four corner
// cells of a window's 3x3 neighborhood (case 3). The sampler builds a
// pair only for a cell of more than T = c·⌈log₂ m⌉ points (package
// core, c = 2): a smaller cell's trees would be one or two nodes deep
// and buy no log factor, so it answers its corners by an exact scan of
// its x-sorted points instead. The points of the
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
// every bucket full or one short of full, so few of those slots come
// up empty.
//
// Every Pair comes from Build and is never edited afterwards: a cell
// whose points change gets a freshly built pair over its new run. So
// there are no dead buckets, no partly drained ones and no lopsided
// trees to repair.
//
// The paper's optional fractional cascading (Lemma 4) is left out:
// a corner cell holds only a few buckets, so its trees are one or two
// nodes deep and bridges would have almost no per-node binary
// searches to replace. Measured on nyc, they made draws slower and
// the index larger.
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

// Bucket summarizes one bucket of a cell: Cap() or Cap()-1 points in
// ascending x order, plus the exact min/max of both coordinates. Pts
// is a zero-copy window into the x-sorted slice Build was given.
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
}

// Pair bundles the shared bucket array and the two trees built over
// one cell's x-sorted points, i.e. (T^min_c, T^max_c) in the paper:
// tMin is keyed by bucket MinX (answers "key <= q"), tMax by bucket
// MaxX (answers "key >= q"). Build makes it; nothing edits it after.
type Pair struct {
	buckets    []Bucket // in ascending x order, so the id is the x rank
	npts       int
	cap        int // bucket capacity: ceil(N/ceil(N/b)) <= b
	tMin, tMax *node
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
	for i := range k {
		// Bucket i spans [⌊i·n/k⌋, ⌊(i+1)·n/k⌋): every size is ⌊n/k⌋
		// or ⌈n/k⌉. The three-index subslice keeps a later append
		// through this header from clobbering the caller's array.
		start, end := i*n/k, (i+1)*n/k
		p.buckets[i] = bucketOf(points[start:end:end])
	}
	p.tMin = p.makeTree(func(b Bucket) float64 { return b.MinX })
	p.tMax = p.makeTree(func(b Bucket) float64 { return b.MaxX })
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

// makeTree builds one balanced tree over the buckets using key(b) as
// the bucket's x-coordinate (Algorithm 2). Buckets are consecutive
// runs of x-sorted points, so both MinX and MaxX ascend with the
// bucket id: the ids in order are already sorted by key.
func (p *Pair) makeTree(key func(Bucket) float64) *node {
	byKey := make([]int32, len(p.buckets))
	for i := range byKey {
		byKey[i] = int32(i)
	}
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

// NumBuckets returns the number of buckets in the cell.
func (p *Pair) NumBuckets() int { return len(p.buckets) }

// NumPoints returns the number of points in the cell.
func (p *Pair) NumPoints() int { return p.npts }

// Cap returns the pair's bucket capacity: the largest bucket size
// Build gave the cell, at most the b it was called with. It is the
// per-bucket slot count of Mu and SampleSlot.
func (p *Pair) Cap() int { return p.cap }

// Buckets returns a copy of the bucket summaries in ascending x order,
// for tests and diagnostics.
func (p *Pair) Buckets() []Bucket { return slices.Clone(p.buckets) }

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

// decompose walks the appropriate tree and collects one piece per
// visited node: the node's own b-list for on-path nodes and the
// a-array for canonical subtrees, each restricted to the region that
// satisfies the y-constraint. It returns the pieces and the total
// number of matching buckets. The pieces live in s's buffer (a fresh
// one when s is nil), which keeps its grown capacity for the next
// query.
func (p *Pair) decompose(c Corner, w geom.Rect, s *Scratch) ([]piece, int) {
	var dst []piece
	if s != nil {
		dst = s.pieces[:0]
	}
	qx, qy, xGE, yGE := cornerQuery(c, w)
	// The x-constraint "MaxX >= qx" is answered by the tree keyed on
	// MaxX and vice versa; both trees store both y-orders, so the y
	// side is independent.
	u := p.tMin
	if xGE {
		u = p.tMax
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
	if s != nil {
		s.pieces = dst
	}
	return dst, total
}

// Scratch is an opaque reusable buffer for the corner queries
// (CountBuckets, Mu, SampleSlot, ReportBuckets). A zero
// value is ready to use; it must not be shared across goroutines. Every
// query also accepts a nil *Scratch and then allocates per call.
type Scratch struct{ pieces []piece }

// CountBuckets returns the number of buckets whose min/max summary
// satisfies the 2-sided constraint of corner c for window w. The
// paper's upper bound is µ(r, corner) = Cap() * CountBuckets(...).
func (p *Pair) CountBuckets(c Corner, w geom.Rect, s *Scratch) int {
	_, total := p.decompose(c, w, s)
	return total
}

// Mu returns the paper's approximate upper bound µ(r, corner) for the
// number of points of this cell inside w: bucket count times the
// cell's capacity Cap() (at most b; with balanced buckets a built
// cell's buckets each hold Cap() or Cap()-1 points).
func (p *Pair) Mu(c Corner, w geom.Rect, s *Scratch) int {
	return p.CountBuckets(c, w, s) * p.cap
}

// SampleSlot draws a uniform slot among the µ(r, corner) candidate
// slots of corner c (each matching bucket contributes exactly Cap()
// slots). It returns the point occupying the slot, or ok == false when
// the slot is empty (the last slot of a bucket one short of Cap()) —
// the caller must then reject the whole sampling iteration to
// preserve uniformity. The caller is also responsible for the final
// w(r)-membership check.
func (p *Pair) SampleSlot(c Corner, w geom.Rect, r *rng.RNG, s *Scratch) (pt geom.Point, ok bool) {
	buf, total := p.decompose(c, w, s)
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

// Height returns the height of the taller of the two trees (root-only
// trees have height 1); 0 when the cell is empty. Used by tests to
// verify balance.
func (p *Pair) Height() int {
	return max(height(p.tMin), height(p.tMax))
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
func (p *Pair) NumNodes() int { return countNodes(p.tMin) + countNodes(p.tMax) }

func countNodes(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// SizeBytes estimates the heap footprint of the pair (buckets, nodes,
// and all id arrays), excluding the point storage itself, which the
// pair shares with the x-sorted slice it was built over. Used by the
// memory experiment (Fig. 4).
func (p *Pair) SizeBytes() int {
	const bucketSize = 24 + 4*8     // Pts header + 4 float summaries
	const nodeSize = 8 + 4*24 + 2*8 // key + 4 slice headers + 2 pointers
	total := len(p.buckets) * bucketSize
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		total += nodeSize + 4*(len(n.bMinY)+len(n.bMaxY)+len(n.aMinY)+len(n.aMaxY))
		walk(n.left)
		walk(n.right)
	}
	walk(p.tMin)
	walk(p.tMax)
	return total
}

// ReportBuckets calls fn for every bucket whose summary matches the
// corner constraint of w, using the same canonical decomposition as
// counting. fn returning false stops the enumeration. The per-bucket
// point ranges let callers scan exactly the candidate points (each
// bucket holds at most Cap() of them).
func (p *Pair) ReportBuckets(c Corner, w geom.Rect, s *Scratch, fn func(Bucket) bool) {
	buf, _ := p.decompose(c, w, s)
	for _, pc := range buf {
		for _, id := range pc.ids[pc.lo:pc.hi] {
			if !fn(p.buckets[id]) {
				return
			}
		}
	}
}
