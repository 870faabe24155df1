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
// The trees have no node objects: a node is a range of bucket ids, and
// its y-ordered lists are segments of one id array per pair (see Pair),
// so a built pair is three allocations.
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
// a corner cell holds few buckets (at nyc 200k per side and l = 100,
// 6.8 on average and at most 84), so its trees are two to seven nodes
// deep and bridges would have few per-node binary searches to
// replace. Measured on nyc, they made draws slower and the index
// larger.
package bbst

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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

// Pair bundles one cell's buckets and the two trees built over them,
// i.e. (T^min_c, T^max_c) in the paper: tree 0 is keyed by bucket MinX
// (answers "key <= q"), tree 1 by bucket MaxX (answers "key >= q").
// Build makes it; nothing edits it after.
//
// The trees are implicit. Both keys ascend with the bucket id, so a
// node is an id range [lo, hi): its key is that of its median bucket
// lo+(hi-lo)/2, its b-list is the run [eqLo, eqHi) of buckets with
// that key, and [lo, eqLo) and [eqHi, hi) are its children. The nodes
// at one depth cover disjoint ranges, so each (tree, depth, y-order)
// is one row of k ids, k the bucket count: row(t, d, o)[lo:hi] is the
// a-array of the depth-d node [lo, hi), its ids sorted by MinY (o = 0)
// or MaxY (o = 1), ties in id order, and row(t, d+1, o)[eqLo:eqHi],
// where no child reaches, is its b-list. A node at depth d holds at
// most k>>d buckets, so a tree has fewer than rows(k) depths, and all
// the rows share one id array. Build sorts the root rows by y, stably,
// and splits each node's a-array, stably and by id, into the next
// row.
type Pair struct {
	buckets []Bucket // in ascending x order, so the id is the x rank
	ids     []int32  // the rows: 2 trees × rows(k) depths × 2 y-orders × k
	npts    int
	cap     int // bucket capacity: ceil(N/ceil(N/b)) <= b
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
	p.ids = make([]int32, 4*rows(k)*k)
	for o := range 2 {
		root := p.row(0, 0, o)
		for i := range root {
			root[i] = int32(i)
		}
		slices.SortStableFunc(root, func(a, b int32) int { return cmp.Compare(p.y(o, a), p.y(o, b)) })
		copy(p.row(1, 0, o), root)
	}
	for t := range 2 {
		p.walk(t, 0, 0, k, func(d, lo, eqLo, eqHi, hi int) {
			for o := range 2 {
				next := p.row(t, d+1, o)
				l, m, r := lo, eqLo, eqHi
				for _, id := range p.row(t, d, o)[lo:hi] {
					switch {
					case int(id) < eqLo:
						next[l], l = id, l+1
					case int(id) < eqHi:
						next[m], m = id, m+1
					default:
						next[r], r = id, r+1
					}
				}
			}
		})
	}
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

// rows returns the number of rows a tree over k buckets has per
// y-order: one per node depth (at most bits.Len(k) of them) plus one
// for the deepest nodes' b-lists.
func rows(k int) int { return bits.Len(uint(k)) + 1 }

// row returns tree t's depth-d row in y-order o.
func (p *Pair) row(t, d, o int) []int32 {
	k := len(p.buckets)
	i := ((t*rows(k)+d)*2 + o) * k
	return p.ids[i : i+k : i+k]
}

// key returns bucket id's key in tree t: its MinX (t = 0) or MaxX.
func (p *Pair) key(t, id int) float64 {
	if t == 0 {
		return p.buckets[id].MinX
	}
	return p.buckets[id].MaxX
}

// y returns bucket id's key in y-order o: its MinY (o = 0) or MaxY.
func (p *Pair) y(o int, id int32) float64 {
	if o == 0 {
		return p.buckets[id].MinY
	}
	return p.buckets[id].MaxY
}

// split returns the key x of tree t's node [lo, hi), lo < hi, and its
// b-list [eqLo, eqHi): the buckets whose key equals the median
// bucket's.
func (p *Pair) split(t, lo, hi int) (eqLo, eqHi int, x float64) {
	mid := lo + (hi-lo)/2
	x = p.key(t, mid)
	eqLo, eqHi = mid, mid+1
	for eqLo > lo && p.key(t, eqLo-1) == x {
		eqLo--
	}
	for eqHi < hi && p.key(t, eqHi) == x {
		eqHi++
	}
	return eqLo, eqHi, x
}

// walk calls fn on the node [lo, hi) of tree t, at depth d, and then
// on every node below it, in preorder.
func (p *Pair) walk(t, d, lo, hi int, fn func(d, lo, eqLo, eqHi, hi int)) {
	if lo >= hi {
		return
	}
	eqLo, eqHi, _ := p.split(t, lo, hi)
	fn(d, lo, eqLo, eqHi, hi)
	p.walk(t, d+1, lo, eqLo, fn)
	p.walk(t, d+1, eqHi, hi, fn)
}

// NumBuckets returns the number of buckets in the cell.
func (p *Pair) NumBuckets() int { return len(p.buckets) }

// NumPoints returns the number of points in the cell.
func (p *Pair) NumPoints() int { return p.npts }

// Cap returns the pair's bucket capacity: the largest bucket size
// Build gave the cell, at most the b it was called with. It is the
// per-bucket slot count of Mu and SampleSlot.
func (p *Pair) Cap() int { return p.cap }

// Over returns a pair that answers exactly as p does over points, a
// copy of the x-sorted slice p was built over: its buckets window
// points at the positions p's window theirs, and it shares p's id
// rows, which hold no points. So it pins points and the rows, never
// p's slice. points must hold NumPoints points.
func (p *Pair) Over(points []geom.Point) *Pair {
	q := *p
	q.buckets = make([]Bucket, len(p.buckets))
	start := 0
	for i, b := range p.buckets {
		end := start + len(b.Pts)
		b.Pts = points[start:end:end]
		q.buckets[i], start = b, end
	}
	return &q
}

// Buckets returns a copy of the bucket summaries in ascending x order,
// for tests and diagnostics.
func (p *Pair) Buckets() []Bucket { return slices.Clone(p.buckets) }

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
// a-array for canonical subtrees, each cut to the run of ids, in
// y-order, that satisfies the y-constraint. It returns the pieces and
// the total number of matching buckets. The pieces live in s's buffer
// (a fresh one when s is nil), which keeps its grown capacity for the
// next query.
func (p *Pair) decompose(c Corner, w geom.Rect, s *Scratch) ([][]int32, int) {
	var dst [][]int32
	if s != nil {
		dst = s.pieces[:0]
	}
	qx, qy, xGE, yGE := cornerQuery(c, w)
	// The x-constraint "MaxX >= qx" is answered by the tree keyed on
	// MaxX and vice versa; both trees store both y-orders, so the y
	// side is independent.
	t, o := 0, 0
	if xGE {
		t = 1
	}
	if yGE {
		o = 1
	}
	total := 0
	addPiece := func(ids []int32) {
		lo, hi := 0, len(ids)
		if yGE {
			// Matching buckets have MaxY >= qy: a suffix of the
			// MaxY-ascending order.
			lo = sort.Search(len(ids), func(i int) bool { return p.buckets[ids[i]].MaxY >= qy })
		} else {
			// Matching buckets have MinY <= qy: a prefix of the
			// MinY-ascending order.
			hi = sort.Search(len(ids), func(i int) bool { return p.buckets[ids[i]].MinY > qy })
		}
		if lo < hi {
			dst = append(dst, ids[lo:hi])
			total += hi - lo
		}
	}
	lo, hi := 0, len(p.buckets)
	for d := 0; lo < hi; d++ {
		eqLo, eqHi, x := p.split(t, lo, hi)
		next := p.row(t, d+1, o)
		if xGE {
			if x < qx {
				lo = eqHi
				continue
			}
			// All buckets at the node and in its right subtree
			// satisfy key >= qx.
			addPiece(next[eqLo:eqHi])
			addPiece(next[eqHi:hi])
			if x == qx {
				break
			}
			hi = eqLo
		} else {
			if x > qx {
				hi = eqLo
				continue
			}
			addPiece(next[eqLo:eqHi])
			addPiece(next[lo:eqLo])
			if x == qx {
				break
			}
			lo = eqHi
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
type Scratch struct{ pieces [][]int32 }

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
	for _, ids := range buf {
		if bucketPos < len(ids) {
			b := p.buckets[ids[bucketPos]]
			if slot >= b.Len() {
				return geom.Point{}, false
			}
			return b.Pts[slot], true
		}
		bucketPos -= len(ids)
	}
	// Unreachable: total is the sum of piece sizes.
	panic("bbst: slot index out of decomposition")
}

// Height returns the height of the taller of the two trees (root-only
// trees have height 1); 0 when the cell is empty. Used by tests to
// verify balance.
func (p *Pair) Height() int {
	h := 0
	for t := range 2 {
		p.walk(t, 0, 0, len(p.buckets), func(d, _, _, _, _ int) { h = max(h, d+1) })
	}
	return h
}

// NumNodes returns the node count of both trees combined; tests use it
// to verify the O(N / log m) node bound.
func (p *Pair) NumNodes() int {
	n := 0
	for t := range 2 {
		p.walk(t, 0, 0, len(p.buckets), func(_, _, _, _, _ int) { n++ })
	}
	return n
}

// SizeBytes estimates the heap footprint of the pair (buckets and the
// id rows), excluding the point storage itself, which the pair shares
// with the x-sorted slice it was built over. Used by the memory
// experiment (Fig. 4).
func (p *Pair) SizeBytes() int {
	const bucketSize = 24 + 4*8 // Pts header + 4 float summaries
	return len(p.buckets)*bucketSize + 4*len(p.ids)
}

// ReportBuckets calls fn for every bucket whose summary matches the
// corner constraint of w, using the same canonical decomposition as
// counting. fn returning false stops the enumeration. The per-bucket
// point ranges let callers scan exactly the candidate points (each
// bucket holds at most Cap() of them).
func (p *Pair) ReportBuckets(c Corner, w geom.Rect, s *Scratch, fn func(Bucket) bool) {
	buf, _ := p.decompose(c, w, s)
	for _, ids := range buf {
		for _, id := range ids {
			if !fn(p.buckets[id]) {
				return
			}
		}
	}
}
