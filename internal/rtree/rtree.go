// Package rtree implements an STR (Sort-Tile-Recursive) bulk-loaded
// R-tree over 2-D points with aggregate subtree counts.
//
// It supports orthogonal range counting and, through the aggregate
// counts, an independent-range-sampling primitive analogous to the
// kd-tree's, which the repository uses as an ablation baseline (an
// aggregate-R-tree sampler) to show the BBST advantage is not an
// artifact of the kd-tree choice. The paper's index nested-loop exact
// join over an R-tree (Section VI) is not provided: package join's
// plane sweep is the one exact join.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/rng"
)

// fanout is the maximum number of children per internal node and the
// maximum number of points per leaf.
const fanout = 16

// node is one R-tree node. Leaves (children == nil) cover pts[lo:hi].
type node struct {
	bbox     geom.Rect
	children []int32
	lo, hi   int32
	count    int32 // number of points in the subtree
}

// Tree is an immutable STR-packed R-tree.
type Tree struct {
	pts    []geom.Point // copy, reordered by STR packing
	nodes  []node
	root   int32
	height int
}

// New bulk-loads an R-tree over a copy of pts using Sort-Tile-
// Recursive packing: points are sorted into vertical slices by x, each
// slice is sorted by y and cut into leaves of at most fanout points;
// upper levels pack the child rectangles the same way by center.
func New(pts []geom.Point) *Tree {
	t := &Tree{pts: append([]geom.Point(nil), pts...), root: -1}
	if len(t.pts) == 0 {
		return t
	}
	// Leaf level.
	level := t.packLeaves()
	t.height = 1
	for len(level) > 1 {
		level = t.packNodes(level)
		t.height++
	}
	t.root = level[0]
	return t
}

// packLeaves STR-packs the point array into leaf nodes and returns
// their ids.
func (t *Tree) packLeaves() []int32 {
	n := len(t.pts)
	sort.Slice(t.pts, func(i, j int) bool { return t.pts[i].X < t.pts[j].X })
	numLeaves := (n + fanout - 1) / fanout
	numSlices := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	sliceSize := numSlices * fanout

	var leaves []int32
	for s := 0; s < n; s += sliceSize {
		e := s + sliceSize
		if e > n {
			e = n
		}
		slice := t.pts[s:e]
		sort.Slice(slice, func(i, j int) bool { return slice[i].Y < slice[j].Y })
		for ls := 0; ls < len(slice); ls += fanout {
			le := ls + fanout
			if le > len(slice) {
				le = len(slice)
			}
			lo, hi := int32(s+ls), int32(s+le)
			leaves = append(leaves, t.addNode(node{
				bbox:  geom.BoundingRect(t.pts[lo:hi]),
				lo:    lo,
				hi:    hi,
				count: hi - lo,
			}))
		}
	}
	return leaves
}

// packNodes groups one level of node ids into parents via STR on the
// child bbox centers.
func (t *Tree) packNodes(ids []int32) []int32 {
	centerX := func(id int32) float64 {
		b := t.nodes[id].bbox
		return (b.XMin + b.XMax) / 2
	}
	centerY := func(id int32) float64 {
		b := t.nodes[id].bbox
		return (b.YMin + b.YMax) / 2
	}
	sort.Slice(ids, func(i, j int) bool { return centerX(ids[i]) < centerX(ids[j]) })
	numParents := (len(ids) + fanout - 1) / fanout
	numSlices := int(math.Ceil(math.Sqrt(float64(numParents))))
	sliceSize := numSlices * fanout

	var parents []int32
	for s := 0; s < len(ids); s += sliceSize {
		e := s + sliceSize
		if e > len(ids) {
			e = len(ids)
		}
		slice := ids[s:e]
		sort.Slice(slice, func(i, j int) bool { return centerY(slice[i]) < centerY(slice[j]) })
		for ps := 0; ps < len(slice); ps += fanout {
			pe := ps + fanout
			if pe > len(slice) {
				pe = len(slice)
			}
			children := append([]int32(nil), slice[ps:pe]...)
			bbox := t.nodes[children[0]].bbox
			count := int32(0)
			for _, c := range children {
				bbox = bbox.Union(t.nodes[c].bbox)
				count += t.nodes[c].count
			}
			parents = append(parents, t.addNode(node{
				bbox:     bbox,
				children: children,
				count:    count,
			}))
		}
	}
	return parents
}

func (t *Tree) addNode(n node) int32 {
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// Height returns the number of levels (0 when empty).
func (t *Tree) Height() int { return t.height }

// Count returns the number of indexed points inside w.
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
		return int(nd.count)
	}
	if nd.children == nil {
		c := 0
		for _, p := range t.pts[nd.lo:nd.hi] {
			if w.Contains(p) {
				c++
			}
		}
		return c
	}
	total := 0
	for _, ch := range nd.children {
		total += t.count(ch, w)
	}
	return total
}

// Scratch holds reusable decomposition buffers for Sample.
type Scratch struct {
	ranges [][2]int32
	single []int32
}

// Sample draws one point uniformly at random from the points inside w
// and returns it with the exact count, using the aggregate counts for
// a canonical decomposition (the R-tree analogue of KDS).
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
	panic("rtree: sample index out of decomposition")
}

func (t *Tree) decompose(ni int32, w geom.Rect, s *Scratch) {
	nd := &t.nodes[ni]
	if !w.Intersects(nd.bbox) {
		return
	}
	if nd.children == nil {
		if w.Covers(nd.bbox) {
			s.ranges = append(s.ranges, [2]int32{nd.lo, nd.hi})
			return
		}
		for i := nd.lo; i < nd.hi; i++ {
			if w.Contains(t.pts[i]) {
				s.single = append(s.single, i)
			}
		}
		return
	}
	// Internal nodes cannot emit point ranges directly (their points
	// are not contiguous), so fully covered internal nodes still
	// recurse; every leaf below them is fully covered and emits its
	// contiguous range, keeping the piece count O(coverage).
	for _, ch := range nd.children {
		t.decompose(ch, w, s)
	}
}

// SizeBytes estimates the heap footprint (point copy + nodes).
func (t *Tree) SizeBytes() int {
	const pointSize = 24
	const nodeSize = 32 + 24 + 12
	total := len(t.pts)*pointSize + len(t.nodes)*nodeSize
	for i := range t.nodes {
		total += 4 * len(t.nodes[i].children)
	}
	return total
}

// Validate checks structural invariants and returns the first
// violation: bbox coverage, count aggregation, and leaf bounds.
func (t *Tree) Validate() error {
	if t.root < 0 {
		return nil
	}
	seen := make([]bool, len(t.pts))
	var walk func(ni int32) (int32, error)
	walk = func(ni int32) (int32, error) {
		nd := &t.nodes[ni]
		if nd.children == nil {
			if nd.hi-nd.lo > fanout || nd.hi <= nd.lo {
				return 0, fmt.Errorf("leaf %d has invalid size %d", ni, nd.hi-nd.lo)
			}
			for i := nd.lo; i < nd.hi; i++ {
				if seen[i] {
					return 0, fmt.Errorf("point %d in two leaves", i)
				}
				seen[i] = true
				if !nd.bbox.Contains(t.pts[i]) {
					return 0, fmt.Errorf("leaf %d bbox misses point %v", ni, t.pts[i])
				}
			}
			if nd.count != nd.hi-nd.lo {
				return 0, fmt.Errorf("leaf %d count mismatch", ni)
			}
			return nd.count, nil
		}
		if len(nd.children) > fanout {
			return 0, fmt.Errorf("node %d has %d children", ni, len(nd.children))
		}
		var total int32
		for _, ch := range nd.children {
			if !nd.bbox.Covers(t.nodes[ch].bbox) {
				return 0, fmt.Errorf("node %d bbox does not cover child %d", ni, ch)
			}
			c, err := walk(ch)
			if err != nil {
				return 0, err
			}
			total += c
		}
		if total != nd.count {
			return 0, fmt.Errorf("node %d count %d != sum of children %d", ni, nd.count, total)
		}
		return total, nil
	}
	total, err := walk(t.root)
	if err != nil {
		return err
	}
	if int(total) != len(t.pts) {
		return fmt.Errorf("tree covers %d of %d points", total, len(t.pts))
	}
	return nil
}
