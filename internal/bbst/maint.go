package bbst

// In-place maintenance (the dynamic half of Section IV-B). Every
// bucket holds 1..Cap() points, Cap() being the cell's capacity from
// Build (at most Definition 3's b = ceil(log2 m)), and the structure
// stays insert-friendly: a point insert fills a bucket's slack, a full
// bucket splits in two (Build leaves buckets full or one short, so a
// bucket's first insert usually splits it), an underflowing
// bucket merges with (or steals from) an x-adjacent neighbor, and in
// every case only the O(log) root paths of the two trees are patched —
// the id is removed from the per-node y-orders under its old summary
// and re-inserted under the new one, with empty subtrees pruned on the
// way out. Tree node keys are immutable; inserts that find no node
// with their key grow a leaf, and a depth escape hatch rebuilds a
// cell's trees (O(nb log nb), amortized away) when repeated
// single-sided growth has made them lopsided. Every Pair accepts
// these edits.
//
// Concurrency contract: Insert and Delete mutate the Pair and must be
// externally serialized against readers. For the serving stack's
// snapshot discipline, CloneForUpdate produces a Pair whose mutations
// never write through to the original: the bucket table, order, and
// tree arrays are copied eagerly (O(cell) once per touched cell per
// update batch), while point slices are shared — safe because every
// bucket mutation replaces the Pts slice instead of writing into it.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/geom"
)

// Insert adds one point to the cell, maintaining bucket occupancy
// 1..Cap(), exact summaries, and the x-disjointness of bucket ranges.
// Cost: O(log m) slice work in the target bucket plus O(log) tree-path
// patches (amortized — a split or the depth hatch costs more).
func (p *Pair) Insert(pt geom.Point) {
	p.npts++
	if len(p.order) == 0 {
		p.attach(p.allocBucket(bucketOf([]geom.Point{pt})))
		return
	}
	// Target: the last bucket whose MinX <= pt.X (the first bucket when
	// pt precedes them all). Disjoint ranges make this the only bucket
	// that can contain pt.X, or the nearest one when pt falls in a gap.
	pos := sort.Search(len(p.order), func(i int) bool {
		return p.buckets[p.order[i]].MinX > pt.X
	}) - 1
	if pos < 0 {
		pos = 0
	}
	id := p.order[pos]
	switch n := p.buckets[id].Len(); {
	case n < p.cap:
		p.bucketInsert(id, pt)
	case n >= 2:
		if hiID := p.split(id); pt.X >= p.buckets[hiID].MinX {
			id = hiID
		}
		p.bucketInsert(id, pt)
	default:
		// cap == 1: a full bucket is a singleton and cannot halve;
		// grow a fresh singleton for the new point instead.
		p.attach(p.allocBucket(bucketOf([]geom.Point{pt})))
	}
	if p.deep {
		p.rebuildTrees()
	}
}

// Delete removes the live point equal to pt (matching X, Y, and ID)
// and reports whether one was found. When several identical points
// exist, exactly one is removed. Underflow (occupancy below Cap()/4)
// triggers a merge with an x-adjacent bucket when the union fits, or a
// boundary-point steal otherwise, so acceptance never decays from
// emptying buckets.
func (p *Pair) Delete(pt geom.Point) bool {
	// Candidate buckets have MinX <= pt.X <= MaxX: a run ending at the
	// last bucket with MinX <= pt.X (disjointness bounds the leftward
	// scan by the first bucket with MaxX < pt.X).
	hi := sort.Search(len(p.order), func(i int) bool {
		return p.buckets[p.order[i]].MinX > pt.X
	})
	for pos := hi - 1; pos >= 0; pos-- {
		id := p.order[pos]
		b := p.buckets[id]
		if b.MaxX < pt.X {
			break
		}
		for j, q := range b.Pts {
			if q.X == pt.X && q.Y == pt.Y && q.ID == pt.ID {
				p.removePoint(id, j)
				p.npts--
				if p.deep {
					// Rebalancing reattachments can grow leaves too.
					p.rebuildTrees()
				}
				return true
			}
		}
	}
	return false
}

// allocBucket places b in the bucket table (reusing a free slot when
// one exists) and returns its id, without attaching it to order/trees.
func (p *Pair) allocBucket(b Bucket) int32 {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		p.buckets[id] = b
		return id
	}
	p.buckets = append(p.buckets, b)
	return int32(len(p.buckets) - 1)
}

// attach inserts a live bucket id into the order list and both trees,
// keyed by its current summary.
func (p *Pair) attach(id int32) {
	p.orderInsert(id)
	p.treeInsert(&p.tMin, p.buckets[id].MinX, id)
	p.treeInsert(&p.tMax, p.buckets[id].MaxX, id)
}

// detach removes a bucket id from the order list and both trees. It
// must run before the bucket's summary is mutated — navigation uses
// the summary the structures were attached under.
func (p *Pair) detach(id int32) {
	p.orderRemove(id)
	p.treeRemove(&p.tMin, p.buckets[id].MinX, id)
	p.treeRemove(&p.tMax, p.buckets[id].MaxX, id)
}

// bucketInsert adds pt to bucket id, copying the point slice (never
// writing through a possibly-shared backing array) and repositioning
// the bucket in order/trees when its summary changes.
func (p *Pair) bucketInsert(id int32, pt geom.Point) {
	b := p.buckets[id]
	changed := pt.X < b.MinX || pt.X > b.MaxX || pt.Y < b.MinY || pt.Y > b.MaxY
	if changed {
		p.detach(id)
	}
	i := sort.Search(len(b.Pts), func(j int) bool { return b.Pts[j].X > pt.X })
	np := make([]geom.Point, len(b.Pts)+1)
	copy(np, b.Pts[:i])
	np[i] = pt
	copy(np[i+1:], b.Pts[i:])
	b.Pts = np
	b.MinX = math.Min(b.MinX, pt.X)
	b.MaxX = math.Max(b.MaxX, pt.X)
	b.MinY = math.Min(b.MinY, pt.Y)
	b.MaxY = math.Max(b.MaxY, pt.Y)
	p.buckets[id] = b
	if changed {
		p.attach(id)
	}
}

// split divides a full bucket into two x-halves, attaching the upper
// half as a fresh bucket, and returns the new bucket's id.
func (p *Pair) split(id int32) int32 {
	b := p.buckets[id]
	h := len(b.Pts) / 2
	lo := append([]geom.Point(nil), b.Pts[:h]...)
	hiPts := append([]geom.Point(nil), b.Pts[h:]...)
	p.detach(id)
	p.buckets[id] = bucketOf(lo)
	p.attach(id)
	hiID := p.allocBucket(bucketOf(hiPts))
	p.attach(hiID)
	return hiID
}

// removePoint deletes point index j from bucket id and rebalances:
// an emptied bucket dies, an underflowing one merges with or steals
// from an x-adjacent neighbor.
func (p *Pair) removePoint(id int32, j int) {
	b := p.buckets[id]
	if len(b.Pts) == 1 {
		p.detach(id)
		p.freeBucket(id)
		return
	}
	np := make([]geom.Point, len(b.Pts)-1)
	copy(np, b.Pts[:j])
	copy(np[j:], b.Pts[j+1:])
	nb := bucketOf(np)
	changed := nb.MinX != b.MinX || nb.MaxX != b.MaxX || nb.MinY != b.MinY || nb.MaxY != b.MaxY
	if changed {
		p.detach(id)
	}
	p.buckets[id] = nb
	if changed {
		p.attach(id)
	}
	if 4*len(np) < p.cap && len(p.order) > 1 {
		p.rebalance(id)
	}
}

// freeBucket marks id dead and recycles its slot.
func (p *Pair) freeBucket(id int32) {
	p.buckets[id] = Bucket{}
	p.free = append(p.free, id)
}

// rebalance fixes an underflowing bucket: merge with an x-adjacent
// neighbor when the union fits in one bucket, otherwise steal the
// neighbor's boundary point. Both preserve x-disjointness.
func (p *Pair) rebalance(id int32) {
	pos := p.orderPos(id)
	nbrPos := pos + 1
	if nbrPos >= len(p.order) {
		nbrPos = pos - 1
	}
	nid := p.order[nbrPos]
	b, nb := p.buckets[id], p.buckets[nid]
	if b.Len()+nb.Len() <= p.cap {
		// Merge: concatenate in x order (the lower-range bucket first).
		first, second := b.Pts, nb.Pts
		if nbrPos < pos {
			first, second = nb.Pts, b.Pts
		}
		merged := make([]geom.Point, 0, len(first)+len(second))
		merged = append(append(merged, first...), second...)
		p.detach(id)
		p.detach(nid)
		p.buckets[id] = bucketOf(merged)
		p.attach(id)
		p.freeBucket(nid)
		return
	}
	// Steal the neighbor's point nearest our range.
	var stolen geom.Point
	var rest []geom.Point
	if nbrPos > pos {
		stolen = nb.Pts[0]
		rest = append([]geom.Point(nil), nb.Pts[1:]...)
	} else {
		stolen = nb.Pts[len(nb.Pts)-1]
		rest = append([]geom.Point(nil), nb.Pts[:len(nb.Pts)-1]...)
	}
	p.detach(nid)
	p.buckets[nid] = bucketOf(rest)
	p.attach(nid)
	p.bucketInsert(id, stolen)
}

// orderPos locates id in the order list: binary search by MinX, then a
// scan across the equal-MinX run.
func (p *Pair) orderPos(id int32) int {
	minX := p.buckets[id].MinX
	i := sort.Search(len(p.order), func(j int) bool {
		return p.buckets[p.order[j]].MinX >= minX
	})
	for ; i < len(p.order); i++ {
		if p.order[i] == id {
			return i
		}
		if p.buckets[p.order[i]].MinX > minX {
			break
		}
	}
	panic("bbst: bucket id missing from order list")
}

// orderInsert places id into the order list by (MinX, MaxX). The
// secondary key matters for ties: disjointness forces every MinX-tied
// bucket except the last to be degenerate (MaxX == MinX), so sorting
// ties by MaxX keeps a freshly split-off or stolen-into bucket in
// front of a wider one sharing its MinX.
func (p *Pair) orderInsert(id int32) {
	minX, maxX := p.buckets[id].MinX, p.buckets[id].MaxX
	i := sort.Search(len(p.order), func(j int) bool {
		b := p.buckets[p.order[j]]
		if b.MinX != minX {
			return b.MinX > minX
		}
		return b.MaxX > maxX
	})
	p.order = append(p.order, 0)
	copy(p.order[i+1:], p.order[i:])
	p.order[i] = id
}

// orderRemove deletes id from the order list.
func (p *Pair) orderRemove(id int32) {
	i := p.orderPos(id)
	copy(p.order[i:], p.order[i+1:])
	p.order = p.order[:len(p.order)-1]
}

// depthLimit is the insert-path depth past which the trees are
// considered lopsided enough to rebuild: twice the balanced height
// plus slack for the churn between hatch firings.
func (p *Pair) depthLimit() int {
	return 2*bits.Len(uint(len(p.order))) + 8
}

// treeInsert adds id (with tree key k) along the root path of t:
// every visited node's subtree y-orders gain the id at its summary's
// position; the node owning key k (grown as a leaf when absent) also
// gains it in its b-lists.
func (p *Pair) treeInsert(t *tree, k float64, id int32) {
	link := &t.root
	depth := 0
	for {
		u := *link
		if u == nil {
			*link = &node{
				x:     k,
				bMinY: []int32{id}, bMaxY: []int32{id},
				aMinY: []int32{id}, aMaxY: []int32{id},
			}
			break
		}
		depth++
		u.aMinY = p.insertMinY(u.aMinY, id)
		u.aMaxY = p.insertMaxY(u.aMaxY, id)
		switch {
		case k == u.x:
			u.bMinY = p.insertMinY(u.bMinY, id)
			u.bMaxY = p.insertMaxY(u.bMaxY, id)
			if depth > p.depthLimit() {
				p.deep = true
			}
			return
		case k < u.x:
			link = &u.left
		default:
			link = &u.right
		}
	}
	if depth > p.depthLimit() {
		p.deep = true
	}
}

// treeRemove deletes id (attached under tree key k) from the root
// path of t and prunes any subtree the removal emptied.
func (p *Pair) treeRemove(t *tree, k float64, id int32) {
	var path []**node
	link := &t.root
	for {
		u := *link
		if u == nil {
			panic("bbst: treeRemove: bucket id not reachable under its key")
		}
		path = append(path, link)
		u.aMinY = p.removeMinY(u.aMinY, id)
		u.aMaxY = p.removeMaxY(u.aMaxY, id)
		if k == u.x {
			u.bMinY = p.removeMinY(u.bMinY, id)
			u.bMaxY = p.removeMaxY(u.bMaxY, id)
			break
		}
		if k < u.x {
			link = &u.left
		} else {
			link = &u.right
		}
	}
	// An empty subtree array means no bucket lives below: unlink. Only
	// a suffix of the path can be empty (subtree sizes shrink downward).
	for i := len(path) - 1; i >= 0; i-- {
		if len((*path[i]).aMinY) != 0 {
			break
		}
		*path[i] = nil
	}
}

// insertMinY/insertMaxY splice id into a MinY- (MaxY-) ascending id
// array at its bucket's current value, in place (node arrays are
// uniquely owned by their Pair).
func (p *Pair) insertMinY(ids []int32, id int32) []int32 {
	y := p.buckets[id].MinY
	i := sort.Search(len(ids), func(j int) bool { return p.buckets[ids[j]].MinY > y })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

func (p *Pair) insertMaxY(ids []int32, id int32) []int32 {
	y := p.buckets[id].MaxY
	i := sort.Search(len(ids), func(j int) bool { return p.buckets[ids[j]].MaxY > y })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeMinY/removeMaxY delete id from a y-ascending id array: binary
// search to the start of the equal-value run, scan for the id.
func (p *Pair) removeMinY(ids []int32, id int32) []int32 {
	y := p.buckets[id].MinY
	i := sort.Search(len(ids), func(j int) bool { return p.buckets[ids[j]].MinY >= y })
	for ; i < len(ids); i++ {
		if ids[i] == id {
			copy(ids[i:], ids[i+1:])
			return ids[:len(ids)-1]
		}
	}
	panic("bbst: bucket id missing from MinY order")
}

func (p *Pair) removeMaxY(ids []int32, id int32) []int32 {
	y := p.buckets[id].MaxY
	i := sort.Search(len(ids), func(j int) bool { return p.buckets[ids[j]].MaxY >= y })
	for ; i < len(ids); i++ {
		if ids[i] == id {
			copy(ids[i:], ids[i+1:])
			return ids[:len(ids)-1]
		}
	}
	panic("bbst: bucket id missing from MaxY order")
}

// CloneForUpdate returns a pair whose Insert/Delete never write
// through to the receiver: bucket table, order/free lists, and all
// tree nodes with their id arrays are copied; point slices are shared
// (bucket mutations replace, never write into, Pts).
func (p *Pair) CloneForUpdate() *Pair {
	np := &Pair{
		buckets: append([]Bucket(nil), p.buckets...),
		order:   append([]int32(nil), p.order...),
		free:    append([]int32(nil), p.free...),
		npts:    p.npts,
		cap:     p.cap,
	}
	np.tMin.root = cloneNode(p.tMin.root)
	np.tMax.root = cloneNode(p.tMax.root)
	return np
}

func cloneNode(u *node) *node {
	if u == nil {
		return nil
	}
	return &node{
		x:     u.x,
		bMinY: append([]int32(nil), u.bMinY...),
		bMaxY: append([]int32(nil), u.bMaxY...),
		aMinY: append([]int32(nil), u.aMinY...),
		aMaxY: append([]int32(nil), u.aMaxY...),
		left:  cloneNode(u.left),
		right: cloneNode(u.right),
	}
}

// CheckInvariants verifies the full structural contract — bucket
// occupancy and exact summaries, x-sorted disjoint order, free-list
// consistency, and both trees' key/y-order/subtree-array invariants.
// Test batteries (race hammer, fuzz) call it after every operation.
func (p *Pair) CheckInvariants() error {
	if p.cap < 1 {
		return fmt.Errorf("bbst: cap %d < 1", p.cap)
	}
	live := make(map[int32]bool, len(p.order))
	npts := 0
	for i, id := range p.order {
		if id < 0 || int(id) >= len(p.buckets) {
			return fmt.Errorf("bbst: order[%d] = %d out of table range", i, id)
		}
		if live[id] {
			return fmt.Errorf("bbst: bucket %d appears twice in order", id)
		}
		live[id] = true
		b := p.buckets[id]
		if b.Pts == nil {
			return fmt.Errorf("bbst: order[%d] = %d is a dead bucket", i, id)
		}
		if b.Len() < 1 || b.Len() > p.cap {
			return fmt.Errorf("bbst: bucket %d occupancy %d outside [1,%d]", id, b.Len(), p.cap)
		}
		want := bucketOf(b.Pts)
		if b.MinX != want.MinX || b.MaxX != want.MaxX || b.MinY != want.MinY || b.MaxY != want.MaxY {
			return fmt.Errorf("bbst: bucket %d summary not exact", id)
		}
		for j := 1; j < len(b.Pts); j++ {
			if b.Pts[j-1].X > b.Pts[j].X {
				return fmt.Errorf("bbst: bucket %d points not x-sorted at %d", id, j)
			}
		}
		if i > 0 {
			prev := p.buckets[p.order[i-1]]
			if prev.MinX > b.MinX || prev.MaxX > b.MinX {
				return fmt.Errorf("bbst: order not x-disjoint at position %d", i)
			}
		}
		npts += b.Len()
	}
	if npts != p.npts {
		return fmt.Errorf("bbst: npts %d != summed occupancy %d", p.npts, npts)
	}
	for _, id := range p.free {
		if live[id] {
			return fmt.Errorf("bbst: bucket %d both live and free", id)
		}
		if int(id) >= len(p.buckets) || p.buckets[id].Pts != nil {
			return fmt.Errorf("bbst: free bucket %d not dead", id)
		}
	}
	if len(p.order)+len(p.free) != len(p.buckets) {
		return fmt.Errorf("bbst: %d live + %d free != %d table slots",
			len(p.order), len(p.free), len(p.buckets))
	}
	if err := p.checkTree(p.tMin.root, live, func(b Bucket) float64 { return b.MinX },
		math.Inf(-1), math.Inf(1)); err != nil {
		return fmt.Errorf("tMin: %w", err)
	}
	if err := p.checkTree(p.tMax.root, live, func(b Bucket) float64 { return b.MaxX },
		math.Inf(-1), math.Inf(1)); err != nil {
		return fmt.Errorf("tMax: %w", err)
	}
	for _, root := range []*node{p.tMin.root, p.tMax.root} {
		n := 0
		if root != nil {
			n = len(root.aMinY)
		}
		if n != len(p.order) {
			return fmt.Errorf("bbst: root subtree holds %d buckets, %d live", n, len(p.order))
		}
	}
	return nil
}

// checkTree validates one subtree: key bounds, y-sorted arrays, b-list
// keys equal to the node key, a-arrays exactly the union of the b-list
// and child a-arrays, and no empty subtrees.
func (p *Pair) checkTree(u *node, live map[int32]bool, key func(Bucket) float64, lo, hi float64) error {
	if u == nil {
		return nil
	}
	if !(u.x > lo) || !(u.x < hi) {
		return fmt.Errorf("node key %g outside (%g, %g)", u.x, lo, hi)
	}
	if len(u.aMinY) == 0 {
		return fmt.Errorf("empty subtree at key %g not pruned", u.x)
	}
	if len(u.aMinY) != len(u.aMaxY) || len(u.bMinY) != len(u.bMaxY) {
		return fmt.Errorf("order lengths disagree at key %g", u.x)
	}
	for _, id := range u.bMinY {
		if !live[id] {
			return fmt.Errorf("dead bucket %d in b-list at key %g", id, u.x)
		}
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
	if err := p.checkTree(u.left, live, key, lo, u.x); err != nil {
		return err
	}
	return p.checkTree(u.right, live, key, u.x, hi)
}
