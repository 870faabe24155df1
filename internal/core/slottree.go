package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
)

// slotTree is the R side of the mutable index: one persistent
// (path-copied) tree over the slot array. Leaves hold stChunk
// consecutive slots, each holding the slot's point and its 9
// per-direction counts µ(r, d) — the count record a trial scans for
// its direction — in one 64 B record (one cache line), and beside the
// records one array of the slots' µ(r) = Σ_d µ(r, d), which a descent's
// leaf scan reads as one line. The counts stay int32 and per slot,
// Center included, because an edit recounts a slot on its own (the
// frozen sampler's pointRec narrows them to 16 bits where they fit and
// keeps µ(r, Center) once per R cell). Internal nodes are wide: each
// keeps the µ totals of its stFan children in one contiguous array
// next to the child pointers, so a trial is one short root-to-leaf
// descent (three internal levels cover 2^18 slots) that scans one
// array per level. Edits return a new version that shares every untouched node,
// so published versions keep reading their own slots while the tip
// advances.
//
// µ values are integers and every sum stays far below 2^53, so each
// child sum and the total are exact whatever the order of addition. A
// descent skips a child by subtracting its sum s from the variate u
// only when u >= s. u < 2^53, so u's ulp is a power of two no larger
// than 1 and s is a multiple of it; u - s lies in [0, u], so it is
// representable and the subtraction is exact. The variate entering a
// node is therefore exactly u minus the prefix sum before the node, and
// the slot drawn — the first whose prefix sum exceeds u — depends only
// on the prefix sums, not on stFan, stChunk or the height. A u at or
// past the total (rounding) is moved just below the total first, which
// keeps the last-positive-slot rule with no fallback at any level.
type slotTree struct {
	root   *stNode
	total  float64 // Σµ: the root's child sums added up
	n      int     // slots
	height int     // internal levels above the leaves (0 when empty)
}

// Slots per leaf and children per internal node.
const (
	stChunkBits, stFanBits = 3, 5
	stChunk, stFan         = 1 << stChunkBits, 1 << stFanBits
)

// dirCounts holds µ(r, d) for the 9 neighborhood directions: exact for
// cases 1–2, the BBST bound for corners; 0 where the cell is empty.
type dirCounts [grid.NumDirections]int32

// slotRec is one slot: 24 B of point and 36 B of counts, 64 B with
// padding. A dead slot holds a free marker and zero counts.
type slotRec struct {
	pt  geom.Point
	cnt dirCounts
}

// total is µ(r) = Σ_d µ(r, d).
func (cnt *dirCounts) total() int {
	mu := 0
	for _, c := range cnt {
		mu += int(c)
	}
	return mu
}

// mu is the slot's µ(r), the weight the descent draws it by.
func (rec *slotRec) mu() float64 { return float64(rec.cnt.total()) }

// stLeaf is a chunk of stChunk consecutive slots, 576 B: mu[k] is
// recs[k].mu(), kept apart from the records so a descent scans one
// cache line and reads one record.
type stLeaf struct {
	mu   [stChunk]float64
	recs [stChunk]slotRec
}

// stNode is an internal node. sums[j] is the µ total under child j;
// the children are kids above height 1 and leaves at height 1. A child
// covering only slots at or past Len() is nil with a zero sum.
type stNode struct {
	sums   [stFan]float64
	kids   [stFan]*stNode
	leaves [stFan]*stLeaf
}

// childShift is log2 of the slots under one child of a node at height h.
func childShift(h int) int { return stChunkBits + stFanBits*(h-1) }

// heightFor is the least height that holds n slots: 0 for none, else
// the least h >= 1 with n <= stChunk·stFan^h.
func heightFor(n int) int {
	h := 0
	for h == 0 && n > 0 || n > 1<<childShift(h+1) {
		h++
	}
	return h
}

// Len returns the number of slots.
func (t *slotTree) Len() int { return t.n }

// Total returns Σµ over all slots.
func (t *slotTree) Total() float64 { return t.total }

// get returns slot i. The record belongs to an immutable version and
// must not be modified.
func (t *slotTree) get(i int) *slotRec {
	if i < 0 || i >= t.n {
		panic("core: slot index out of range")
	}
	u := t.root
	for h := t.height; h > 1; h-- {
		u = u.kids[i>>childShift(h)&(stFan-1)]
	}
	return &u.leaves[i>>stChunkBits&(stFan-1)].recs[i&(stChunk-1)]
}

// sample returns the slot whose prefix-sum interval holds u, for u in
// [0, Total()); a u at or past the total (rounding) lands on the last
// slot with positive µ. Zero-µ slots are never returned. Total() must
// be positive; sample panics otherwise.
func (t *slotTree) sample(u float64) *slotRec {
	if t.total <= 0 {
		panic("core: sample on a slot tree with zero total")
	}
	if u >= t.total {
		// The last positive slot's interval ends at the total, and the
		// total is an integer: the float just below it lies inside.
		u = math.Nextafter(t.total, 0)
	}
	node := t.root
	for h := t.height; h > 1; h-- {
		var j int
		j, u = pickChild(&node.sums, u)
		node = node.kids[j]
	}
	j, u := pickChild(&node.sums, u)
	leaf := node.leaves[j]
	k := 0
	for u >= leaf.mu[k] {
		u -= leaf.mu[k]
		k++
	}
	return &leaf.recs[k]
}

// pickChild returns the child whose prefix-sum interval holds u, for u
// below the node's total, and u less the sums before that child. A
// zero sum never holds u (u >= 0).
func pickChild(sums *[stFan]float64, u float64) (int, float64) {
	j := 0
	for u >= sums[j] {
		u -= sums[j]
		j++
	}
	return j, u
}

// setMany returns a new version with slot idx[j] holding recs[j], idx
// ascending. Indices may extend the tree by appending contiguously past
// Len(). Each touched node is copied once however many of its slots
// change.
func (t *slotTree) setMany(idx []int32, recs []slotRec) *slotTree {
	if len(idx) == 0 {
		return t
	}
	nt := *t
	nt.n = max(nt.n, int(idx[len(idx)-1])+1)
	for nt.height < heightFor(nt.n) {
		if nt.root != nil {
			nt.root = &stNode{sums: [stFan]float64{nt.total}, kids: [stFan]*stNode{nt.root}}
		}
		nt.height++
	}
	nt.root, nt.total = setNode(nt.root, nt.height, 0, idx, recs)
	return &nt
}

// setNode returns a copy of u (nil when not yet built), the node at
// height h over the slots from base, with the writes applied, and the
// copy's total.
func setNode(u *stNode, h, base int, idx []int32, recs []slotRec) (*stNode, float64) {
	nu := &stNode{}
	if u != nil {
		*nu = *u
	}
	shift := childShift(h)
	for len(idx) > 0 {
		j := (int(idx[0]) - base) >> shift
		cb := base + j<<shift
		k, _ := slices.BinarySearch(idx, int32(cb+1<<shift))
		if h == 1 {
			nl := new(stLeaf)
			if l := nu.leaves[j]; l != nil {
				*nl = *l
			}
			for m, i := range idx[:k] {
				nl.recs[int(i)-cb] = recs[m]
				nl.mu[int(i)-cb] = recs[m].mu()
			}
			nu.leaves[j], nu.sums[j] = nl, leafSum(nl)
		} else {
			nu.kids[j], nu.sums[j] = setNode(nu.kids[j], h-1, cb, idx[:k], recs[:k])
		}
		idx, recs = idx[k:], recs[k:]
	}
	return nu, nodeSum(&nu.sums)
}

func nodeSum(sums *[stFan]float64) float64 {
	var s float64
	for _, v := range sums {
		s += v
	}
	return s
}

func leafSum(l *stLeaf) float64 {
	var s float64
	for _, mu := range l.mu {
		s += mu
	}
	return s
}

// buildSlotTree bulk-builds a tree over recs (slot i = recs[i]).
func buildSlotTree(recs []slotRec) *slotTree {
	idx := make([]int32, len(recs))
	for i := range idx {
		idx[i] = int32(i)
	}
	return (&slotTree{}).setMany(idx, recs)
}

// slotEdits buffers one batch's slot writes over a base version. Reads
// see the pending writes; commit applies them in one setMany pass.
// The pending records sit in one slice in first-write order, reached
// through a small map from slot to position, so a batch's map holds
// 8 B entries and never moves a record when it grows.
type slotEdits struct {
	base *slotTree
	n    int
	at   map[int32]int32 // slot -> its position in idx and recs
	idx  []int32         // pending slots, in first-write order
	recs []slotRec       // recs[j] is the pending record of idx[j]
}

// newSlotEdits starts a batch over t, sized for about hint writes.
func newSlotEdits(t *slotTree, hint int) *slotEdits {
	return &slotEdits{
		base: t,
		n:    t.Len(),
		at:   make(map[int32]int32, hint),
		idx:  make([]int32, 0, hint),
		recs: make([]slotRec, 0, hint),
	}
}

func (e *slotEdits) get(i int32) slotRec {
	if j, ok := e.at[i]; ok {
		return e.recs[j]
	}
	return *e.base.get(int(i))
}

func (e *slotEdits) set(i int32, rec slotRec) {
	if j, ok := e.at[i]; ok {
		e.recs[j] = rec
		return
	}
	e.at[i] = int32(len(e.idx))
	e.idx = append(e.idx, i)
	e.recs = append(e.recs, rec)
}

// push appends a slot and returns its index.
func (e *slotEdits) push(rec slotRec) int32 {
	i := int32(e.n)
	e.n++
	e.set(i, rec)
	return i
}

// commit returns the new version. It sorts the pending writes in
// place, so the buffer is spent.
func (e *slotEdits) commit() *slotTree {
	sort.Sort((*bySlot)(e))
	return e.base.setMany(e.idx, e.recs)
}

// bySlot orders a buffer's pending writes by slot.
type bySlot slotEdits

func (b *bySlot) Len() int           { return len(b.idx) }
func (b *bySlot) Less(i, j int) bool { return b.idx[i] < b.idx[j] }
func (b *bySlot) Swap(i, j int) {
	b.idx[i], b.idx[j] = b.idx[j], b.idx[i]
	b.recs[i], b.recs[j] = b.recs[j], b.recs[i]
}

// checkSums validates the tree's shape and every stored sum: each µ is
// the sum of its counts, each child sum and the total equal their
// recomputation exactly, the height is the least that holds Len()
// slots, and nothing lies at or past Len().
func (t *slotTree) checkSums() error {
	if t.height != heightFor(t.n) {
		return fmt.Errorf("slot tree: %d slots under %d levels", t.n, t.height)
	}
	sum, err := checkNode(t.root, t.height, 0, t.n)
	if err == nil && t.total != sum {
		err = fmt.Errorf("slot tree: total %g, recomputed %g", t.total, sum)
	}
	return err
}

// checkNode returns the recomputed total of u, the node at height h
// over the slots from base.
func checkNode(u *stNode, h, base, n int) (float64, error) {
	if (u == nil) != (base >= n) || u != nil &&
		((u.kids == [stFan]*stNode{}) != (h == 1) || (u.leaves == [stFan]*stLeaf{}) != (h > 1)) {
		return 0, fmt.Errorf("slot tree: malformed node over the slots from %d", base)
	}
	if u == nil {
		return 0, nil
	}
	var total float64
	for j, s := range u.sums {
		cb := base + j<<childShift(h)
		var sum float64
		var err error
		if h == 1 {
			sum, err = checkLeaf(u.leaves[j], cb, n)
		} else {
			sum, err = checkNode(u.kids[j], h-1, cb, n)
		}
		if err != nil {
			return 0, err
		}
		if s != sum {
			return 0, fmt.Errorf("slot tree: child over the slots from %d sums to %g, recomputed %g", cb, s, sum)
		}
		total += sum
	}
	return total, nil
}

func checkLeaf(l *stLeaf, base, n int) (float64, error) {
	if (l == nil) != (base >= n) {
		return 0, fmt.Errorf("slot tree: malformed leaf over the slots from %d", base)
	}
	if l == nil {
		return 0, nil
	}
	for k := range l.recs {
		rec := &l.recs[k]
		if l.mu[k] != rec.mu() || (base+k >= n && *rec != slotRec{}) {
			return 0, fmt.Errorf("slot %d: µ %g does not match its counts %v", base+k, l.mu[k], rec.cnt)
		}
	}
	return leafSum(l), nil
}

// sizeBytes estimates the standalone footprint: per stChunk slots, one
// 576 B leaf (8 records of 64 B and 8 µ of 8 B) and a 1/stFan share of
// a 768 B internal node.
func (t *slotTree) sizeBytes() int {
	return (t.n + stChunk - 1) / stChunk * (576 + 768/stFan)
}
