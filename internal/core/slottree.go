package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// slotTree is the R side of the mutable index: one persistent
// (path-copied) tree over the slot array. Leaves are chunks of stChunk
// consecutive slots, each holding the slot's point, its 9 per-direction
// counts µ(r, d) — the paper's per-point alias A_r, cached — and
// µ(r) = Σ_d µ(r, d); internal nodes carry {sum, left, right}. A trial
// is one root-to-chunk descent. Edits return a new version that shares
// every untouched node, so published versions keep reading their own
// slots while the tip advances.
//
// Every sum is the pairwise binary sum over the slot range a node
// covers (a missing child counts as empty). µ values are integers far
// below 2^53, so each sum is exact, every partial-sum subtraction in the
// descent is exact, and a given variate picks the same slot whatever
// the chunking.
type slotTree struct {
	root *stNode
	n    int // slots
	span int // power-of-two chunk capacity of root (0 when empty)
}

const stChunk = 8

// dirCounts holds µ(r, d) for the 9 neighborhood directions: exact for
// cases 1–2, the BBST bound for corners; 0 where the cell is empty.
type dirCounts [grid.NumDirections]int32

// slotRec is one slot. A dead slot holds a free marker, zero counts and
// zero µ.
type slotRec struct {
	pt  geom.Point
	cnt dirCounts
	mu  float64
}

func newSlotRec(pt geom.Point, cnt dirCounts) slotRec {
	mu := 0
	for _, c := range cnt {
		mu += int(c)
	}
	return slotRec{pt: pt, cnt: cnt, mu: float64(mu)}
}

// stNode is an internal node, or a chunk when recs is set.
type stNode struct {
	sum         float64
	left, right *stNode
	recs        *[stChunk]slotRec
}

// stChunkNode allocates a chunk node and its slots together.
type stChunkNode struct {
	node stNode
	recs [stChunk]slotRec
}

func newChunk(recs *[stChunk]slotRec) *stNode {
	c := &stChunkNode{recs: *recs}
	c.node.recs = &c.recs
	c.node.sum = chunkSum(&c.recs)
	return &c.node
}

// chunkSum is the pairwise sum of the chunk's µ values.
func chunkSum(recs *[stChunk]slotRec) float64 {
	var s [stChunk]float64
	for i := range recs {
		s[i] = recs[i].mu
	}
	for w := 1; w < stChunk; w *= 2 {
		for i := 0; i < stChunk; i += 2 * w {
			s[i] += s[i+w]
		}
	}
	return s[0]
}

func (u *stNode) total() float64 {
	if u == nil {
		return 0
	}
	return u.sum
}

// Len returns the number of slots.
func (t *slotTree) Len() int { return t.n }

// Total returns Σµ over all slots.
func (t *slotTree) Total() float64 { return t.root.total() }

// get returns slot i. The record belongs to an immutable version and
// must not be modified.
func (t *slotTree) get(i int) *slotRec {
	if i < 0 || i >= t.n {
		panic("core: slot index out of range")
	}
	u, span := t.root, t.span
	for span > 1 {
		span >>= 1
		if c := span * stChunk; i < c {
			u = u.left
		} else {
			u = u.right
			i -= c
		}
	}
	return &u.recs[i]
}

// sample returns the slot whose prefix-sum interval holds u, for u in
// [0, Total()); a u at or past the total (rounding) lands on the last
// slot with positive µ. Zero-µ slots are never returned. Total() must
// be positive; sample panics otherwise.
func (t *slotTree) sample(u float64) *slotRec {
	if t.root.total() <= 0 {
		panic("core: sample on a slot tree with zero total")
	}
	node, span := t.root, t.span
	for span > 1 {
		span >>= 1
		l, r := node.left, node.right
		switch {
		case r == nil:
			node = l
		case u < l.sum && l.sum > 0:
			node = l
		case r.sum > 0:
			u -= l.sum
			node = r
		default:
			node = l
		}
	}
	last := -1
	for j := range node.recs {
		mu := node.recs[j].mu
		if mu == 0 {
			continue
		}
		if u < mu {
			return &node.recs[j]
		}
		u -= mu
		last = j
	}
	return &node.recs[last]
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
	if last := int(idx[len(idx)-1]) + 1; last > nt.n {
		nt.n = last
	}
	if nt.span == 0 {
		nt.span = 1
	}
	for nt.n > nt.span*stChunk {
		nt.root = &stNode{sum: nt.root.total(), left: nt.root}
		nt.span *= 2
	}
	nt.root = setNode(nt.root, nt.span, 0, idx, recs)
	return &nt
}

func setNode(u *stNode, span, base int, idx []int32, recs []slotRec) *stNode {
	if span == 1 {
		var chunk [stChunk]slotRec
		if u != nil {
			chunk = *u.recs
		}
		for j, i := range idx {
			chunk[int(i)-base] = recs[j]
		}
		return newChunk(&chunk)
	}
	nu := &stNode{}
	if u != nil {
		*nu = *u
	}
	half := span / 2
	mid := base + half*stChunk
	k, _ := slices.BinarySearch(idx, int32(mid))
	if k > 0 {
		nu.left = setNode(nu.left, half, base, idx[:k], recs[:k])
	}
	if k < len(idx) {
		nu.right = setNode(nu.right, half, mid, idx[k:], recs[k:])
	}
	nu.sum = nu.left.total() + nu.right.total()
	return nu
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
type slotEdits struct {
	base *slotTree
	n    int
	pend map[int32]slotRec
	idx  []int32 // slots in pend, in first-write order
}

func newSlotEdits(t *slotTree) *slotEdits {
	return &slotEdits{base: t, n: t.Len(), pend: make(map[int32]slotRec)}
}

func (e *slotEdits) get(i int32) slotRec {
	if rec, ok := e.pend[i]; ok {
		return rec
	}
	return *e.base.get(int(i))
}

func (e *slotEdits) set(i int32, rec slotRec) {
	if _, ok := e.pend[i]; !ok {
		e.idx = append(e.idx, i)
	}
	e.pend[i] = rec
}

// push appends a slot and returns its index.
func (e *slotEdits) push(rec slotRec) int32 {
	i := int32(e.n)
	e.n++
	e.set(i, rec)
	return i
}

func (e *slotEdits) commit() *slotTree {
	slices.Sort(e.idx)
	recs := make([]slotRec, len(e.idx))
	for j, i := range e.idx {
		recs[j] = e.pend[i]
	}
	return e.base.setMany(e.idx, recs)
}

// checkSums validates the tree's shape and every stored sum: each µ is
// the sum of its counts, each chunk and internal sum equals the
// pairwise recomputation exactly, and nothing lies at or past Len().
func (t *slotTree) checkSums() error {
	if t.n > t.span*stChunk || (t.span > 1 && t.n <= t.span/2*stChunk) {
		return fmt.Errorf("slot tree: %d slots in a span of %d chunks", t.n, t.span)
	}
	_, err := checkNode(t.root, t.span, 0, t.n)
	return err
}

// checkNode returns the recomputed sum of u, which covers the slots
// from base.
func checkNode(u *stNode, span, base, n int) (float64, error) {
	if (u == nil) != (base >= n) || (u != nil && (u.recs == nil) != (span > 1)) {
		return 0, fmt.Errorf("slot tree: malformed node over the slots from %d", base)
	}
	if u == nil {
		return 0, nil
	}
	var sum float64
	if span == 1 {
		for j, rec := range u.recs {
			if rec.mu != newSlotRec(rec.pt, rec.cnt).mu || (base+j >= n && rec != slotRec{}) {
				return 0, fmt.Errorf("slot %d: µ %g does not match its counts %v", base+j, rec.mu, rec.cnt)
			}
		}
		sum = chunkSum(u.recs)
	} else {
		l, err := checkNode(u.left, span/2, base, n)
		if err != nil {
			return 0, err
		}
		r, err := checkNode(u.right, span/2, base+span/2*stChunk, n)
		if err != nil {
			return 0, err
		}
		sum = l + r
	}
	if u.sum != sum {
		return 0, fmt.Errorf("slot tree: node over the slots from %d sums to %g, recomputed %g", base, u.sum, sum)
	}
	return sum, nil
}

// sizeBytes estimates the standalone footprint: per stChunk slots, one
// chunk node (640 B with its slots) and about one 32 B internal node.
func (t *slotTree) sizeBytes() int {
	return (t.n + stChunk - 1) / stChunk * (640 + 32)
}
