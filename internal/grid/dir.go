package grid

// Dir is a persistent (path-copied) cell directory: a bitmap-compressed
// trie over dirMix(key), 6 bits per level, the eleventh and last level
// 4 bits wide, so all 64 mixed bits are consumed. dirMix is a bijection,
// so any two keys part by the last level and every leaf slot holds
// exactly one key inline: there are no collision lists. Where Grid's map
// serves the frozen bulk-build path, Dir serves the incremental one:
// With and Without return a NEW directory sharing all untouched
// structure with the old version, so an update batch can advance the
// tip in O(ops · log) while every published view keeps reading its own
// version wait-free. Iteration order is a pure function of the stored
// keys (mixed-key order), never of Go map ordering, which keeps
// replays and equal-seed runs deterministic.

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"
)

const (
	dirBits = 6
	dirMask = 1<<dirBits - 1
	// dirNodeBytes is one node's struct: bitmap and slice header.
	dirNodeBytes = 32
)

// dirMix mixes a cell key into 64 well-distributed bits: the splitmix64
// finalizer over the packed (CX, CY). Each step (xor-shift, multiply by
// an odd constant) is invertible, so distinct keys never share a mix.
func dirMix(k Key) uint64 {
	x := uint64(uint32(k.CX)) | uint64(uint32(k.CY))<<32
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// dslot is one compressed slot of a node: a child node, or (child nil)
// one key and its value.
type dslot[V any] struct {
	k     Key
	v     V
	child *dnode[V]
}

// dnode is a bitmap-compressed trie node: bit c of bitmap set means
// mix chunk c occupies slots[popcount(bitmap & (1<<c - 1))].
type dnode[V any] struct {
	bitmap uint64
	slots  []dslot[V]
}

// pos locates the chunk of h at shift in u: its bitmap bit, its slot
// position and whether it is present.
func (u *dnode[V]) pos(h uint64, shift int) (bit uint64, j int, ok bool) {
	bit = uint64(1) << (h >> shift & dirMask)
	return bit, bits.OnesCount64(u.bitmap & (bit - 1)), u.bitmap&bit != 0
}

// Dir is one immutable version of the directory. The zero value is
// empty and ready to use.
type Dir[V any] struct {
	root *dnode[V]
	n    int
}

// Len returns the number of keys.
func (d *Dir[V]) Len() int { return d.n }

// Get returns the value stored under k.
func (d *Dir[V]) Get(k Key) (V, bool) {
	h := dirMix(k)
	for u, shift := d.root, 0; u != nil; shift += dirBits {
		_, j, ok := u.pos(h, shift)
		if !ok {
			break
		}
		s := &u.slots[j]
		if s.child == nil {
			if s.k == k {
				return s.v, true
			}
			break
		}
		u = s.child
	}
	var zero V
	return zero, false
}

// With returns a new version with k bound to v, path-copying the
// O(log) nodes from the root to k's slot.
func (d *Dir[V]) With(k Key, v V) *Dir[V] {
	nd := &Dir[V]{n: d.n}
	var added bool
	nd.root, added = withNode(d.root, 0, dirMix(k), dslot[V]{k: k, v: v})
	if added {
		nd.n++
	}
	return nd
}

func withNode[V any](u *dnode[V], shift int, h uint64, e dslot[V]) (*dnode[V], bool) {
	if u == nil {
		return &dnode[V]{bitmap: 1 << (h >> shift & dirMask), slots: []dslot[V]{e}}, true
	}
	bit, j, ok := u.pos(h, shift)
	if !ok {
		return &dnode[V]{bitmap: u.bitmap | bit, slots: insertCopy(u.slots, j, e)}, true
	}
	nu := &dnode[V]{bitmap: u.bitmap, slots: slices.Clone(u.slots)}
	s := &nu.slots[j]
	switch {
	case s.child != nil:
		var added bool
		s.child, added = withNode(s.child, shift+dirBits, h, e)
		return nu, added
	case s.k == e.k:
		*s = e
		return nu, false
	}
	// Two keys share this chunk: both move into a new child, where they
	// part at the latest by the last level.
	child, _ := withNode(nil, shift+dirBits, dirMix(s.k), *s)
	*s = dslot[V]{}
	s.child, _ = withNode(child, shift+dirBits, h, e)
	return nu, true
}

// Without returns a new version with k removed (the receiver when k is
// absent), path-copying along the way, dropping emptied nodes and
// hoisting a child left with one key into its parent's slot, so the
// shape stays the one BuildDir gives the remaining keys.
func (d *Dir[V]) Without(k Key) *Dir[V] {
	if d.root == nil {
		return d
	}
	root, removed := withoutNode(d.root, 0, dirMix(k), k)
	if !removed {
		return d
	}
	return &Dir[V]{root: root, n: d.n - 1}
}

func withoutNode[V any](u *dnode[V], shift int, h uint64, k Key) (*dnode[V], bool) {
	bit, j, ok := u.pos(h, shift)
	if !ok {
		return u, false
	}
	if s := u.slots[j]; s.child != nil {
		child, removed := withoutNode(s.child, shift+dirBits, h, k)
		if !removed {
			return u, false
		}
		if child != nil {
			nu := &dnode[V]{bitmap: u.bitmap, slots: slices.Clone(u.slots)}
			if len(child.slots) == 1 && child.slots[0].child == nil {
				nu.slots[j] = child.slots[0] // one key left: a leaf slot here
			} else {
				nu.slots[j].child = child
			}
			return nu, true
		}
	} else if s.k != k {
		return u, false
	}
	if len(u.slots) == 1 {
		return nil, true
	}
	return &dnode[V]{bitmap: u.bitmap &^ bit, slots: deleteCopy(u.slots, j, j+1)}, true
}

// BuildDir bulk-builds a directory over n distinct keys, binding key(i)
// to val(i); a repeated key panics. The result looks up, iterates and
// edits exactly like n With calls, but costs one sort and one
// allocation per node instead of one path copy per key.
func BuildDir[V any](n int, key func(i int) Key, val func(i int) V) *Dir[V] {
	type item struct {
		ord uint64 // Range position of the key
		i   int32
	}
	items := make([]item, n)
	for i := range items {
		items[i] = item{ord: dirOrder(dirMix(key(i))), i: int32(i)}
	}
	slices.SortFunc(items, func(a, b item) int { return cmp.Compare(a.ord, b.ord) })
	es := make([]dslot[V], n)
	hs := make([]uint64, n)
	for j, it := range items {
		if j > 0 && it.ord == items[j-1].ord {
			panic("grid: BuildDir over a repeated key")
		}
		k := key(int(it.i))
		es[j] = dslot[V]{k: k, v: val(int(it.i))}
		hs[j] = dirMix(k)
	}
	d := &Dir[V]{n: n}
	if n > 0 {
		d.root = buildNode(es, hs, 0)
	}
	return d
}

// dirOrder maps a mix to its Range position: the chunks the trie
// consumes, first chunk most significant. It permutes the bits, so it
// is a bijection too.
func dirOrder(h uint64) uint64 {
	ord := h >> 60 // the last level's 4 bits
	for shift := 0; shift < 60; shift += dirBits {
		ord |= (h >> shift & dirMask) << (58 - shift)
	}
	return ord
}

// buildNode builds the node at shift over es, which are in Range order
// and share their mix chunks below shift (hs holds their mixes). A
// chunk held by one entry becomes a leaf slot, one held by several a
// child — the shape With produces.
func buildNode[V any](es []dslot[V], hs []uint64, shift int) *dnode[V] {
	u := &dnode[V]{}
	for _, h := range hs {
		u.bitmap |= 1 << (h >> shift & dirMask)
	}
	u.slots = make([]dslot[V], 0, bits.OnesCount64(u.bitmap))
	for lo := 0; lo < len(es); {
		c := hs[lo] >> shift & dirMask
		hi := lo + 1
		for hi < len(es) && hs[hi]>>shift&dirMask == c {
			hi++
		}
		if hi-lo == 1 {
			u.slots = append(u.slots, es[lo])
		} else {
			u.slots = append(u.slots, dslot[V]{child: buildNode(es[lo:hi], hs[lo:hi], shift+dirBits)})
		}
		lo = hi
	}
	return u
}

// Range calls fn for every key/value pair in mixed-key order
// (deterministic for a given key set) until fn returns false.
func (d *Dir[V]) Range(fn func(Key, V) bool) {
	rangeNode(d.root, fn)
}

func rangeNode[V any](u *dnode[V], fn func(Key, V) bool) bool {
	if u == nil {
		return true
	}
	for i := range u.slots {
		s := &u.slots[i]
		if s.child != nil {
			if !rangeNode(s.child, fn) {
				return false
			}
		} else if !fn(s.k, s.v) {
			return false
		}
	}
	return true
}

// SizeBytes estimates the standalone footprint of this version: about
// 1.3 slots and 0.3 nodes per key, the shape of a 64-way trie over
// well-mixed keys; shared structure across versions makes the
// incremental cost of a new version O(log n).
func (d *Dir[V]) SizeBytes() int {
	slot := int(unsafe.Sizeof(dslot[V]{}))
	return d.n * (13*slot + 3*dirNodeBytes) / 10
}
