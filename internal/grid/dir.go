package grid

// Dir is a persistent (path-copied) cell directory: a hash array
// mapped trie over splitmix-hashed Keys with 6-bit branching. Where
// Grid's map serves the frozen bulk-build path, Dir serves the
// incremental one: With and Without return a NEW directory sharing all
// untouched structure with the old version, so an update batch can
// advance the tip in O(ops · log) while every published view keeps
// reading its own version wait-free. Iteration order is a pure
// function of the stored keys (hash order), never of Go map ordering,
// which keeps replays and equal-seed runs deterministic.

import (
	"cmp"
	"math/bits"
	"slices"
)

const (
	dirBits  = 6
	dirFan   = 1 << dirBits // 64-way branching
	dirMask  = dirFan - 1
	dirDepth = 64 / dirBits // hash bits consumed before the collision floor
)

// dirHash mixes a cell key into 64 well-distributed bits (splitmix64
// finalizer). A package variable so tests can force collisions.
var dirHash = func(k Key) uint64 {
	x := uint64(uint32(k.CX)) | uint64(uint32(k.CY))<<32
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// dkv is one stored key/value pair.
type dkv[V any] struct {
	k Key
	v V
}

// dslot is one compressed slot of a node: either a leaf (one or more
// pairs whose remaining hash bits agree) or a child node.
type dslot[V any] struct {
	leaf  []dkv[V]
	child *dnode[V]
}

// dnode is a bitmap-compressed trie node: bit i of bitmap set means
// hash chunk i occupies slots[popcount(bitmap & (1<<i - 1))].
type dnode[V any] struct {
	bitmap uint64
	slots  []dslot[V]
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
	var zero V
	u := d.root
	if u == nil {
		return zero, false
	}
	h := dirHash(k)
	for shift := 0; ; shift += dirBits {
		bit := uint64(1) << ((h >> shift) & dirMask)
		if u.bitmap&bit == 0 {
			return zero, false
		}
		s := &u.slots[bits.OnesCount64(u.bitmap&(bit-1))]
		if s.child == nil {
			for _, kv := range s.leaf {
				if kv.k == k {
					return kv.v, true
				}
			}
			return zero, false
		}
		u = s.child
	}
}

// With returns a new version with k bound to v, path-copying the
// O(log) nodes from the root to k's slot.
func (d *Dir[V]) With(k Key, v V) *Dir[V] {
	h := dirHash(k)
	root, added := withNode(d.root, 0, h, k, v)
	nd := &Dir[V]{root: root, n: d.n}
	if added {
		nd.n++
	}
	return nd
}

func withNode[V any](u *dnode[V], shift int, h uint64, k Key, v V) (*dnode[V], bool) {
	bit := uint64(1) << ((h >> shift) & dirMask)
	if u == nil {
		return &dnode[V]{bitmap: bit, slots: []dslot[V]{{leaf: []dkv[V]{{k, v}}}}}, true
	}
	pos := bits.OnesCount64(u.bitmap & (bit - 1))
	nu := &dnode[V]{bitmap: u.bitmap}
	if u.bitmap&bit == 0 {
		nu.slots = make([]dslot[V], len(u.slots)+1)
		copy(nu.slots, u.slots[:pos])
		nu.slots[pos] = dslot[V]{leaf: []dkv[V]{{k, v}}}
		copy(nu.slots[pos+1:], u.slots[pos:])
		nu.bitmap |= bit
		return nu, true
	}
	nu.slots = append([]dslot[V](nil), u.slots...)
	s := u.slots[pos]
	if s.child != nil {
		child, added := withNode(s.child, shift+dirBits, h, k, v)
		nu.slots[pos] = dslot[V]{child: child}
		return nu, added
	}
	// Leaf slot. Replace in place (copied), extend the collision list
	// when every hash bit is spent, or push both occupants one level
	// down otherwise.
	for i, kv := range s.leaf {
		if kv.k == k {
			leaf := append([]dkv[V](nil), s.leaf...)
			leaf[i] = dkv[V]{k, v}
			nu.slots[pos] = dslot[V]{leaf: leaf}
			return nu, false
		}
	}
	oldHash := dirHash(s.leaf[0].k)
	if shift+dirBits >= dirDepth*dirBits || oldHash == h {
		leaf := append(append([]dkv[V](nil), s.leaf...), dkv[V]{k, v})
		nu.slots[pos] = dslot[V]{leaf: leaf}
		return nu, true
	}
	child := &dnode[V]{}
	obit := uint64(1) << ((oldHash >> (shift + dirBits)) & dirMask)
	child.bitmap = obit
	child.slots = []dslot[V]{{leaf: s.leaf}}
	child, _ = withNode(child, shift+dirBits, h, k, v)
	nu.slots[pos] = dslot[V]{child: child}
	return nu, true
}

// Without returns a new version with k removed (the receiver when k is
// absent), path-copying along the way and dropping emptied slots.
func (d *Dir[V]) Without(k Key) *Dir[V] {
	if d.root == nil {
		return d
	}
	h := dirHash(k)
	root, removed := withoutNode(d.root, 0, h, k)
	if !removed {
		return d
	}
	return &Dir[V]{root: root, n: d.n - 1}
}

func withoutNode[V any](u *dnode[V], shift int, h uint64, k Key) (*dnode[V], bool) {
	bit := uint64(1) << ((h >> shift) & dirMask)
	if u.bitmap&bit == 0 {
		return u, false
	}
	pos := bits.OnesCount64(u.bitmap & (bit - 1))
	s := u.slots[pos]
	var ns dslot[V]
	if s.child != nil {
		child, removed := withoutNode(s.child, shift+dirBits, h, k)
		if !removed {
			return u, false
		}
		if child == nil {
			return dropSlot(u, bit, pos), true
		}
		ns = dslot[V]{child: child}
	} else {
		found := -1
		for i, kv := range s.leaf {
			if kv.k == k {
				found = i
				break
			}
		}
		if found < 0 {
			return u, false
		}
		if len(s.leaf) == 1 {
			return dropSlot(u, bit, pos), true
		}
		leaf := make([]dkv[V], 0, len(s.leaf)-1)
		leaf = append(append(leaf, s.leaf[:found]...), s.leaf[found+1:]...)
		ns = dslot[V]{leaf: leaf}
	}
	nu := &dnode[V]{bitmap: u.bitmap, slots: append([]dslot[V](nil), u.slots...)}
	nu.slots[pos] = ns
	return nu, true
}

// dropSlot returns a copy of u without the slot at pos (nil when that
// was the last slot, so the parent can contract).
func dropSlot[V any](u *dnode[V], bit uint64, pos int) *dnode[V] {
	if len(u.slots) == 1 {
		return nil
	}
	nu := &dnode[V]{bitmap: u.bitmap &^ bit, slots: make([]dslot[V], len(u.slots)-1)}
	copy(nu.slots, u.slots[:pos])
	copy(nu.slots[pos:], u.slots[pos+1:])
	return nu
}

// BuildDir bulk-builds a directory over n items, item i filed under
// key(i): each distinct key is bound to val(idx), where idx lists that
// key's items in ascending order (val may retain idx; the slices share
// one array, each capped at its length). The result looks up, iterates
// and edits exactly like binding the same values with With in order of
// each key's first item, but costs one sort and a few allocations
// instead of one path copy per key.
func BuildDir[V any](n int, key func(i int) Key, val func(idx []int32) V) *Dir[V] {
	type item struct {
		ord uint64 // Range position of the key's hash
		k   Key
		i   int32
	}
	items := make([]item, n)
	for i := range items {
		k := key(i)
		items[i] = item{ord: dirOrder(dirHash(k)), k: k, i: int32(i)}
	}
	slices.SortFunc(items, func(a, b item) int {
		return cmp.Or(cmp.Compare(a.ord, b.ord), cmp.Compare(a.k.CX, b.k.CX), cmp.Compare(a.k.CY, b.k.CY), cmp.Compare(a.i, b.i))
	})
	order := make([]int32, n)
	for j := range items {
		order[j] = items[j].i
	}
	type group struct{ lo, hi int } // items[lo:hi] share one key
	var gs []group
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && items[hi].k == items[lo].k {
			hi++
		}
		gs = append(gs, group{lo, hi})
		lo = hi
	}
	// Keys sharing a Range position (a hash collision) are listed in
	// order of first item, as successive With calls would list them.
	for lo := 0; lo < len(gs); {
		hi := lo + 1
		for hi < len(gs) && items[gs[hi].lo].ord == items[gs[lo].lo].ord {
			hi++
		}
		slices.SortFunc(gs[lo:hi], func(a, b group) int { return cmp.Compare(items[a.lo].i, items[b.lo].i) })
		lo = hi
	}
	kvs := make([]dkv[V], len(gs))
	hs := make([]uint64, len(gs))
	for j, g := range gs {
		k := items[g.lo].k
		kvs[j] = dkv[V]{k, val(order[g.lo:g.hi:g.hi])}
		hs[j] = dirHash(k)
	}
	d := &Dir[V]{n: len(kvs)}
	if len(kvs) > 0 {
		d.root = buildNode(kvs, hs, 0)
	}
	return d
}

// dirOrder maps a hash to its Range position: the 6-bit chunks the trie
// consumes, first chunk most significant.
func dirOrder(h uint64) uint64 {
	var ord uint64
	for shift := 0; shift < dirDepth*dirBits; shift += dirBits {
		ord = ord<<dirBits | (h>>shift)&dirMask
	}
	return ord
}

// buildNode builds the node at shift over kvs, which are in Range order
// and share their hash chunks below shift. A group sharing the chunk at
// shift becomes a leaf when it is one key, when every hash bit is spent,
// or when all its hashes are equal (a collision list) — the shape With
// produces.
func buildNode[V any](kvs []dkv[V], hs []uint64, shift int) *dnode[V] {
	u := &dnode[V]{}
	for lo := 0; lo < len(kvs); {
		c := (hs[lo] >> shift) & dirMask
		hi, same := lo+1, true
		for hi < len(kvs) && (hs[hi]>>shift)&dirMask == c {
			same = same && hs[hi] == hs[lo]
			hi++
		}
		u.bitmap |= 1 << c
		if hi-lo == 1 || same || shift+dirBits >= dirDepth*dirBits {
			u.slots = append(u.slots, dslot[V]{leaf: kvs[lo:hi:hi]})
		} else {
			u.slots = append(u.slots, dslot[V]{child: buildNode(kvs[lo:hi], hs[lo:hi], shift+dirBits)})
		}
		lo = hi
	}
	return u
}

// Range calls fn for every key/value pair in hash order (deterministic
// for a given key set) until fn returns false.
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
			continue
		}
		for _, kv := range s.leaf {
			if !fn(kv.k, kv.v) {
				return false
			}
		}
	}
	return true
}

// SizeBytes estimates the standalone footprint of this version
// (~1.3 slots of 40 bytes per key plus node headers); shared structure
// across versions makes the incremental cost of a new version O(log n).
func (d *Dir[V]) SizeBytes() int { return 72 * d.n }
