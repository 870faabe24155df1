package grid

// IDDir is a persistent (path-copied) multimap from point IDs to short
// value lists: a radix trie over the ID's own 32 bits (as uint32), 6
// bits per level, every node bitmap-compressed. Where Dir mixes cell
// keys, IDDir needs no mix: dense IDs fill whole leaves, so the trie
// is a chunked vector, and sparse or negative IDs cost a short chain
// of one-child nodes. A leaf keeps the lists of its up to 64 IDs back
// to back in one value array. Like Dir, With and Without return a NEW
// version sharing all untouched structure, so every published version
// keeps reading its own. Range visits IDs in ascending uint32 order;
// each list keeps insertion order.

import (
	"math/bits"
	"slices"
	"unsafe"
)

const (
	idBits = 6
	idMask = 1<<idBits - 1
	// idNodeBytes is one node's struct: bitmap and three slice headers.
	idNodeBytes = 80
)

// idNode is an interior node (kids) or a leaf (offs, vals): bit c of
// bitmap set means chunk c is present, at position j = popcount(bitmap
// & (1<<c - 1)). An interior node's kids[j] is that chunk's subtree; a
// leaf's ID list j is vals[offs[j]:offs[j+1]].
type idNode[V any] struct {
	bitmap uint64
	kids   []*idNode[V]
	offs   []int32
	vals   []V
}

// IDDir is one immutable version. The zero value is empty and ready to
// use.
type IDDir[V any] struct {
	root   *idNode[V]
	height int // interior levels above the leaves
	ids    int // distinct IDs
	n      int // values over all IDs
	nodes  int // nodes, leaves included
	leaves int
}

// idHeight is the least height whose root covers u.
func idHeight(u uint32) int {
	h := 0
	for u>>(idBits*(h+1)) != 0 {
		h++
	}
	return h
}

// pos locates chunk c in n: its bitmap bit, its position j among the
// present chunks, and whether it is present.
func (n *idNode[V]) pos(c uint32) (bit uint64, j int, ok bool) {
	bit = uint64(1) << c
	return bit, bits.OnesCount64(n.bitmap & (bit - 1)), n.bitmap&bit != 0
}

// Len returns the number of stored values over all IDs.
func (d *IDDir[V]) Len() int { return d.n }

// Get returns id's list, nil when absent. The list must not be
// written.
func (d *IDDir[V]) Get(id int32) []V {
	u := uint32(id)
	if d.root == nil || idHeight(u) > d.height {
		return nil
	}
	n := d.root
	for lvl := d.height; lvl > 0; lvl-- {
		_, j, ok := n.pos(u >> (idBits * lvl) & idMask)
		if !ok {
			return nil
		}
		n = n.kids[j]
	}
	_, j, ok := n.pos(u & idMask)
	if !ok {
		return nil
	}
	lo, hi := n.offs[j], n.offs[j+1]
	return n.vals[lo:hi:hi]
}

// With returns a new version with v appended to id's list, path-copying
// the O(log) nodes from the root to id's leaf.
func (d *IDDir[V]) With(id int32, v V) *IDDir[V] {
	u := uint32(id)
	nd := *d
	nd.n++
	if nd.root == nil {
		nd.height = idHeight(u)
	}
	for idHeight(u) > nd.height { // grow: the old root becomes chunk 0
		nd.root = &idNode[V]{bitmap: 1, kids: []*idNode[V]{nd.root}}
		nd.height++
		nd.nodes++
	}
	nd.root = nd.with(nd.root, nd.height, u, v)
	return &nd
}

func (d *IDDir[V]) with(n *idNode[V], lvl int, u uint32, v V) *idNode[V] {
	if n == nil {
		n = &idNode[V]{}
		d.nodes++
		if lvl == 0 {
			d.leaves++
			n.offs = []int32{0}
		}
	}
	bit, j, ok := n.pos(u >> (idBits * lvl) & idMask)
	nn := &idNode[V]{bitmap: n.bitmap | bit}
	if lvl > 0 {
		if ok {
			nn.kids = slices.Clone(n.kids)
			nn.kids[j] = d.with(n.kids[j], lvl-1, u, v)
		} else {
			nn.kids = insertCopy(n.kids, j, d.with(nil, lvl-1, u, v))
		}
		return nn
	}
	at := n.offs[j] // a new ID's list starts where the next one did
	if ok {
		at = n.offs[j+1]
		nn.offs = slices.Clone(n.offs)
	} else {
		d.ids++
		nn.offs = insertCopy(n.offs, j, n.offs[j])
	}
	for k := j + 1; k < len(nn.offs); k++ {
		nn.offs[k]++
	}
	nn.vals = insertCopy(n.vals, int(at), v)
	return nn
}

// Without returns a new version without id's list (the receiver when
// id is absent), path-copying along the way and dropping emptied
// nodes.
func (d *IDDir[V]) Without(id int32) *IDDir[V] {
	u := uint32(id)
	if d.root == nil || idHeight(u) > d.height {
		return d
	}
	nd := *d
	root, removed := nd.without(d.root, d.height, u)
	if !removed {
		return d
	}
	nd.root = root
	return &nd
}

func (d *IDDir[V]) without(n *idNode[V], lvl int, u uint32) (*idNode[V], bool) {
	bit, j, ok := n.pos(u >> (idBits * lvl) & idMask)
	if !ok {
		return n, false
	}
	nn := &idNode[V]{bitmap: n.bitmap &^ bit}
	if lvl > 0 {
		kid, removed := d.without(n.kids[j], lvl-1, u)
		switch {
		case !removed:
			return n, false
		case kid != nil:
			nn.bitmap = n.bitmap
			nn.kids = slices.Clone(n.kids)
			nn.kids[j] = kid
			return nn, true
		}
		nn.kids = deleteCopy(n.kids, j, j+1)
	} else {
		lo, hi := n.offs[j], n.offs[j+1]
		d.ids--
		d.n -= int(hi - lo)
		nn.vals = deleteCopy(n.vals, int(lo), int(hi))
		nn.offs = deleteCopy(n.offs, j, j+1)
		for k := j; k < len(nn.offs); k++ {
			nn.offs[k] -= hi - lo
		}
	}
	if nn.bitmap == 0 {
		d.nodes--
		if lvl == 0 {
			d.leaves--
		}
		return nil, true
	}
	return nn, true
}

// BuildIDDir bulk-builds a version over n values, value i = val(i)
// appended to the list of id(i) in ascending i: the same lists as n
// With calls in that order, from one radix sort by ID and one pass.
// Each leaf gets exact-size offset and value arrays of its own, like
// the leaves With and Without make, so a leaf left untouched by later
// versions keeps nothing else alive.
func BuildIDDir[V any](n int, id func(i int) int32, val func(i int) V) *IDDir[V] {
	items := make([]radixItem[uint32], n)
	for i := range items {
		items[i] = radixItem[uint32]{key: uint32(id(i)), i: int32(i)}
	}
	items = radixSort(items, make([]radixItem[uint32], n))
	d := &IDDir[V]{n: n}
	if n == 0 {
		return d
	}
	d.height = idHeight(items[n-1].key)
	d.root = d.build(items, val, d.height)
	return d
}

// build builds the node at lvl over items (sorted by ID, sharing every
// chunk above lvl), taking each item's value from val.
func (d *IDDir[V]) build(items []radixItem[uint32], val func(i int) V, lvl int) *idNode[V] {
	n := &idNode[V]{}
	d.nodes++
	if lvl == 0 {
		d.leaves++
		ids := 0
		for j := range items {
			if j == 0 || items[j].key != items[j-1].key {
				ids++
			}
		}
		d.ids += ids
		n.offs = make([]int32, 0, ids+1)
		n.vals = make([]V, len(items))
		for j, it := range items {
			if j == 0 || it.key != items[j-1].key {
				n.bitmap |= 1 << (it.key & idMask)
				n.offs = append(n.offs, int32(j))
			}
			n.vals[j] = val(int(it.i))
		}
		n.offs = append(n.offs, int32(len(items)))
		return n
	}
	shift := idBits * lvl
	for lo := 0; lo < len(items); {
		c := items[lo].key >> shift & idMask
		hi := lo + 1
		for hi < len(items) && items[hi].key>>shift&idMask == c {
			hi++
		}
		n.bitmap |= 1 << c
		n.kids = append(n.kids, d.build(items[lo:hi], val, lvl-1))
		lo = hi
	}
	return n
}

// radixItem is one entry of a radix sort: the key it sorts by and the
// index of the item it stands for.
type radixItem[K uint32 | uint64] struct {
	key K
	i   int32
}

// radixSort sorts items stably by key: an LSD radix sort in the fewest
// passes of at most 11 bits that cover the bits on which keys differ,
// skipping a digit all keys share. buf is scratch of the same length;
// the result is items or buf. Items entered in ascending i come out in
// (key, i) order.
func radixSort[K uint32 | uint64](items, buf []radixItem[K]) []radixItem[K] {
	and, or := ^K(0), K(0)
	for _, it := range items {
		and &= it.key
		or |= it.key
	}
	width := bits.Len64(uint64(and ^ or))
	if width == 0 {
		return items // at most one distinct key
	}
	passes := (width + 10) / 11
	digit := (width + passes - 1) / passes
	mask := K(1)<<digit - 1
	count := make([]int32, 1<<digit)
	for shift := 0; shift < width; shift += digit {
		if (and^or)>>shift&mask == 0 {
			continue // every key has the same digit here
		}
		clear(count)
		for _, it := range items {
			count[it.key>>shift&mask]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, it := range items {
			d := it.key >> shift & mask
			buf[count[d]] = it
			count[d]++
		}
		items, buf = buf, items
	}
	return items
}

// Range calls fn for every ID and its list in ascending uint32(ID)
// order until fn returns false. The lists must not be written.
func (d *IDDir[V]) Range(fn func(id int32, vals []V) bool) {
	d.rangeNode(d.root, d.height, 0, fn)
}

func (d *IDDir[V]) rangeNode(n *idNode[V], lvl int, prefix uint32, fn func(int32, []V) bool) bool {
	if n == nil {
		return true
	}
	j := 0
	for b := n.bitmap; b != 0; b &= b - 1 {
		u := prefix<<idBits | uint32(bits.TrailingZeros64(b))
		if lvl > 0 {
			if !d.rangeNode(n.kids[j], lvl-1, u, fn) {
				return false
			}
		} else if lo, hi := n.offs[j], n.offs[j+1]; !fn(int32(u), n.vals[lo:hi:hi]) {
			return false
		}
		j++
	}
	return true
}

// SizeBytes is the standalone footprint of this version: its nodes,
// each child pointer, each leaf's offsets and the values. Shared
// structure across versions makes a new version's incremental cost
// O(log) nodes and one leaf.
func (d *IDDir[V]) SizeBytes() int {
	var v V
	return idNodeBytes*d.nodes + 8*max(d.nodes-1, 0) + 4*(d.ids+d.leaves) + int(unsafe.Sizeof(v))*d.n
}

// insertCopy returns a copy of s with v inserted at j.
func insertCopy[T any](s []T, j int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:j])
	out[j] = v
	copy(out[j+1:], s[j:])
	return out
}

// deleteCopy returns a copy of s without s[lo:hi].
func deleteCopy[T any](s []T, lo, hi int) []T {
	out := make([]T, 0, len(s)-(hi-lo))
	return append(append(out, s[:lo]...), s[hi:]...)
}
