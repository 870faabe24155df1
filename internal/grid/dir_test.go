package grid

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestDirBasics(t *testing.T) {
	var d Dir[int]
	if _, ok := d.Get(Key{1, 2}); ok {
		t.Fatal("empty dir returned a value")
	}
	d2 := d.With(Key{1, 2}, 10).With(Key{3, 4}, 20).With(Key{1, 2}, 11)
	if d2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d2.Len())
	}
	if v, ok := d2.Get(Key{1, 2}); !ok || v != 11 {
		t.Fatalf("Get{1,2} = %d,%v", v, ok)
	}
	if v, ok := d2.Get(Key{3, 4}); !ok || v != 20 {
		t.Fatalf("Get{3,4} = %d,%v", v, ok)
	}
	if d.Len() != 0 {
		t.Fatal("With mutated its receiver")
	}
	d3 := d2.Without(Key{1, 2})
	if d3.Len() != 1 {
		t.Fatalf("after Without Len = %d", d3.Len())
	}
	if _, ok := d3.Get(Key{1, 2}); ok {
		t.Fatal("removed key still present")
	}
	if _, ok := d2.Get(Key{1, 2}); !ok {
		t.Fatal("Without mutated its receiver")
	}
	if d4 := d3.Without(Key{9, 9}); d4.Len() != 1 {
		t.Fatal("Without of absent key changed size")
	}
}

// TestDirRandomOpsVsMap drives thousands of random With/Without calls
// against a map oracle, keeping every intermediate version and
// verifying them all at the end (persistence).
func TestDirRandomOpsVsMap(t *testing.T) {
	r := rng.New(1)
	cur := &Dir[int]{}
	oracle := map[Key]int{}
	type version struct {
		d    *Dir[int]
		snap map[Key]int
	}
	var versions []version
	for step := 0; step < 4000; step++ {
		k := Key{CX: int32(r.Intn(40)) - 20, CY: int32(r.Intn(40)) - 20}
		if r.Bool(0.35) {
			cur = cur.Without(k)
			delete(oracle, k)
		} else {
			cur = cur.With(k, step)
			oracle[k] = step
		}
		if step%500 == 0 {
			snap := make(map[Key]int, len(oracle))
			for kk, vv := range oracle {
				snap[kk] = vv
			}
			versions = append(versions, version{cur, snap})
		}
	}
	check := func(d *Dir[int], want map[Key]int) {
		t.Helper()
		if d.Len() != len(want) {
			t.Fatalf("Len = %d, oracle %d", d.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := d.Get(k); !ok || got != v {
				t.Fatalf("Get(%v) = %d,%v want %d", k, got, ok, v)
			}
		}
		seen := 0
		d.Range(func(k Key, v int) bool {
			if want[k] != v {
				t.Fatalf("Range yielded %v=%d, oracle %d", k, v, want[k])
			}
			seen++
			return true
		})
		if seen != len(want) {
			t.Fatalf("Range yielded %d pairs, oracle %d", seen, len(want))
		}
	}
	check(cur, oracle)
	for _, ver := range versions {
		check(ver.d, ver.snap)
	}
}

// TestDirRangeDeterministic pins the mixed-key iteration contract:
// two directories holding the same keys (built in different op orders)
// iterate identically.
func TestDirRangeDeterministic(t *testing.T) {
	r := rng.New(2)
	keys := make([]Key, 300)
	for i := range keys {
		keys[i] = Key{CX: int32(r.Intn(1000)), CY: int32(r.Intn(1000))}
	}
	a, b := &Dir[int]{}, &Dir[int]{}
	for _, k := range keys {
		a = a.With(k, 1)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b = b.With(keys[i], 1)
	}
	// Perturb b with extra keys, then remove them.
	for i := 0; i < 50; i++ {
		b = b.With(Key{CX: -int32(i) - 1, CY: 0}, 9)
	}
	for i := 0; i < 50; i++ {
		b = b.Without(Key{CX: -int32(i) - 1, CY: 0})
	}
	var orderA, orderB []Key
	a.Range(func(k Key, _ int) bool { orderA = append(orderA, k); return true })
	b.Range(func(k Key, _ int) bool { orderB = append(orderB, k); return true })
	if len(orderA) != len(orderB) {
		t.Fatalf("lengths differ: %d vs %d", len(orderA), len(orderB))
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("iteration order diverged at %d: %v vs %v", i, orderA[i], orderB[i])
		}
	}
}

func BenchmarkDirWith(b *testing.B) {
	r := rng.New(3)
	d := &Dir[int]{}
	for i := 0; i < 1<<14; i++ {
		d = d.With(Key{CX: int32(r.Intn(1 << 12)), CY: int32(r.Intn(1 << 12))}, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = d.With(Key{CX: int32(r.Intn(1 << 12)), CY: int32(r.Intn(1 << 12))}, i)
	}
}

// BenchmarkBuildDir bulk-builds the shape a mutable index's bulk
// build (core.NewMutable) passes for scells and rcells: one item per
// occupied grid cell, about 7k cells.
func BenchmarkBuildDir(b *testing.B) {
	var keys []Key
	for x := range int32(90) {
		for y := range int32(90) {
			if (x*31+y*17)%10 != 0 {
				keys = append(keys, Key{CX: x - 45, CY: y})
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildDir(len(keys), func(i int) Key { return keys[i] }, func(i int) int { return i })
	}
}

// unmix inverts dirMix: each xor-shift and each multiply by an odd
// constant is undone in reverse order.
func unmix(h uint64) Key {
	unshift := func(y uint64, s int) uint64 {
		x := y
		for t := s; t < 64; t += s {
			x ^= y >> t
		}
		return x
	}
	inv := func(c uint64) uint64 { // Newton's iteration mod 2^64
		x := c
		for range 5 {
			x *= 2 - c*x
		}
		return x
	}
	x := unshift(h, 31) * inv(0x94d049bb133111eb)
	x = unshift(x, 27) * inv(0xbf58476d1ce4e5b9)
	x = unshift(x, 30)
	return Key{CX: int32(uint32(x)), CY: int32(uint32(x >> 32))}
}

// TestDirMixInjective round-trips random mixes and edge keys through
// unmix: dirMix has an inverse, so no two keys share a mix and a leaf
// slot never needs a second entry.
func TestDirMixInjective(t *testing.T) {
	r := rng.New(5)
	for range 10_000 {
		h := r.Uint64()
		if got := dirMix(unmix(h)); got != h {
			t.Fatalf("dirMix(unmix(%#x)) = %#x", h, got)
		}
	}
	edges := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for _, cx := range edges {
		for _, cy := range edges {
			if k := (Key{CX: cx, CY: cy}); unmix(dirMix(k)) != k {
				t.Fatalf("unmix(dirMix(%v)) = %v", k, unmix(dirMix(k)))
			}
		}
	}
}

// buildVsWith bulk-builds a directory over distinct keys (value: the
// key's index) and the same bindings through With in order, then checks
// Len, Get and Range order agree and that both keep agreeing under
// further With/Without edits.
func buildVsWith(t *testing.T, keys []Key) {
	t.Helper()
	built := BuildDir(len(keys), func(i int) Key { return keys[i] }, func(i int) int { return i })
	inc := &Dir[int]{}
	for i, k := range keys {
		inc = inc.With(k, i)
	}
	same := func(a, b *Dir[int]) {
		t.Helper()
		if a.Len() != b.Len() {
			t.Fatalf("Len %d vs %d", a.Len(), b.Len())
		}
		type kv struct {
			k Key
			v int
		}
		var ea, eb []kv
		a.Range(func(k Key, v int) bool { ea = append(ea, kv{k, v}); return true })
		b.Range(func(k Key, v int) bool { eb = append(eb, kv{k, v}); return true })
		if len(ea) != a.Len() || len(eb) != b.Len() {
			t.Fatalf("Range yielded %d and %d entries, Len %d", len(ea), len(eb), a.Len())
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("Range entry %d: %v vs %v", i, ea[i], eb[i])
			}
			if got, ok := a.Get(eb[i].k); !ok || got != eb[i].v {
				t.Fatalf("Get(%v) = %d,%v want %d", eb[i].k, got, ok, eb[i].v)
			}
		}
	}
	same(built, inc)
	for i, k := range keys {
		switch i % 3 {
		case 0:
			built, inc = built.Without(k), inc.Without(k)
		case 1:
			built, inc = built.With(k, -1), inc.With(k, -1)
		}
	}
	extra := Key{CX: 1 << 20, CY: -7}
	built, inc = built.With(extra, -2), inc.With(extra, -2)
	same(built, inc)
}

func TestBuildDirMatchesWith(t *testing.T) {
	r := rng.New(4)
	var keys []Key
	seen := map[Key]bool{}
	for range 3000 {
		k := Key{CX: int32(r.Intn(200)) - 100, CY: int32(r.Intn(20))}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	buildVsWith(t, keys)
	buildVsWith(t, nil)
	buildVsWith(t, []Key{{3, -4}})
	buildVsWith(t, []Key{{3, -4}, {5, 6}})
}

// TestDirDeepPushDown runs real key pairs whose mixes agree on their
// low 60 bits, so every pair shares one path down to the last, 4-bit
// level: through BuildDir against With, and through Get, With and
// Without on every version.
func TestDirDeepPushDown(t *testing.T) {
	r := rng.New(6)
	var keys []Key
	for range 40 {
		h := r.Uint64()
		keys = append(keys, unmix(h), unmix(h^1<<62))
	}
	buildVsWith(t, keys)
	d := &Dir[int]{}
	for i, k := range keys {
		d = d.With(k, i)
	}
	for i, k := range keys {
		if v, ok := d.Get(k); !ok || v != i {
			t.Fatalf("Get(%v) = %d,%v want %d", k, v, ok, i)
		}
	}
	for i := 0; i < len(keys); i += 2 { // drop one key of each pair
		d = d.Without(keys[i])
	}
	if d.Len() != len(keys)/2 {
		t.Fatalf("Len = %d after dropping half, want %d", d.Len(), len(keys)/2)
	}
	for i, k := range keys {
		v, ok := d.Get(k)
		if ok != (i%2 == 1) || (ok && v != i) {
			t.Fatalf("Get(%v) = %d,%v after dropping its partner", k, v, ok)
		}
	}
	for i := 1; i < len(keys); i += 2 {
		d = d.Without(keys[i])
	}
	if d.Len() != 0 || d.root != nil {
		t.Fatalf("drained dir has Len %d, root %v", d.Len(), d.root)
	}
}

func TestBuildDirRepeatedKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BuildDir over a repeated key did not panic")
		}
	}()
	keys := []Key{{1, 2}, {3, 4}, {1, 2}}
	BuildDir(len(keys), func(i int) Key { return keys[i] }, func(i int) int { return i })
}

// TestDirFootprint holds SizeBytes within 2x of the heap a built
// directory retains, at the value size of both cell directories.
func TestDirFootprint(t *testing.T) {
	var ms runtime.MemStats
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	measure := func(name string, n int, build func() interface{ SizeBytes() int }) {
		t.Helper()
		before := liveHeap()
		d := build()
		measured := liveHeap() - before
		est := int64(d.SizeBytes())
		runtime.KeepAlive(d)
		t.Logf("%s n=%d: SizeBytes %d, live heap %d (%.2fx)", name, n, est, measured, float64(est)/float64(measured))
		if est > 2*measured || measured > 2*est {
			t.Fatalf("%s n=%d: SizeBytes %d vs live heap %d: off by more than 2x", name, n, est, measured)
		}
	}
	r := rng.New(7)
	for _, n := range []int{1000, 7000, 50_000} {
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = unmix(r.Uint64())
		}
		key := func(i int) Key { return keys[i] }
		measure("16-byte values", n, func() interface{ SizeBytes() int } {
			return BuildDir(n, key, func(int) [2]*int { return [2]*int{} })
		})
		measure("slice values", n, func() interface{ SizeBytes() int } {
			return BuildDir(n, key, func(int) []int32 { return nil })
		})
	}
}

// dirShape returns the node count and depth (1 for a lone root) of d.
func dirShape[V any](d *Dir[V]) (nodes, depth int) {
	var walk func(u *dnode[V], level int)
	walk = func(u *dnode[V], level int) {
		nodes++
		depth = max(depth, level)
		for _, s := range u.slots {
			if s.child != nil {
				walk(s.child, level+1)
			}
		}
	}
	if d.root != nil {
		walk(d.root, 1)
	}
	return nodes, depth
}

// TestDirChurnKeepsBuildShape adds and removes batches of keys around
// a fixed set for several rounds: every round must leave the same node
// count, depth and Range order as BuildDir over the surviving keys.
// Without hoists a child left holding one key into its parent's slot;
// without that, churn leaves one-key chains BuildDir never makes.
func TestDirChurnKeepsBuildShape(t *testing.T) {
	r := rng.New(11)
	const n = 7000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = unmix(r.Uint64())
	}
	built := BuildDir(n, func(i int) Key { return keys[i] }, func(i int) int { return i })
	wantNodes, wantDepth := dirShape(built)
	var want []Key
	built.Range(func(k Key, _ int) bool { want = append(want, k); return true })
	d := built
	for round := range 5 {
		extra := make([]Key, n)
		for i := range extra {
			extra[i] = unmix(r.Uint64())
			d = d.With(extra[i], -1)
		}
		for _, k := range extra {
			d = d.Without(k)
		}
		if nodes, depth := dirShape(d); nodes != wantNodes || depth != wantDepth {
			t.Fatalf("round %d: %d nodes at depth %d, BuildDir over the same keys %d at depth %d",
				round, nodes, depth, wantNodes, wantDepth)
		}
		var got []Key
		d.Range(func(k Key, _ int) bool { got = append(got, k); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Range order differs from BuildDir's", round)
		}
	}
	for _, k := range keys {
		d = d.Without(k)
	}
	if d.Len() != 0 || d.root != nil {
		t.Fatalf("drained dir has Len %d, root %v", d.Len(), d.root)
	}
}
