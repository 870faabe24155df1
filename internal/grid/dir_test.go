package grid

import (
	"fmt"
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

// TestDirForcedCollisions overrides the hash to a near-constant so the
// collision-leaf and push-down paths run.
func TestDirForcedCollisions(t *testing.T) {
	orig := dirHash
	defer func() { dirHash = orig }()
	dirHash = func(k Key) uint64 { return uint64(uint32(k.CX)) % 3 } // 3 hash classes
	var d Dir[int]
	cur := &d
	want := map[Key]int{}
	for i := 0; i < 200; i++ {
		k := Key{CX: int32(i), CY: int32(i % 7)}
		cur = cur.With(k, i)
		want[k] = i
	}
	if cur.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", cur.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := cur.Get(k); !ok || got != v {
			t.Fatalf("Get(%v) = %d,%v want %d", k, got, ok, v)
		}
	}
	for k := range want {
		cur = cur.Without(k)
	}
	if cur.Len() != 0 {
		t.Fatalf("drained dir has Len %d", cur.Len())
	}
}

// TestDirRangeDeterministic pins the hash-order iteration contract:
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

// BenchmarkBuildDir bulk-builds the shape Unfreeze passes for scells
// and rcells: one item per occupied grid cell, about 7k cells.
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
		BuildDir(len(keys), func(i int) Key { return keys[i] }, func(idx []int32) int32 { return idx[0] })
	}
}

// buildVsWith bulk-builds a directory over keys (values: the item
// indexes filed under each key) and the same bindings through With in
// order of first occurrence, then checks Len, Get and Range order agree
// and that both keep agreeing under further With/Without edits.
func buildVsWith(t *testing.T, keys []Key) {
	t.Helper()
	built := BuildDir(len(keys), func(i int) Key { return keys[i] }, func(idx []int32) []int32 { return idx })
	inc := &Dir[[]int32]{}
	for i, k := range keys {
		old, _ := inc.Get(k)
		inc = inc.With(k, append(old[:len(old):len(old)], int32(i)))
	}
	same := func(a, b *Dir[[]int32]) {
		t.Helper()
		if a.Len() != b.Len() {
			t.Fatalf("Len %d vs %d", a.Len(), b.Len())
		}
		var ka, kb []Key
		var va, vb [][]int32
		a.Range(func(k Key, v []int32) bool { ka = append(ka, k); va = append(va, v); return true })
		b.Range(func(k Key, v []int32) bool { kb = append(kb, k); vb = append(vb, v); return true })
		for i := range ka {
			if ka[i] != kb[i] || fmt.Sprint(va[i]) != fmt.Sprint(vb[i]) {
				t.Fatalf("Range entry %d: %v=%v vs %v=%v", i, ka[i], va[i], kb[i], vb[i])
			}
			if got, ok := a.Get(kb[i]); !ok || fmt.Sprint(got) != fmt.Sprint(vb[i]) {
				t.Fatalf("Get(%v) = %v,%v want %v", kb[i], got, ok, vb[i])
			}
		}
	}
	same(built, inc)
	for i, k := range keys {
		switch i % 3 {
		case 0:
			built, inc = built.Without(k), inc.Without(k)
		case 1:
			built, inc = built.With(k, []int32{-1}), inc.With(k, []int32{-1})
		}
	}
	extra := Key{CX: 1 << 20, CY: -7}
	built, inc = built.With(extra, nil), inc.With(extra, nil)
	same(built, inc)
}

func TestBuildDirMatchesWith(t *testing.T) {
	r := rng.New(4)
	keys := make([]Key, 3000)
	for i := range keys {
		keys[i] = Key{CX: int32(r.Intn(200)) - 100, CY: int32(r.Intn(20))} // repeats
	}
	buildVsWith(t, keys)
	buildVsWith(t, nil)
	if d := BuildDir(0, nil, func([]int32) int { return 0 }); d.Len() != 0 {
		t.Fatalf("empty build has Len %d", d.Len())
	}
	buildVsWith(t, []Key{{3, -4}})
	buildVsWith(t, []Key{{3, -4}, {5, 6}})
	buildVsWith(t, []Key{{5, 6}, {5, 6}})
}

// TestBuildDirForcedCollisions runs the collision-list and deep
// push-down shapes: three hash classes, and hashes that agree on every
// bit the trie consumes but differ above them.
func TestBuildDirForcedCollisions(t *testing.T) {
	orig := dirHash
	defer func() { dirHash = orig }()
	keys := make([]Key, 300)
	for i := range keys {
		keys[i] = Key{CX: int32(i % 120), CY: int32(i % 7)}
	}
	dirHash = func(k Key) uint64 { return uint64(uint32(k.CX)) % 3 }
	buildVsWith(t, keys)
	dirHash = func(k Key) uint64 { return uint64(uint32(k.CX)%5)<<60 | uint64(uint32(k.CX)%2)<<12 }
	buildVsWith(t, keys)
}
