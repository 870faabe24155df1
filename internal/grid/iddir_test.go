package grid

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

// checkIDDir holds d to the oracle: Len, every Get, and Range in
// ascending uint32(ID) order with each list in insertion order.
func checkIDDir(t *testing.T, d *IDDir[int], want map[int32][]int) {
	t.Helper()
	n := 0
	for id, vs := range want {
		n += len(vs)
		if got := d.Get(id); !slices.Equal(got, vs) {
			t.Fatalf("Get(%d) = %v, want %v", id, got, vs)
		}
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, oracle %d", d.Len(), n)
	}
	var ids []int32
	d.Range(func(id int32, vs []int) bool {
		if !slices.Equal(vs, want[id]) {
			t.Fatalf("Range yielded %d=%v, oracle %v", id, vs, want[id])
		}
		ids = append(ids, id)
		return true
	})
	if len(ids) != len(want) {
		t.Fatalf("Range yielded %d IDs, oracle %d", len(ids), len(want))
	}
	if !slices.IsSortedFunc(ids, func(a, b int32) int { return int(int64(uint32(a)) - int64(uint32(b))) }) {
		t.Fatalf("Range order %v is not ascending uint32", ids)
	}
	calls := 0
	d.Range(func(int32, []int) bool { calls++; return false })
	if calls != min(len(want), 1) {
		t.Fatalf("Range went on after fn returned false: %d calls", calls)
	}
	for _, id := range []int32{math.MinInt32, math.MaxInt32, -1, 0, 1, 64, 1 << 12, 1 << 18, 1 << 30} {
		if _, ok := want[id]; !ok && d.Get(id) != nil {
			t.Fatalf("Get(%d) = %v for an absent ID", id, d.Get(id))
		}
	}
}

func cloneOracle(m map[int32][]int) map[int32][]int {
	c := maps.Clone(m)
	for id, vs := range c {
		c[id] = slices.Clone(vs)
	}
	return c
}

// TestIDDirRandomOpsVsMap drives random With/Without scripts over IDs
// drawn from a small dense range, the int32 extremes and scattered
// negatives, against a map oracle. After every edit the version before
// it must be unchanged; every kept version is rechecked at the end.
func TestIDDirRandomOpsVsMap(t *testing.T) {
	r := rng.New(1)
	pool := []int32{math.MinInt32, math.MaxInt32, -1, -2, -64, -65, 63, 64, 4095, 4096, 1 << 24}
	pick := func() int32 {
		if r.Bool(0.3) {
			return pool[r.Intn(len(pool))]
		}
		return int32(r.Intn(300)) - 20 // repeats, a few negatives
	}
	cur := &IDDir[int]{}
	oracle := map[int32][]int{}
	type version struct {
		d    *IDDir[int]
		snap map[int32][]int
	}
	var kept []version
	for step := 0; step < 3000; step++ {
		prev, prevSnap := cur, cloneOracle(oracle)
		id := pick()
		if r.Bool(0.3) {
			cur = cur.Without(id)
			delete(oracle, id)
		} else {
			cur = cur.With(id, step)
			oracle[id] = append(oracle[id], step)
		}
		checkIDDir(t, prev, prevSnap)
		if step%10 == 0 {
			checkIDDir(t, cur, oracle)
		}
		if step%300 == 0 {
			kept = append(kept, version{cur, cloneOracle(oracle)})
		}
	}
	for id := range oracle { // drain: empty nodes must go
		cur = cur.Without(id)
	}
	checkIDDir(t, cur, nil)
	if cur.root != nil || cur.nodes != 0 || cur.leaves != 0 || cur.ids != 0 {
		t.Fatalf("drained dir keeps root %v, %d nodes, %d leaves, %d IDs", cur.root != nil, cur.nodes, cur.leaves, cur.ids)
	}
	for _, v := range kept {
		checkIDDir(t, v.d, v.snap)
	}
}

// TestBuildIDDirMatchesWith bulk-builds the shapes a mutable index's
// bulk build (core.NewMutable) builds (dense IDs, one value each;
// repeated and extreme IDs) and checks they hold the same lists, node
// counts and footprint as With calls in item order, and keep agreeing
// under further edits.
func TestBuildIDDirMatchesWith(t *testing.T) {
	r := rng.New(2)
	dense := make([]int32, 70_000)
	for i := range dense {
		dense[i] = int32(i)
	}
	r.Shuffle(len(dense), func(i, j int) { dense[i], dense[j] = dense[j], dense[i] })
	mixed := make([]int32, 5000)
	for i := range mixed {
		mixed[i] = int32(r.Intn(700)) - 350
	}
	mixed = append(mixed, math.MinInt32, math.MaxInt32, math.MinInt32, 0, math.MaxInt32)
	// IDs agreeing in their top 16 bits, so the radix sort skips that
	// digit; about 12 values per ID.
	high := make([]int32, 4000)
	for i := range high {
		high[i] = 5<<16 + int32(r.Intn(330))
	}
	for _, ids := range [][]int32{nil, {7}, {-3, -3}, {math.MaxInt32, math.MinInt32}, dense, mixed, high} {
		built := BuildIDDir(len(ids), func(i int) int32 { return ids[i] }, func(i int) int { return i })
		inc := &IDDir[int]{}
		oracle := map[int32][]int{}
		for i, id := range ids {
			inc = inc.With(id, i)
			oracle[id] = append(oracle[id], i)
		}
		checkIDDir(t, built, oracle)
		checkIDDir(t, inc, oracle)
		if built.ids != inc.ids || built.nodes != inc.nodes || built.leaves != inc.leaves ||
			built.SizeBytes() != inc.SizeBytes() {
			t.Fatalf("%d IDs: built (ids %d, nodes %d, leaves %d, %d B), With (ids %d, nodes %d, leaves %d, %d B)",
				len(ids), built.ids, built.nodes, built.leaves, built.SizeBytes(),
				inc.ids, inc.nodes, inc.leaves, inc.SizeBytes())
		}
		for i, id := range ids {
			switch i % 3 {
			case 0:
				built, inc = built.Without(id), inc.Without(id)
				delete(oracle, id)
			case 1:
				built, inc = built.With(id, -i), inc.With(id, -i)
				oracle[id] = append(oracle[id], -i)
			}
		}
		checkIDDir(t, built, oracle)
		checkIDDir(t, inc, oracle)
	}
}

// TestBuildIDDirLeavesOwnValues: a list kept from a bulk-built
// directory pins its own leaf's values, not every value of the build,
// so an untouched leaf of a later version keeps nothing else alive.
func TestBuildIDDirLeavesOwnValues(t *testing.T) {
	const n = 200_000 // 1.6 MB of values
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := BuildIDDir(n, func(i int) int32 { return int32(i) }, func(i int) int { return i }).Get(0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 256<<10 {
		t.Fatalf("one kept list retains %d KB of a %d-value build", retained>>10, n)
	}
}

// TestIDDirDenseFootprint pins the point of keying by the ID's bits:
// dense IDs cost a few bytes each beyond their values.
func TestIDDirDenseFootprint(t *testing.T) {
	const n = 100_000
	d := BuildIDDir(n, func(i int) int32 { return int32(i) }, func(i int) int32 { return int32(i) })
	if perID := float64(d.SizeBytes()) / n; perID > 12 {
		t.Fatalf("dense IDDir costs %.1f B per ID, want <= 12", perID)
	}
}

// BenchmarkBuildIDDir bulk-builds the shape a mutable index's bulk
// build (core.NewMutable) passes for sids and rids: 100k shuffled
// dense IDs, one value each.
func BenchmarkBuildIDDir(b *testing.B) {
	const n = 100_000
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	r := rng.New(6)
	r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildIDDir(n, func(i int) int32 { return ids[i] }, func(i int) Key { return Key{CX: int32(i)} })
	}
}
