package bbst

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// oraclePoints extracts the live point multiset of a pair, sorted for
// comparison.
func oraclePoints(p *Pair) []geom.Point {
	var out []geom.Point
	for _, b := range p.Buckets() {
		out = append(out, b.Pts...)
	}
	sortPoints(out)
	return out
}

func sortPoints(pts []geom.Point) {
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.ID < b.ID
	})
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstOracle verifies p against the plain point list: full
// structural invariants, exact membership under random corner queries,
// and the Lemma 5 upper-bound inequality.
func checkAgainstOracle(t *testing.T, p *Pair, live []geom.Point, r *rng.RNG, extent float64) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if p.NumPoints() != len(live) {
		t.Fatalf("NumPoints = %d, oracle has %d", p.NumPoints(), len(live))
	}
	got := oraclePoints(p)
	want := append([]geom.Point(nil), live...)
	sortPoints(want)
	if !samePoints(got, want) {
		t.Fatalf("point multiset diverged: %d stored vs %d oracle", len(got), len(want))
	}
	var s Scratch
	for trial := 0; trial < 10; trial++ {
		q := geom.Point{X: r.Range(-1, extent+1), Y: r.Range(-1, extent+1)}
		w := geom.Window(q, r.Range(0.1, extent/2))
		for _, c := range allCorners {
			pred := cornerPredicate(c, w)
			exact := 0
			for _, pt := range live {
				if pred(pt) {
					exact++
				}
			}
			if mu := p.Mu(c, w, &s); exact > mu {
				t.Fatalf("%v: exact %d > µ %d after churn", c, exact, mu)
			}
			reported := 0
			p.ReportPoints(c, w, &s, func(geom.Point) bool { reported++; return true })
			if reported != exact {
				t.Fatalf("%v: reported %d points, oracle says %d", c, reported, exact)
			}
		}
	}
}

func TestInsertIntoEmptyPair(t *testing.T) {
	p, err := Build(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	var live []geom.Point
	for i := 0; i < 100; i++ {
		pt := geom.Point{X: r.Range(0, 20), Y: r.Range(0, 20), ID: int32(i)}
		p.Insert(pt)
		live = append(live, pt)
	}
	checkAgainstOracle(t, p, live, r, 20)
}

// TestInsertIntoSingletonPair grows a pair built over one point. Its
// capacity is 1 whatever b was asked for (a new mutable cell created
// by one insert starts this way), so every insert finds a full
// singleton bucket and takes Insert's cap == 1 path.
func TestInsertIntoSingletonPair(t *testing.T) {
	r := rng.New(2)
	first := geom.Point{X: 10, Y: 10, ID: 0}
	p, err := Build([]geom.Point{first}, BucketCap(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cap() != 1 {
		t.Fatalf("Cap() = %d over one point, want 1", p.Cap())
	}
	live := []geom.Point{first}
	for i := 1; i < 60; i++ {
		pt := geom.Point{X: r.Range(0, 20), Y: r.Range(0, 20), ID: int32(i)}
		p.Insert(pt)
		live = append(live, pt)
	}
	if p.NumBuckets() != len(live) {
		t.Fatalf("%d buckets over %d points, want one singleton each", p.NumBuckets(), len(live))
	}
	checkAgainstOracle(t, p, live, r, 20)
}

func TestDeleteToEmptyAndRefill(t *testing.T) {
	r := rng.New(2)
	pts := sortedPoints(r, 60, 10)
	p, err := Build(pts, BucketCap(60))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if !p.Delete(pt) {
			t.Fatalf("point %v not found", pt)
		}
	}
	if p.NumPoints() != 0 || p.NumBuckets() != 0 {
		t.Fatalf("drained pair not empty: %d points, %d buckets", p.NumPoints(), p.NumBuckets())
	}
	if p.Delete(pts[0]) {
		t.Fatal("delete on empty pair reported found")
	}
	var live []geom.Point
	for i := 0; i < 40; i++ {
		pt := geom.Point{X: r.Range(0, 10), Y: r.Range(0, 10), ID: int32(1000 + i)}
		p.Insert(pt)
		live = append(live, pt)
	}
	checkAgainstOracle(t, p, live, r, 10)
}

// TestSustainedChurnAgainstOracle is the long-haul maintenance test:
// thousands of random inserts and deletes (forcing splits, merges,
// steals, and bucket death) with invariants and oracle agreement
// checked throughout, and a final cross-check against a from-scratch
// bulk rebuild of the surviving points.
func TestSustainedChurnAgainstOracle(t *testing.T) {
	r := rng.New(3)
	const extent = 30.0
	pts := sortedPoints(r, 500, extent)
	p, err := Build(pts, BucketCap(500))
	if err != nil {
		t.Fatal(err)
	}
	live := append([]geom.Point(nil), pts...)
	nextID := int32(10000)
	for step := 0; step < 4000; step++ {
		if len(live) > 0 && r.Bool(0.5) {
			i := r.Intn(len(live))
			if !p.Delete(live[i]) {
				t.Fatalf("step %d: live point %v not found", step, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			pt := geom.Point{X: r.Range(0, extent), Y: r.Range(0, extent), ID: nextID}
			nextID++
			p.Insert(pt)
			live = append(live, pt)
		}
		if step%400 == 0 {
			checkAgainstOracle(t, p, live, r, extent)
		}
	}
	checkAgainstOracle(t, p, live, r, extent)

	// A from-scratch bulk build over the survivors must agree on every
	// exact query (bucketization differs; the answered point sets must
	// not).
	sorted := append([]geom.Point(nil), live...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
	fresh, err := Build(sorted, p.Cap())
	if err != nil {
		t.Fatal(err)
	}
	var s1, s2 Scratch
	for trial := 0; trial < 100; trial++ {
		w := geom.Window(geom.Point{X: r.Range(0, extent), Y: r.Range(0, extent)}, r.Range(0.5, 10))
		for _, c := range allCorners {
			a := map[int32]bool{}
			p.ReportPoints(c, w, &s1, func(pt geom.Point) bool { a[pt.ID] = true; return true })
			b := map[int32]bool{}
			fresh.ReportPoints(c, w, &s2, func(pt geom.Point) bool { b[pt.ID] = true; return true })
			if len(a) != len(b) {
				t.Fatalf("%v: churned pair reports %d points, fresh build %d", c, len(a), len(b))
			}
			for id := range a {
				if !b[id] {
					t.Fatalf("%v: churned pair reports %d, fresh build does not", c, id)
				}
			}
		}
	}
}

// TestChurnSamplingUniform verifies the paper's uniformity argument
// survives maintenance: after heavy churn, accepted SampleSlot draws
// are uniform over the qualifying points.
func TestChurnSamplingUniform(t *testing.T) {
	r := rng.New(4)
	pts := sortedPoints(r, 200, 20)
	p, err := Build(pts, 7)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int32]geom.Point{}
	for _, pt := range pts {
		live[pt.ID] = pt
	}
	ids := make([]int32, 0, len(live))
	for _, pt := range pts {
		ids = append(ids, pt.ID)
	}
	nextID := int32(5000)
	for step := 0; step < 3000; step++ {
		if len(ids) > 50 && r.Bool(0.5) {
			i := r.Intn(len(ids))
			id := ids[i]
			if !p.Delete(live[id]) {
				t.Fatalf("step %d: delete missed", step)
			}
			delete(live, id)
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		} else {
			pt := geom.Point{X: r.Range(0, 20), Y: r.Range(0, 20), ID: nextID}
			p.Insert(pt)
			live[nextID] = pt
			ids = append(ids, nextID)
			nextID++
		}
	}
	w := geom.Rect{XMin: 5, YMin: 5, XMax: 40, YMax: 40}
	pred := cornerPredicate(SouthWest, w)
	qualifying := map[int32]bool{}
	for id, pt := range live {
		if pred(pt) {
			qualifying[id] = true
		}
	}
	if len(qualifying) < 10 {
		t.Fatalf("setup too sparse: %d qualifying", len(qualifying))
	}
	var s Scratch
	counts := map[int32]int{}
	accepted := 0
	const draws = 300000
	for i := 0; i < draws; i++ {
		pt, ok := p.SampleSlot(SouthWest, w, r, &s)
		if !ok || !pred(pt) {
			continue
		}
		if !qualifying[pt.ID] {
			t.Fatalf("sampled non-live or non-qualifying point %d", pt.ID)
		}
		counts[pt.ID]++
		accepted++
	}
	if accepted < draws/8 {
		t.Fatalf("acceptance collapsed after churn: %d/%d", accepted, draws)
	}
	expected := float64(accepted) / float64(len(qualifying))
	chi2 := 0.0
	for id := range qualifying {
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	if dof := float64(len(qualifying) - 1); chi2 > 2*dof+50 {
		t.Fatalf("post-churn sampling skewed: chi2 = %g (dof %g)", chi2, dof)
	}
}

// TestDepthHatchBoundsHeight drives the worst case for a key-immutable
// BST — strictly ascending inserts — and checks the rebuild hatch
// keeps the height logarithmic.
func TestDepthHatchBoundsHeight(t *testing.T) {
	p, err := Build(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		pt := geom.Point{X: float64(i), Y: float64(i % 97), ID: int32(i)}
		p.Insert(pt)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nb := p.NumBuckets()
	limit := 2*int(math.Ceil(math.Log2(float64(nb)))) + 10
	if h := p.Height(); h > limit {
		t.Fatalf("height %d exceeds hatch bound %d (%d buckets)", h, limit, nb)
	}
	// Descending, for the mirrored lean.
	p2, _ := Build(nil, 5)
	for i := 0; i < 4000; i++ {
		pt := geom.Point{X: float64(-i), Y: float64(i % 89), ID: int32(i)}
		p2.Insert(pt)
	}
	if err := p2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nb = p2.NumBuckets()
	limit = 2*int(math.Ceil(math.Log2(float64(nb)))) + 10
	if h := p2.Height(); h > limit {
		t.Fatalf("descending height %d exceeds hatch bound %d (%d buckets)", h, limit, nb)
	}
}

// TestCloneForUpdateIsolation pins the copy-on-write contract: heavy
// mutation of a clone leaves the original's answers byte-identical.
func TestCloneForUpdateIsolation(t *testing.T) {
	r := rng.New(6)
	pts := sortedPoints(r, 300, 15)
	p, err := Build(pts, BucketCap(300))
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		count int
		ids   []int32
	}
	queries := make([]geom.Rect, 40)
	for i := range queries {
		queries[i] = geom.Window(geom.Point{X: r.Range(0, 15), Y: r.Range(0, 15)}, r.Range(0.5, 6))
	}
	snap := func(pr *Pair) []answer {
		var s Scratch
		var out []answer
		for _, w := range queries {
			for _, c := range allCorners {
				a := answer{count: pr.CountBuckets(c, w, &s)}
				pr.ReportPoints(c, w, &s, func(pt geom.Point) bool {
					a.ids = append(a.ids, pt.ID)
					return true
				})
				out = append(out, a)
			}
		}
		return out
	}
	before := snap(p)

	cl := p.CloneForUpdate()
	for i := 0; i < 2000; i++ {
		if r.Bool(0.5) && cl.NumPoints() > 0 {
			bks := cl.Buckets()
			b := bks[r.Intn(len(bks))]
			if !cl.Delete(b.Pts[r.Intn(len(b.Pts))]) {
				t.Fatal("clone delete: live point not found")
			}
		} else {
			pt := geom.Point{X: r.Range(0, 15), Y: r.Range(0, 15), ID: int32(9000 + i)}
			cl.Insert(pt)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("original invariants after clone churn: %v", err)
	}
	after := snap(p)
	if len(before) != len(after) {
		t.Fatal("snapshot shape changed")
	}
	for i := range before {
		if before[i].count != after[i].count || len(before[i].ids) != len(after[i].ids) {
			t.Fatalf("query %d: original's answers changed under clone mutation", i)
		}
		for j := range before[i].ids {
			if before[i].ids[j] != after[i].ids[j] {
				t.Fatalf("query %d: original's reported ids changed", i)
			}
		}
	}
}

// TestCloneInsertLeavesOriginal: a clone of a small-capacity pair
// takes an insert with its invariants intact, and the original keeps
// its point count and invariants.
func TestCloneInsertLeavesOriginal(t *testing.T) {
	r := rng.New(7)
	pts := sortedPoints(r, 50, 10)
	p, err := Build(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.CloneForUpdate()
	cl.Insert(geom.Point{X: 1, Y: 1, ID: 99})
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cl.NumPoints() != 51 || p.NumPoints() != 50 {
		t.Fatalf("clone holds %d points, original %d; want 51 and 50", cl.NumPoints(), p.NumPoints())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("original invariants after clone insert: %v", err)
	}
}

func TestDuplicatePointsChurn(t *testing.T) {
	// Many identical coordinates stress equal-key runs in order, trees,
	// and y-arrays.
	p, err := Build(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	var live []geom.Point
	r := rng.New(8)
	for i := 0; i < 600; i++ {
		pt := geom.Point{X: float64(i % 3), Y: float64(i % 2), ID: int32(i)}
		p.Insert(pt)
		live = append(live, pt)
	}
	checkAgainstOracle(t, p, live, r, 3)
	for i := 0; i < 400; i++ {
		j := r.Intn(len(live))
		if !p.Delete(live[j]) {
			t.Fatalf("delete %v missed", live[j])
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	checkAgainstOracle(t, p, live, r, 3)
}

func BenchmarkInsert(b *testing.B) {
	r := rng.New(9)
	pts := sortedPoints(r, 1<<14, 1000)
	p, _ := Build(pts, BucketCap(1<<14))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := geom.Point{X: r.Range(0, 1000), Y: r.Range(0, 1000), ID: int32(1 << 20)}
		p.Insert(pt)
	}
}

func BenchmarkDeleteInsert(b *testing.B) {
	r := rng.New(10)
	pts := sortedPoints(r, 1<<14, 1000)
	p, _ := Build(pts, BucketCap(1<<14))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bks := p.Buckets()
		victim := bks[r.Intn(len(bks))].Pts[0]
		if !p.Delete(victim) {
			b.Fatal("delete: victim not found")
		}
		p.Insert(victim)
	}
}
