package bbst

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

// sortedPoints generates n points in [0,extent)^2 sorted by x.
func sortedPoints(r *rng.RNG, n int, extent float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, extent), Y: r.Range(0, extent), ID: int32(i)}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return pts
}

// bruteBucketCount counts buckets matching the corner constraint
// directly from the summaries.
func bruteBucketCount(p *Pair, c Corner, w geom.Rect) int {
	count := 0
	for _, b := range p.Buckets() {
		var ok bool
		switch c {
		case SouthWest:
			ok = b.MaxX >= w.XMin && b.MaxY >= w.YMin
		case NorthWest:
			ok = b.MaxX >= w.XMin && b.MinY <= w.YMax
		case SouthEast:
			ok = b.MinX <= w.XMax && b.MaxY >= w.YMin
		case NorthEast:
			ok = b.MinX <= w.XMax && b.MinY <= w.YMax
		}
		if ok {
			count++
		}
	}
	return count
}

// cornerPredicate returns the 2-sided point constraint for a corner.
func cornerPredicate(c Corner, w geom.Rect) func(geom.Point) bool {
	switch c {
	case SouthWest:
		return func(p geom.Point) bool { return p.X >= w.XMin && p.Y >= w.YMin }
	case NorthWest:
		return func(p geom.Point) bool { return p.X >= w.XMin && p.Y <= w.YMax }
	case SouthEast:
		return func(p geom.Point) bool { return p.X <= w.XMax && p.Y >= w.YMin }
	case NorthEast:
		return func(p geom.Point) bool { return p.X <= w.XMax && p.Y <= w.YMax }
	}
	panic("bad corner")
}

var allCorners = []Corner{SouthWest, NorthWest, SouthEast, NorthEast}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Error("zero capacity should fail")
	}
	unsorted := []geom.Point{{X: 2}, {X: 1}}
	if _, err := Build(unsorted, 2); err == nil {
		t.Error("unsorted input should fail")
	}
}

func TestBucketCap(t *testing.T) {
	tests := []struct {
		m, want int
	}{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {8, 3}, {9, 4}, {1 << 20, 20},
	}
	for _, tc := range tests {
		if got := BucketCap(tc.m); got != tc.want {
			t.Errorf("BucketCap(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
}

// TestBuildBalancedBuckets pins Build's partition: N points cut into
// ceil(N/b) buckets whose sizes differ by at most one, and a pair
// capacity of ceil(N/ceil(N/b)) <= b that equals b when b divides N.
func TestBuildBalancedBuckets(t *testing.T) {
	r := rng.New(19)
	for _, b := range []int{1, 2, 3, 5, 8, 17} {
		for n := 0; n <= 3*b+1; n++ {
			p, err := Build(sortedPoints(r, n, 100), b)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("b=%d N=%d: %v", b, n, err)
			}
			k := (n + b - 1) / b
			if got := p.NumBuckets(); got != k {
				t.Fatalf("b=%d N=%d: %d buckets, want ceil(N/b) = %d", b, n, got, k)
			}
			if n%b == 0 && p.Cap() != b {
				t.Fatalf("b=%d N=%d: Cap() = %d, want b since b divides N", b, n, p.Cap())
			}
			if n == 0 {
				continue
			}
			if want := (n + k - 1) / k; p.Cap() != want || p.Cap() > b {
				t.Fatalf("b=%d N=%d: Cap() = %d, want ceil(N/ceil(N/b)) = %d <= b", b, n, p.Cap(), want)
			}
			lo, hi := n, 0
			for _, bk := range p.Buckets() {
				lo, hi = min(lo, bk.Len()), max(hi, bk.Len())
			}
			if hi-lo > 1 || hi != p.Cap() {
				t.Fatalf("b=%d N=%d: bucket sizes span [%d, %d], Cap() = %d", b, n, lo, hi, p.Cap())
			}
		}
	}
}

// TestCheckInvariantsCatchesCorruptPair corrupts a built pair's id rows
// in three ways, each of which CheckInvariants must report: two ids of
// the root's a-array swapped out of y-order, an id repeated over its
// neighbour, and an id of the root's left child swapped with one of
// its right child, across the root's split.
func TestCheckInvariantsCatchesCorruptPair(t *testing.T) {
	corruptions := map[string]func(p *Pair){
		"swap out of y-order": func(p *Pair) {
			root := p.row(0, 0, 0)
			root[0], root[1] = root[1], root[0]
		},
		"repeated id": func(p *Pair) {
			root := p.row(1, 0, 1)
			root[1] = root[0]
		},
		"id across the split": func(p *Pair) {
			eqLo, eqHi, _ := p.split(0, 0, p.NumBuckets())
			next := p.row(0, 1, 0)
			next[eqLo-1], next[eqHi] = next[eqHi], next[eqLo-1]
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			p, err := Build(sortedPoints(rng.New(37), 200, 100), 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			corrupt(p)
			err = p.CheckInvariants()
			if err == nil {
				t.Fatal("CheckInvariants passed a corrupt pair")
			}
			t.Log(err)
		})
	}
}

func TestEmptyPair(t *testing.T) {
	p, err := Build(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBuckets() != 0 {
		t.Fatal("empty pair should have no buckets")
	}
	w := geom.Rect{XMin: 0, YMin: 0, XMax: 1, YMax: 1}
	for _, c := range allCorners {
		if got := p.CountBuckets(c, w, nil); got != 0 {
			t.Errorf("%v count = %d on empty pair", c, got)
		}
		if _, ok := p.SampleSlot(c, w, rng.New(1), nil); ok {
			t.Errorf("%v sample should fail on empty pair", c)
		}
	}
}

func TestBucketPartition(t *testing.T) {
	r := rng.New(1)
	pts := sortedPoints(r, 103, 100) // deliberately not a multiple of cap
	p, err := Build(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.NumBuckets(), 11; got != want {
		t.Fatalf("NumBuckets = %d, want %d", got, want)
	}
	covered := 0
	for i, b := range p.Buckets() {
		if b.Len() <= 0 || b.Len() > p.Cap() {
			t.Fatalf("bucket %d has invalid length %d", i, b.Len())
		}
		covered += b.Len()
		for _, pt := range b.Pts {
			if pt.X < b.MinX || pt.X > b.MaxX || pt.Y < b.MinY || pt.Y > b.MaxY {
				t.Fatalf("bucket %d summary does not cover point %v", i, pt)
			}
		}
		// Summaries must be tight.
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, pt := range b.Pts {
			minX = math.Min(minX, pt.X)
			maxX = math.Max(maxX, pt.X)
			minY = math.Min(minY, pt.Y)
			maxY = math.Max(maxY, pt.Y)
		}
		if b.MinX != minX || b.MaxX != maxX || b.MinY != minY || b.MaxY != maxY {
			t.Fatalf("bucket %d summary not tight", i)
		}
	}
	if covered != len(pts) {
		t.Fatalf("buckets cover %d points, want %d", covered, len(pts))
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{1, 5, 17, 200, 1000} {
		pts := sortedPoints(r, n, 50)
		p, err := Build(pts, BucketCap(n))
		if err != nil {
			t.Fatal(err)
		}
		var s Scratch
		for trial := 0; trial < 200; trial++ {
			q := geom.Point{X: r.Range(-5, 55), Y: r.Range(-5, 55)}
			w := geom.Window(q, r.Range(0.1, 20))
			for _, c := range allCorners {
				got := p.CountBuckets(c, w, &s)
				want := bruteBucketCount(p, c, w)
				if got != want {
					t.Fatalf("n=%d %v count = %d, want %d (w=%v)", n, c, got, want, w)
				}
			}
		}
	}
}

func TestDuplicateXCoordinates(t *testing.T) {
	// The b-lists exist precisely so that equal keys keep the tree
	// balanced; stress with many duplicates.
	r := rng.New(3)
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i % 5), Y: r.Range(0, 100), ID: int32(i)}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	p, err := Build(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		w := geom.Window(geom.Point{X: r.Range(-1, 6), Y: r.Range(0, 100)}, r.Range(0.1, 50))
		for _, c := range allCorners {
			got := p.CountBuckets(c, w, nil)
			want := bruteBucketCount(p, c, w)
			if got != want {
				t.Fatalf("%v count = %d, want %d", c, got, want)
			}
		}
	}
}

// TestDuplicateYKeys: equal bucket y summaries and window edges that
// land exactly on them stress the >= / > boundary of the y searches.
func TestDuplicateYKeys(t *testing.T) {
	r := rng.New(3)
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 20), Y: float64(i % 4), ID: int32(i)}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	p, err := Build(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		// Integer extents put the window's y edges on the keys.
		w := geom.Window(geom.Point{X: r.Range(0, 20), Y: float64(r.Intn(5))}, float64(r.Intn(3)))
		if w.YMax == w.YMin {
			w.YMax++
		}
		for _, c := range allCorners {
			if got, want := p.CountBuckets(c, w, nil), bruteBucketCount(p, c, w); got != want {
				t.Fatalf("%v count = %d, want %d (w=%v)", c, got, want, w)
			}
		}
	}
}

func TestAllIdenticalPoints(t *testing.T) {
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Point{X: 3, Y: 3, ID: int32(i)}
	}
	p, err := Build(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	w := geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	for _, c := range allCorners {
		if got, want := p.CountBuckets(c, w, nil), 16; got != want {
			t.Fatalf("%v count = %d, want %d", c, got, want)
		}
	}
	wMiss := geom.Rect{XMin: 4, YMin: 4, XMax: 10, YMax: 10}
	if got := p.CountBuckets(SouthWest, wMiss, nil); got != 0 {
		t.Fatalf("miss count = %d, want 0", got)
	}
}

// TestMuUpperBound verifies the two sides of Lemma 5: µ is an upper
// bound of the exact corner count, and µ <= cap * (exact/1 + 1)-ish;
// we check the exact form µ <= cap * (exactBuckets) where every
// matched bucket except at most... — we check the provable invariant
// exact <= µ.
func TestMuUpperBound(t *testing.T) {
	r := rng.New(4)
	pts := sortedPoints(r, 500, 30)
	p, err := Build(pts, BucketCap(500))
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for trial := 0; trial < 500; trial++ {
		q := geom.Point{X: r.Range(0, 30), Y: r.Range(0, 30)}
		w := geom.Window(q, r.Range(0.1, 10))
		for _, c := range allCorners {
			mu := p.Mu(c, w, &s)
			pred := cornerPredicate(c, w)
			exact := 0
			for _, pt := range pts {
				if pred(pt) {
					exact++
				}
			}
			if exact > mu {
				t.Fatalf("%v exact %d > µ %d", c, exact, mu)
			}
		}
	}
}

func TestBalanceAndNodeCount(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{10, 100, 1000, 5000} {
		pts := sortedPoints(r, n, 1000)
		cap := BucketCap(n)
		p, err := Build(pts, cap)
		if err != nil {
			t.Fatal(err)
		}
		nb := p.NumBuckets()
		// Height bound: median splits halve the multiset, so height
		// <= log2(nb) + 2.
		maxH := int(math.Ceil(math.Log2(float64(nb)))) + 2
		if h := p.Height(); h > maxH {
			t.Errorf("n=%d height %d exceeds bound %d (buckets %d)", n, h, maxH, nb)
		}
		// Both trees have at most one node per distinct key <= nb.
		if nodes := p.NumNodes(); nodes > 2*nb {
			t.Errorf("n=%d node count %d exceeds 2x buckets %d", n, nodes, nb)
		}
	}
}

// TestSamplingUniformOverSlots verifies that accepted samples are
// uniform over the points satisfying the corner constraint: every
// qualifying point occupies exactly one slot, so after rejecting empty
// slots the conditional distribution over qualifying points is uniform.
func TestSamplingUniformOverSlots(t *testing.T) {
	r := rng.New(6)
	pts := sortedPoints(r, 120, 20)
	p, err := Build(pts, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := geom.Rect{XMin: 5, YMin: 5, XMax: 40, YMax: 40} // SW corner query at (5,5)
	pred := cornerPredicate(SouthWest, w)
	qualifying := map[int32]bool{}
	for _, pt := range pts {
		if pred(pt) {
			qualifying[pt.ID] = true
		}
	}
	if len(qualifying) < 10 {
		t.Fatalf("test setup too sparse: %d qualifying", len(qualifying))
	}
	var s Scratch
	counts := map[int32]int{}
	const draws = 300000
	accepted := 0
	for i := 0; i < draws; i++ {
		pt, ok := p.SampleSlot(SouthWest, w, r, &s)
		if !ok {
			continue
		}
		if !pred(pt) {
			// Slot sampling may return a point outside the constraint
			// (bucket summary matched but the point does not);
			// callers reject it. Count as rejection here.
			continue
		}
		counts[pt.ID]++
		accepted++
	}
	if accepted < draws/4 {
		t.Fatalf("acceptance too low: %d/%d", accepted, draws)
	}
	expected := float64(accepted) / float64(len(qualifying))
	chi2 := 0.0
	for id := range qualifying {
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	// dof = len(qualifying)-1; a generous 2x-dof bound catches real
	// skew while tolerating statistical noise.
	if dof := float64(len(qualifying) - 1); chi2 > 2*dof+50 {
		t.Fatalf("sample distribution skewed: chi2 = %g (dof %g)", chi2, dof)
	}
	for id := range counts {
		if !qualifying[id] {
			t.Fatalf("sampled non-qualifying point %d", id)
		}
	}
}

func TestSampleSlotNeverReturnsWrongRegionAfterFilter(t *testing.T) {
	r := rng.New(7)
	pts := sortedPoints(r, 200, 10)
	p, err := Build(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{X: r.Range(0, 10), Y: r.Range(0, 10)}
		w := geom.Window(q, 2)
		for _, c := range allCorners {
			pt, ok := p.SampleSlot(c, w, r, nil)
			if !ok {
				continue
			}
			// The returned point must come from a matched bucket;
			// its bucket summary must satisfy the constraint.
			found := false
			for _, b := range p.Buckets() {
				if pt.ID >= 0 {
					for _, bp := range b.Pts {
						if bp.ID == pt.ID {
							found = true
						}
					}
				}
				if found {
					break
				}
			}
			if !found {
				t.Fatalf("sampled point %v not found in any bucket", pt)
			}
		}
	}
}

func TestQuickCountInvariant(t *testing.T) {
	f := func(seed uint64, qxRaw, qyRaw, lRaw float64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(300)
		pts := sortedPoints(rr, n, 40)
		p, err := Build(pts, BucketCap(n))
		if err != nil {
			return false
		}
		q := geom.Point{
			X: math.Abs(math.Mod(qxRaw, 40)),
			Y: math.Abs(math.Mod(qyRaw, 40)),
		}
		w := geom.Window(q, math.Abs(math.Mod(lRaw, 15))+0.01)
		for _, c := range allCorners {
			if p.CountBuckets(c, w, nil) != bruteBucketCount(p, c, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytesLinear(t *testing.T) {
	r := rng.New(8)
	n := 1 << 12
	pts := sortedPoints(r, n, 100)
	p, err := Build(pts, BucketCap(n))
	if err != nil {
		t.Fatal(err)
	}
	size := p.SizeBytes()
	if size <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
	// Lemma 2: O(N) space. Allow a generous constant: 64 bytes/point.
	if size > 64*n {
		t.Fatalf("SizeBytes = %d exceeds linear bound %d", size, 64*n)
	}
}

func BenchmarkCount(b *testing.B) {
	r := rng.New(9)
	n := 1 << 14
	pts := sortedPoints(r, n, 1000)
	p, _ := Build(pts, BucketCap(n))
	w := geom.Window(geom.Point{X: 500, Y: 500}, 100)
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.CountBuckets(SouthWest, w, &s)
	}
}

func BenchmarkSampleSlot(b *testing.B) {
	r := rng.New(10)
	n := 1 << 14
	pts := sortedPoints(r, n, 1000)
	p, _ := Build(pts, BucketCap(n))
	w := geom.Window(geom.Point{X: 500, Y: 500}, 100)
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.SampleSlot(SouthWest, w, r, &s)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(11)
	n := 1 << 14
	pts := sortedPoints(r, n, 1000)
	cap := BucketCap(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Build(pts, cap)
	}
}

// TestLemma5SharpBound checks the structural fact behind Lemma 5's
// approximation bound: buckets are consecutive x-intervals, so at most
// one matched bucket straddles the x threshold; every other matched
// bucket contains at least one point satisfying the full 2-sided
// constraint. Hence #matchedBuckets <= exact2SidedCount + 1.
func TestLemma5SharpBound(t *testing.T) {
	r := rng.New(20)
	for _, n := range []int{5, 50, 400, 2000} {
		pts := sortedPoints(r, n, 60)
		p, err := Build(pts, BucketCap(n))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			q := geom.Point{X: r.Range(-5, 65), Y: r.Range(-5, 65)}
			w := geom.Window(q, r.Range(0.1, 25))
			for _, c := range allCorners {
				matched := p.CountBuckets(c, w, nil)
				pred := cornerPredicate(c, w)
				exact := 0
				for _, pt := range pts {
					if pred(pt) {
						exact++
					}
				}
				if matched > exact+1 {
					t.Fatalf("n=%d %v: %d matched buckets but only %d matching points (w=%v)",
						n, c, matched, exact, w)
				}
			}
		}
	}
}

// TestMuImpliesNonEmptyUsually: whenever two or more buckets match,
// the corner region is provably non-empty (the Lemma 5 α >= 2 case).
func TestMuImpliesNonEmptyUsually(t *testing.T) {
	r := rng.New(21)
	pts := sortedPoints(r, 1000, 40)
	p, err := Build(pts, BucketCap(1000))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		w := geom.Window(geom.Point{X: r.Range(0, 40), Y: r.Range(0, 40)}, r.Range(0.5, 15))
		for _, c := range allCorners {
			if p.CountBuckets(c, w, nil) >= 2 {
				pred := cornerPredicate(c, w)
				found := false
				for _, pt := range pts {
					if pred(pt) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%v: >=2 matched buckets but empty corner region (w=%v)", c, w)
				}
			}
		}
	}
}

func TestReportBucketsMatchesCount(t *testing.T) {
	r := rng.New(25)
	pts := sortedPoints(r, 700, 40)
	p, err := Build(pts, BucketCap(700))
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		w := geom.Window(geom.Point{X: r.Range(0, 40), Y: r.Range(0, 40)}, r.Range(0.5, 12))
		for _, c := range allCorners {
			want := p.CountBuckets(c, w, &s)
			got := 0
			p.ReportBuckets(c, w, &s, func(Bucket) bool { got++; return true })
			if got != want {
				t.Fatalf("%v: reported %d buckets, count says %d", c, got, want)
			}
		}
	}
}

func TestReportEarlyStops(t *testing.T) {
	r := rng.New(27)
	pts := sortedPoints(r, 300, 10)
	p, err := Build(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := geom.Rect{XMin: 0, YMin: 0, XMax: 20, YMax: 20}
	seen := 0
	p.ReportBuckets(SouthWest, w, nil, func(Bucket) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("bucket early stop saw %d", seen)
	}
}

// quantizedPoints generates n points on a half-unit lattice of
// [0,12)×[0,6), sorted stably by x: many buckets share a MinX or MaxX
// key and tie on MinY or MaxY.
func quantizedPoints(r *rng.RNG, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(r.Intn(24)) / 2, Y: float64(r.Intn(12)) / 2, ID: int32(i)}
	}
	slices.SortStableFunc(pts, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
	return pts
}

// TestSampleSlotGoldenDigest holds seeded SampleSlot draws
// byte-identical across rewrites of the pair's layout. Its pairs have
// capacities 1–6 and 1 to 150 buckets over quantized points, and the
// windows' edges sit on and between the lattice: the equal-key b-lists,
// the piece order of the decomposition and the id order among tied y
// keys all shape the map from variate to slot.
func TestSampleSlotGoldenDigest(t *testing.T) {
	const golden uint64 = 0xa056c1d465d05156
	r := rng.New(38)
	h := fnv.New64a()
	var s Scratch
	var buf [5]byte
	for cap := 1; cap <= 6; cap++ {
		for _, n := range []int{5, 40, 150} {
			p, err := Build(quantizedPoints(r, n), cap)
			if err != nil {
				t.Fatal(err)
			}
			for _, xa := range []float64{-1, 0, 2, 3.5, 5, 7, 9, 11.5} {
				for _, ya := range []float64{-1, 0, 1.5, 3, 5} {
					w := geom.Rect{XMin: xa, YMin: ya, XMax: xa + 3, YMax: ya + 2}
					for _, c := range allCorners {
						for range 8 {
							pt, ok := p.SampleSlot(c, w, r, &s)
							binary.LittleEndian.PutUint32(buf[:4], uint32(pt.ID))
							buf[4] = 0
							if ok {
								buf[4] = 1
							}
							h.Write(buf[:])
						}
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != golden {
		t.Fatalf("SampleSlot digest %#x, golden %#x — seeded slot draws changed", got, golden)
	}
}

// TestOverAnswersAsBuilt: a pair moved over a copy of its points
// counts and draws exactly as the pair built over them, seeded draws
// included, and its buckets window the copy, never the original.
func TestOverAnswersAsBuilt(t *testing.T) {
	r := rng.New(39)
	var s Scratch
	for _, n := range []int{1, 7, 40, 150} {
		pts := quantizedPoints(r, n)
		p, err := Build(pts, 3)
		if err != nil {
			t.Fatal(err)
		}
		cp := slices.Clone(pts)
		q := p.Over(cp)
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		start := 0
		for i, b := range q.Buckets() {
			if len(b.Pts) > 0 && &b.Pts[0] != &cp[start] {
				t.Fatalf("n=%d: bucket %d does not window the copy at %d", n, i, start)
			}
			start += len(b.Pts)
		}
		for _, xa := range []float64{-1, 2, 5, 9} {
			for _, ya := range []float64{-1, 1.5, 3} {
				w := geom.Rect{XMin: xa, YMin: ya, XMax: xa + 3, YMax: ya + 2}
				for _, c := range allCorners {
					if got, want := q.Mu(c, w, &s), p.Mu(c, w, &s); got != want {
						t.Fatalf("n=%d %v %v: Mu %d, built pair %d", n, c, w, got, want)
					}
					r1, r2 := rng.New(uint64(n)), rng.New(uint64(n))
					for range 8 {
						a, aok := q.SampleSlot(c, w, r1, &s)
						b, bok := p.SampleSlot(c, w, r2, &s)
						if a != b || aok != bok {
							t.Fatalf("n=%d %v %v: SampleSlot %+v %v, built pair %+v %v", n, c, w, a, aok, b, bok)
						}
					}
				}
			}
		}
	}
}
