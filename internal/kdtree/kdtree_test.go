package kdtree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func randomPoints(r *rng.RNG, n int, extent float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, extent), Y: r.Range(0, extent), ID: int32(i)}
	}
	return pts
}

func bruteCount(pts []geom.Point, w geom.Rect) int {
	c := 0
	for _, p := range pts {
		if w.Contains(p) {
			c++
		}
	}
	return c
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	w := geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	if tr.Count(w) != 0 {
		t.Error("empty tree count should be 0")
	}
	if _, _, ok := tr.Sample(w, rng.New(1), &Scratch{}); ok {
		t.Error("empty tree sample should fail")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSinglePoint(t *testing.T) {
	tr := New([]geom.Point{{X: 5, Y: 5, ID: 42}})
	if got := tr.Count(geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
	if got := tr.Count(geom.Rect{XMin: 6, YMin: 0, XMax: 10, YMax: 10}); got != 0 {
		t.Errorf("miss Count = %d, want 0", got)
	}
	pt, count, ok := tr.Sample(geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}, rng.New(1), &Scratch{})
	if !ok || count != 1 || pt.ID != 42 {
		t.Errorf("Sample = (%v, %d, %v)", pt, count, ok)
	}
}

func TestValidateRandom(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 7, 8, 9, 100, 1023, 5000} {
		tr := New(randomPoints(r, n, 100))
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestValidateDuplicates(t *testing.T) {
	pts := make([]geom.Point, 1000)
	r := rng.New(2)
	for i := range pts {
		// Heavy x-duplication exercises the three-way partition.
		pts[i] = geom.Point{X: float64(i % 3), Y: r.Range(0, 10), ID: int32(i)}
	}
	tr := New(pts)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 10, 100, 2000} {
		pts := randomPoints(r, n, 50)
		tr := New(pts)
		for trial := 0; trial < 200; trial++ {
			q := geom.Point{X: r.Range(-5, 55), Y: r.Range(-5, 55)}
			w := geom.Window(q, r.Range(0.1, 25))
			if got, want := tr.Count(w), bruteCount(pts, w); got != want {
				t.Fatalf("n=%d Count(%v) = %d, want %d", n, w, got, want)
			}
		}
	}
}

func TestSampleCountAgreesWithCount(t *testing.T) {
	r := rng.New(6)
	pts := randomPoints(r, 800, 40)
	tr := New(pts)
	var s Scratch
	for trial := 0; trial < 100; trial++ {
		w := geom.Window(geom.Point{X: r.Range(0, 40), Y: r.Range(0, 40)}, r.Range(0.5, 10))
		want := tr.Count(w)
		_, count, ok := tr.Sample(w, r, &s)
		if want == 0 {
			if ok {
				t.Fatalf("Sample succeeded on empty window %v", w)
			}
			continue
		}
		if !ok || count != want {
			t.Fatalf("Sample count = %d (ok=%v), want %d", count, ok, want)
		}
	}
}

func TestSampleAlwaysInWindow(t *testing.T) {
	r := rng.New(7)
	pts := randomPoints(r, 500, 20)
	tr := New(pts)
	var s Scratch
	for trial := 0; trial < 2000; trial++ {
		w := geom.Window(geom.Point{X: r.Range(0, 20), Y: r.Range(0, 20)}, 3)
		pt, _, ok := tr.Sample(w, r, &s)
		if ok && !w.Contains(pt) {
			t.Fatalf("sampled point %v outside window %v", pt, w)
		}
	}
}

func TestSampleUniform(t *testing.T) {
	r := rng.New(8)
	pts := randomPoints(r, 300, 10)
	tr := New(pts)
	w := geom.Rect{XMin: 2, YMin: 2, XMax: 8, YMax: 8}
	inWindow := map[int32]bool{}
	for _, p := range pts {
		if w.Contains(p) {
			inWindow[p.ID] = true
		}
	}
	if len(inWindow) < 20 {
		t.Fatalf("setup: only %d in-window points", len(inWindow))
	}
	var s Scratch
	counts := map[int32]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		pt, _, ok := tr.Sample(w, r, &s)
		if !ok {
			t.Fatal("sample failed")
		}
		counts[pt.ID]++
	}
	expected := float64(draws) / float64(len(inWindow))
	chi2 := 0.0
	for id := range inWindow {
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	if dof := float64(len(inWindow) - 1); chi2 > 2*dof+50 {
		t.Fatalf("sample distribution skewed: chi2 = %g (dof %g)", chi2, dof)
	}
}

func TestQuickCountMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, qx, qy, l float64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(400)
		pts := randomPoints(rr, n, 40)
		tr := New(pts)
		q := geom.Point{
			X: math.Abs(math.Mod(qx, 40)),
			Y: math.Abs(math.Mod(qy, 40)),
		}
		w := geom.Window(q, math.Abs(math.Mod(l, 15))+0.01)
		return tr.Count(w) == bruteCount(pts, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytes(t *testing.T) {
	r := rng.New(9)
	small := New(randomPoints(r, 100, 10))
	big := New(randomPoints(r, 10000, 10))
	if small.SizeBytes() <= 0 || big.SizeBytes() <= small.SizeBytes() {
		t.Fatal("SizeBytes not monotone")
	}
	// O(m) space: generous 80 bytes/point bound.
	if big.SizeBytes() > 80*big.Len() {
		t.Fatalf("SizeBytes %d not linear for %d points", big.SizeBytes(), big.Len())
	}
}

func BenchmarkBuild100k(b *testing.B) {
	r := rng.New(10)
	pts := randomPoints(r, 100000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(pts)
	}
}

func BenchmarkCount100k(b *testing.B) {
	r := rng.New(11)
	tr := New(randomPoints(r, 100000, 10000))
	w := geom.Window(geom.Point{X: 5000, Y: 5000}, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Count(w)
	}
}

func BenchmarkSample100k(b *testing.B) {
	r := rng.New(12)
	tr := New(randomPoints(r, 100000, 10000))
	w := geom.Window(geom.Point{X: 5000, Y: 5000}, 100)
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = tr.Sample(w, r, &s)
	}
}

func TestAdversarialInputs(t *testing.T) {
	// Pre-sorted, reverse-sorted, collinear, and single-coordinate
	// inputs stress the quickselect pivoting and bbox degeneracy.
	const n = 5000
	makeInput := func(name string) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			switch name {
			case "ascending":
				pts[i] = geom.Point{X: float64(i), Y: float64(i), ID: int32(i)}
			case "descending":
				pts[i] = geom.Point{X: float64(n - i), Y: float64(n - i), ID: int32(i)}
			case "vertical-line":
				pts[i] = geom.Point{X: 5, Y: float64(i), ID: int32(i)}
			case "horizontal-line":
				pts[i] = geom.Point{X: float64(i), Y: 5, ID: int32(i)}
			}
		}
		return pts
	}
	for _, name := range []string{"ascending", "descending", "vertical-line", "horizontal-line"} {
		t.Run(name, func(t *testing.T) {
			pts := makeInput(name)
			tr := New(pts)
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			w := geom.Rect{XMin: 0, YMin: 100, XMax: 4000, YMax: 300}
			if got, want := tr.Count(w), bruteCount(pts, w); got != want {
				t.Fatalf("Count = %d, want %d", got, want)
			}
		})
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	r := rng.New(20)
	pts := randomPoints(r, 500, 100)
	before := append([]geom.Point(nil), pts...)
	_ = New(pts)
	for i := range pts {
		if pts[i] != before[i] {
			t.Fatal("New mutated its input slice")
		}
	}
}
