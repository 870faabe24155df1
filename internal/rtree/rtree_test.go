package rtree

import (
	"testing"
	"testing/quick"

	"math"

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
	w := geom.Rect{XMin: 0, YMin: 0, XMax: 1, YMax: 1}
	if tr.Count(w) != 0 || tr.Height() != 0 || tr.Len() != 0 {
		t.Fatal("empty tree misbehaves")
	}
	if _, _, ok := tr.Sample(w, rng.New(1), &Scratch{}); ok {
		t.Fatal("sample on empty tree should fail")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateVariousSizes(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, fanout, fanout + 1, 257, 4096, 10000} {
		tr := New(randomPoints(r, n, 100))
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
	}
}

func TestHeightLogarithmic(t *testing.T) {
	r := rng.New(2)
	n := 100000
	tr := New(randomPoints(r, n, 10000))
	// STR packs nearly full: height <= ceil(log_fanout n) + 1.
	maxH := int(math.Ceil(math.Log(float64(n))/math.Log(fanout))) + 1
	if tr.Height() > maxH {
		t.Fatalf("height %d exceeds %d", tr.Height(), maxH)
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 20, 500, 3000} {
		pts := randomPoints(r, n, 50)
		tr := New(pts)
		for trial := 0; trial < 200; trial++ {
			w := geom.Window(geom.Point{X: r.Range(-5, 55), Y: r.Range(-5, 55)}, r.Range(0.1, 20))
			if got, want := tr.Count(w), bruteCount(pts, w); got != want {
				t.Fatalf("n=%d Count = %d, want %d", n, got, want)
			}
		}
	}
}

func TestSampleCountAndMembership(t *testing.T) {
	r := rng.New(6)
	pts := randomPoints(r, 2000, 40)
	tr := New(pts)
	var s Scratch
	for trial := 0; trial < 300; trial++ {
		w := geom.Window(geom.Point{X: r.Range(0, 40), Y: r.Range(0, 40)}, r.Range(0.5, 8))
		want := bruteCount(pts, w)
		pt, count, ok := tr.Sample(w, r, &s)
		if want == 0 {
			if ok {
				t.Fatal("sample on empty window succeeded")
			}
			continue
		}
		if !ok || count != want {
			t.Fatalf("Sample count = %d (ok=%v), want %d", count, ok, want)
		}
		if !w.Contains(pt) {
			t.Fatalf("sampled %v outside %v", pt, w)
		}
	}
}

func TestSampleUniform(t *testing.T) {
	r := rng.New(7)
	pts := randomPoints(r, 400, 10)
	tr := New(pts)
	w := geom.Rect{XMin: 3, YMin: 3, XMax: 7, YMax: 7}
	inWindow := map[int32]bool{}
	for _, p := range pts {
		if w.Contains(p) {
			inWindow[p.ID] = true
		}
	}
	if len(inWindow) < 15 {
		t.Fatalf("setup too sparse: %d", len(inWindow))
	}
	var s Scratch
	counts := map[int32]int{}
	const draws = 150000
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
		t.Fatalf("distribution skewed: chi2 = %g", chi2)
	}
}

func TestQuickCount(t *testing.T) {
	f := func(seed uint64, qx, qy, l float64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(500)
		pts := randomPoints(rr, n, 40)
		tr := New(pts)
		q := geom.Point{X: math.Abs(math.Mod(qx, 40)), Y: math.Abs(math.Mod(qy, 40))}
		w := geom.Window(q, math.Abs(math.Mod(l, 15))+0.01)
		return tr.Count(w) == bruteCount(pts, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{X: 1, Y: 2, ID: int32(i)}
	}
	tr := New(pts)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	w := geom.Rect{XMin: 0, YMin: 0, XMax: 3, YMax: 3}
	if got := tr.Count(w); got != 200 {
		t.Fatalf("Count = %d, want 200", got)
	}
}

func TestSizeBytesLinear(t *testing.T) {
	r := rng.New(8)
	tr := New(randomPoints(r, 20000, 100))
	if tr.SizeBytes() > 64*tr.Len() {
		t.Fatalf("SizeBytes %d not linear", tr.SizeBytes())
	}
}

func BenchmarkBuild100k(b *testing.B) {
	r := rng.New(9)
	pts := randomPoints(r, 100000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(pts)
	}
}

func BenchmarkCount100k(b *testing.B) {
	r := rng.New(10)
	tr := New(randomPoints(r, 100000, 10000))
	w := geom.Window(geom.Point{X: 5000, Y: 5000}, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Count(w)
	}
}

func TestAdversarialInputs(t *testing.T) {
	const n = 4000
	for _, name := range []string{"ascending", "vertical-line"} {
		t.Run(name, func(t *testing.T) {
			pts := make([]geom.Point, n)
			for i := range pts {
				if name == "ascending" {
					pts[i] = geom.Point{X: float64(i), Y: float64(i), ID: int32(i)}
				} else {
					pts[i] = geom.Point{X: 7, Y: float64(i), ID: int32(i)}
				}
			}
			tr := New(pts)
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			w := geom.Rect{XMin: 0, YMin: 100, XMax: 3000, YMax: 900}
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
