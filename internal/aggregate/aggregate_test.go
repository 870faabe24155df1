package aggregate

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rng"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if mean, ci := m.Estimate(); mean != 0 || ci != 0 {
		t.Fatal("empty estimator should be zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	mean, ci := m.Estimate()
	if mean != 5 {
		t.Fatalf("mean = %g, want 5", mean)
	}
	if ci <= 0 {
		t.Fatalf("ci = %g, want positive", ci)
	}
	if m.Count() != 8 {
		t.Fatalf("Count = %d", m.Count())
	}
}

func TestMeanConvergesAndCovers(t *testing.T) {
	r := rng.New(1)
	var m Mean
	const trueMean = 10.0
	for i := 0; i < 100000; i++ {
		m.Add(trueMean + r.NormFloat64()*3)
	}
	mean, ci := m.Estimate()
	if math.Abs(mean-trueMean) > 0.1 {
		t.Fatalf("mean = %g", mean)
	}
	if math.Abs(mean-trueMean) > ci*3 {
		t.Fatalf("true mean far outside CI: %g ± %g", mean, ci)
	}
	if ci > 0.1 {
		t.Fatalf("ci = %g too wide at n=100k", ci)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if f, ci := p.Estimate(); f != 0 || ci != 0 {
		t.Fatal("empty proportion should be zero")
	}
	r := rng.New(2)
	for i := 0; i < 50000; i++ {
		p.Add(r.Float64() < 0.3)
	}
	f, ci := p.Estimate()
	if math.Abs(f-0.3) > 0.01 {
		t.Fatalf("frac = %g", f)
	}
	if math.Abs(f-0.3) > 3*ci {
		t.Fatalf("true fraction outside 3x CI")
	}
}

func TestSum(t *testing.T) {
	s := Sum{JoinSize: 1000}
	for i := 0; i < 100; i++ {
		s.Add(2)
	}
	sum, _ := s.Estimate()
	if sum != 2000 {
		t.Fatalf("sum = %g, want 2000", sum)
	}
}

func TestJoinSizeEstimateExactForKDS(t *testing.T) {
	pts := dataset.Foursquare(4000, 3)
	R, S := dataset.SplitRS(pts, 0.5, 4)
	const l = 120
	s, err := core.NewKDS(R, S, core.Config{HalfExtent: l, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(2000); err != nil {
		t.Fatal(err)
	}
	exact := float64(join.Size(R, S, l))
	got := JoinSizeEstimate(s.Stats())
	if got != exact {
		t.Fatalf("KDS estimate %g != exact %g (acceptance is 1, MuSum = |J|)", got, exact)
	}
	if JoinSizeEstimate(core.Stats{}) != 0 {
		t.Fatal("zero stats should estimate 0")
	}
}

func TestJoinSizeEstimateBBSTUnbiased(t *testing.T) {
	pts := dataset.NYC(6000, 6)
	R, S := dataset.SplitRS(pts, 0.5, 7)
	const l = 150
	s, err := core.NewBBST(R, S, core.Config{HalfExtent: l, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(30000); err != nil {
		t.Fatal(err)
	}
	exact := float64(join.Size(R, S, l))
	got := JoinSizeEstimate(s.Stats())
	if relErr := math.Abs(got-exact) / exact; relErr > 0.05 {
		t.Fatalf("estimate %g vs exact %g: rel err %g", got, exact, relErr)
	}
}

func TestHistogramErrors(t *testing.T) {
	dom := geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	if _, err := NewHistogram(dom, 0, 5); err == nil {
		t.Fatal("zero width should fail")
	}
	if _, err := NewHistogram(geom.Rect{}, 5, 5); err == nil {
		t.Fatal("degenerate domain should fail")
	}
	h1, _ := NewHistogram(dom, 4, 4)
	h2, _ := NewHistogram(dom, 8, 8)
	if _, err := h1.Correlation(h2); err == nil {
		t.Fatal("shape mismatch should fail")
	}
	if _, err := h1.Correlation(h1); err == nil {
		t.Fatal("constant histogram correlation should fail")
	}
}

func TestHistogramAccumulatesAndClamps(t *testing.T) {
	dom := geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	h, err := NewHistogram(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.AddPoint(1, 1)   // bin (0,0)
	h.AddPoint(9, 9)   // bin (1,1)
	h.AddPoint(-5, -5) // clamped to (0,0)
	h.AddPoint(50, 50) // clamped to (1,1)
	if h.At(0, 0) != 2 || h.At(1, 1) != 2 || h.Total() != 4 {
		t.Fatalf("bins: %g %g total %g", h.At(0, 0), h.At(1, 1), h.Total())
	}
	h.AddPair(geom.Pair{R: geom.Point{X: 2, Y: 2}, S: geom.Point{X: 4, Y: 4}}) // midpoint (3,3) -> (0,0)
	if h.At(0, 0) != 3 {
		t.Fatalf("AddPair midpoint wrong: %g", h.At(0, 0))
	}
	if h.Render() == "" {
		t.Fatal("render should not be empty")
	}
}

func TestHistogramCorrelation(t *testing.T) {
	dom := geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	r := rng.New(9)
	a, _ := NewHistogram(dom, 8, 8)
	b, _ := NewHistogram(dom, 8, 8)
	c, _ := NewHistogram(dom, 8, 8)
	for i := 0; i < 20000; i++ {
		// a and b sample the same clustered distribution; c is uniform.
		x, y := 2+r.NormFloat64(), 2+r.NormFloat64()
		a.AddPoint(x, y)
		x, y = 2+r.NormFloat64(), 2+r.NormFloat64()
		b.AddPoint(x, y)
		c.AddPoint(r.Range(0, 10), r.Range(0, 10))
	}
	same, err := a.Correlation(b)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := a.Correlation(c)
	if err != nil {
		t.Fatal(err)
	}
	if same < 0.95 {
		t.Fatalf("same-distribution correlation %g too low", same)
	}
	if diff > same-0.1 {
		t.Fatalf("uniform correlation %g not clearly below %g", diff, same)
	}
}

// TestEndToEndAggregation mirrors the aggregation example as a test:
// sampled aggregates must match exact join aggregates.
func TestEndToEndAggregation(t *testing.T) {
	pts := dataset.IMIS(8000, 10)
	R, S := dataset.SplitRS(pts, 0.5, 11)
	const l = 100
	var exactMean Mean
	join.PlaneSweep(R, S, l, func(r, s geom.Point) bool {
		exactMean.Add(math.Hypot(r.X-s.X, r.Y-s.Y))
		return true
	})
	if exactMean.Count() == 0 {
		t.Skip("empty join in setup")
	}
	smp, err := core.NewBBST(R, S, core.Config{HalfExtent: l, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := smp.Sample(30000)
	if err != nil {
		t.Fatal(err)
	}
	var est Mean
	for _, p := range pairs {
		est.Add(math.Hypot(p.R.X-p.S.X, p.R.Y-p.S.Y))
	}
	wantMean, _ := exactMean.Estimate()
	gotMean, ci := est.Estimate()
	if math.Abs(gotMean-wantMean) > 5*ci+0.5 {
		t.Fatalf("sampled mean %g vs exact %g (ci %g)", gotMean, wantMean, ci)
	}
}
