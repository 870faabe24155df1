package alias

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func chi2(counts []int, weights []float64, draws int) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	stat := 0.0
	for i, c := range counts {
		expected := float64(draws) * weights[i] / total
		if expected == 0 {
			if c != 0 {
				return math.Inf(1)
			}
			continue
		}
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat
}

func TestNewErrors(t *testing.T) {
	tests := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"all zero", []float64{0, 0, 0}},
		{"negative", []float64{1, -1, 2}},
		{"nan", []float64{1, math.NaN()}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.weights); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(nil)
}

func TestSingleWeight(t *testing.T) {
	tab := MustNew([]float64{5})
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if got := tab.Sample(r); got != 0 {
			t.Fatalf("Sample = %d, want 0", got)
		}
	}
}

func TestZeroWeightNeverSampled(t *testing.T) {
	tab := MustNew([]float64{1, 0, 1, 0, 3})
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		got := tab.Sample(r)
		if got == 1 || got == 3 {
			t.Fatalf("sampled zero-weight index %d", got)
		}
	}
}

func TestDistributionMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 10, 0.5}
	tab := MustNew(weights)
	r := rng.New(3)
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[tab.Sample(r)]++
	}
	// 5 degrees of freedom; critical value at p=0.001 is 20.52.
	if stat := chi2(counts, weights, draws); stat > 20.52 {
		t.Fatalf("chi2 = %g too high; counts = %v", stat, counts)
	}
}

func TestUniformWeights(t *testing.T) {
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = 1
	}
	tab := MustNew(weights)
	r := rng.New(4)
	const draws = 500000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[tab.Sample(r)]++
	}
	// 99 dof; p=0.001 critical value ~ 148.2.
	if stat := chi2(counts, weights, draws); stat > 148.2 {
		t.Fatalf("chi2 = %g too high", stat)
	}
}

func TestExtremeSkew(t *testing.T) {
	weights := []float64{1e-9, 1e9}
	tab := MustNew(weights)
	r := rng.New(5)
	zero := 0
	for i := 0; i < 100000; i++ {
		if tab.Sample(r) == 0 {
			zero++
		}
	}
	if zero > 5 {
		t.Fatalf("tiny weight sampled too often: %d/100000", zero)
	}
}

func TestTotalAndLen(t *testing.T) {
	tab := MustNew([]float64{2, 3})
	if tab.Total() != 5 {
		t.Errorf("Total = %g, want 5", tab.Total())
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	if tab.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
}

func TestQuickAlwaysInRange(t *testing.T) {
	r := rng.New(6)
	f := func(raw []float64) bool {
		weights := make([]float64, 0, len(raw))
		for _, w := range raw {
			weights = append(weights, math.Abs(math.Mod(w, 1000)))
		}
		tab, err := New(weights)
		if err != nil {
			return true // empty/zero vectors are allowed to fail
		}
		for i := 0; i < 50; i++ {
			v := tab.Sample(r)
			if v < 0 || v >= len(weights) || weights[v] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild1M(b *testing.B) {
	weights := make([]float64, 1<<20)
	r := rng.New(9)
	for i := range weights {
		weights[i] = r.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MustNew(weights)
	}
}

func BenchmarkSample(b *testing.B) {
	weights := make([]float64, 1<<16)
	r := rng.New(10)
	for i := range weights {
		weights[i] = r.Float64() * 100
	}
	tab := MustNew(weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Sample(r)
	}
}
