package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

// TestReseedMatchesNew: a reseeded generator must continue exactly as
// a freshly constructed one — the clone pool relies on this to hand
// recycled samplers fresh streams without allocating.
func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		r.Uint64() // advance to an arbitrary interior state
	}
	r.Reseed(42)
	fresh := New(42)
	for i := 0; i < 1000; i++ {
		if r.Uint64() != fresh.Uint64() {
			t.Fatalf("reseeded stream diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds collide too often: %d/100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint32() == c2.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide too often: %d/100", same)
	}
}

func TestUint32nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint32{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Uint32n(n)
			if v >= n {
				t.Fatalf("Uint32n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint32nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint32n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square test over 10 buckets at ~5 sigma tolerance.
	r := New(99)
	const n = 10
	const draws = 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; critical value at p=0.001 is 27.88.
	if chi2 > 27.88 {
		t.Fatalf("Intn distribution skewed: chi2 = %g, counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 1000; i++ {
		v := r.Range(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Range(10,20) = %g out of bounds", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const draws = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(11)
	const n = 5
	const draws = 50000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("Perm first element %d count %d deviates from %g", i, c, expected)
		}
	}
}

func TestShuffleSwapsAllPositions(t *testing.T) {
	r := New(12)
	vals := []string{"a", "b", "c", "d"}
	orig := append([]string(nil), vals...)
	moved := false
	for trial := 0; trial < 20 && !moved; trial++ {
		r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for i := range vals {
			if vals[i] != orig[i] {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("Shuffle never changed the slice in 20 trials")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if got := float64(hits) / draws; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %g", got)
	}
}

func TestIntnLargeRange(t *testing.T) {
	r := New(14)
	n := math.MaxUint32 + int(1e6) // exercise the 64-bit rejection path
	for i := 0; i < 100; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
