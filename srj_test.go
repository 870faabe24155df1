package srj

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestNewSamplerAllAlgorithms(t *testing.T) {
	R := MustGenerate("uniform", 500, 1)
	S := MustGenerate("uniform", 500, 2)
	for _, algo := range Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			s, err := NewSampler(R, S, 200, &Options{Algorithm: algo, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := s.Sample(100)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != 100 {
				t.Fatalf("got %d pairs", len(pairs))
			}
			for _, p := range pairs {
				if !Window(p.R, 200).Contains(p.S) {
					t.Fatalf("invalid pair %v", p)
				}
			}
		})
	}
}

func TestNewSamplerDefaultsToBBST(t *testing.T) {
	s, err := NewSampler(nil, nil, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "BBST" {
		t.Fatalf("default algorithm = %s", s.Name())
	}
}

func TestNewSamplerUnknownAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{"magic", "rts"} {
		if _, err := NewSampler(nil, nil, 10, &Options{Algorithm: a}); err == nil || !strings.Contains(err.Error(), "srj: unknown algorithm") {
			t.Fatalf("algorithm %q: err = %v, want srj: unknown algorithm", a, err)
		}
	}
}

func TestNewSamplerInvalidExtent(t *testing.T) {
	if _, err := NewSampler(nil, nil, 0, nil); err == nil {
		t.Fatal("zero extent should fail")
	}
	if _, err := NewSampler(nil, nil, -5, nil); err == nil {
		t.Fatal("negative extent should fail")
	}
}

func TestOneShotSample(t *testing.T) {
	R := MustGenerate("foursquare", 1000, 4)
	S := MustGenerate("foursquare", 1000, 5)
	pairs, err := Sample(R, S, 150, 50, &Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 50 {
		t.Fatalf("got %d pairs", len(pairs))
	}
}

func TestJoinSizeAndJoinAgree(t *testing.T) {
	R := MustGenerate("uniform", 300, 7)
	S := MustGenerate("uniform", 300, 8)
	const l = 300
	want := JoinSize(R, S, l)
	var got uint64
	Join(R, S, l, func(r, s Point) bool {
		got++
		return true
	})
	if got != want {
		t.Fatalf("Join emitted %d pairs, JoinSize says %d", got, want)
	}
}

func TestEmptyJoinError(t *testing.T) {
	R := []Point{{X: 0, Y: 0, ID: 1}}
	S := []Point{{X: 9999, Y: 9999, ID: 1}}
	_, err := Sample(R, S, 1, 10, nil)
	if !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("err = %v, want ErrEmptyJoin", err)
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate should panic")
		}
	}()
	MustGenerate("nope", 10, 1)
}

func TestDatasetNamesAllGenerate(t *testing.T) {
	for _, name := range DatasetNames() {
		pts, err := Generate(name, 100, 1)
		if err != nil || len(pts) != 100 {
			t.Fatalf("%s: %v, %d points", name, err, len(pts))
		}
	}
}

func TestSplitRSRoundTrip(t *testing.T) {
	pts := MustGenerate("nyc", 2000, 9)
	R, S := SplitRS(pts, 0.5, 10)
	if len(R)+len(S) != len(pts) {
		t.Fatal("split lost points")
	}
}

func TestSaveLoadPoints(t *testing.T) {
	dir := t.TempDir()
	pts := MustGenerate("imis", 300, 11)
	path := dir + "/pts.bin"
	if err := SavePoints(path, pts); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("got %d points", len(got))
	}
}

func TestStatsExposed(t *testing.T) {
	R := MustGenerate("uniform", 500, 12)
	S := MustGenerate("uniform", 500, 13)
	s, err := NewSampler(R, S, 100, &Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(200); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Samples != 200 || st.Total() <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWithoutReplacementOption(t *testing.T) {
	R := MustGenerate("uniform", 100, 15)
	S := MustGenerate("uniform", 100, 16)
	const l = 500
	s, err := NewSampler(R, S, l, &Options{Seed: 17, WithoutReplacement: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := s.Sample(500)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int32]bool{}
	for _, p := range pairs {
		k := [2]int32{p.R.ID, p.S.ID}
		if seen[k] {
			t.Fatal("duplicate pair despite WithoutReplacement")
		}
		seen[k] = true
	}
}

func TestValidatePoints(t *testing.T) {
	good := MustGenerate("uniform", 100, 20)
	if i, err := ValidatePoints(good); err != nil || i != -1 {
		t.Fatalf("good points rejected: %d, %v", i, err)
	}
	bad := append([]Point(nil), good...)
	bad[42].X = math.NaN()
	if i, err := ValidatePoints(bad); err == nil || i != 42 {
		t.Fatalf("NaN not caught: %d, %v", i, err)
	}
	bad[42].X = 0
	bad[7].Y = math.Inf(1)
	if i, err := ValidatePoints(bad); err == nil || i != 7 {
		t.Fatalf("Inf not caught: %d, %v", i, err)
	}
}

// TestValidatePointsExtremes is the regression test for the old
// `x < -1e308 || x > 1e308` guard, which falsely rejected legal
// finite coordinates in (1e308, math.MaxFloat64].
func TestValidatePointsExtremes(t *testing.T) {
	finite := []Point{
		{ID: 1, X: math.MaxFloat64, Y: -math.MaxFloat64},
		{ID: 2, X: 1.5e308, Y: -1.5e308},
	}
	if i, err := ValidatePoints(finite); err != nil || i != -1 {
		t.Fatalf("finite extremes rejected: %d, %v", i, err)
	}
	for name, bad := range map[string][]Point{
		"+Inf X": {{X: math.Inf(1)}},
		"-Inf Y": {{Y: math.Inf(-1)}},
		"NaN X":  {{X: math.NaN()}},
		"NaN Y":  {{Y: math.NaN()}},
	} {
		if i, err := ValidatePoints(bad); err == nil || i != 0 {
			t.Errorf("%s not caught: %d, %v", name, i, err)
		}
	}
}

// TestNewSamplerRejectsInvalidPoints: construction must validate both
// inputs before building any index, for every algorithm.
func TestNewSamplerRejectsInvalidPoints(t *testing.T) {
	good := MustGenerate("uniform", 50, 1)
	badR := append([]Point(nil), good...)
	badR[13].X = math.NaN()
	badS := append([]Point(nil), good...)
	badS[5].Y = math.Inf(-1)
	for _, algo := range Algorithms() {
		opts := &Options{Algorithm: algo}
		if _, err := NewSampler(badR, good, 10, opts); err == nil {
			t.Errorf("%s: NaN in R accepted", algo)
		}
		if _, err := NewSampler(good, badS, 10, opts); err == nil {
			t.Errorf("%s: Inf in S accepted", algo)
		}
		if _, err := NewSampler(good, good, 10, opts); err != nil {
			t.Errorf("%s: valid input rejected: %v", algo, err)
		}
	}
	if _, err := NewEngine(badR, good, 10, nil); err == nil {
		t.Error("NewEngine: NaN in R accepted")
	}
	if _, err := NewEngine(good, badS, 10, nil); err == nil {
		t.Error("NewEngine: Inf in S accepted")
	}
}

func TestSampleParallel(t *testing.T) {
	R := MustGenerate("nyc", 5000, 21)
	S := MustGenerate("nyc", 5000, 22)
	const l = 150
	pairs, err := SampleParallel(R, S, l, 10000, 8, &Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10000 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if !Window(p.R, l).Contains(p.S) {
			t.Fatalf("invalid pair %v", p)
		}
	}
	if _, err := SampleParallel(R, S, l, 10, 2, &Options{Algorithm: KDS}); err != nil {
		t.Fatalf("KDS parallel failed: %v", err)
	}
	if _, err := SampleParallel(R, S, l, 10, 2, &Options{WithoutReplacement: true}); err == nil {
		t.Fatal("without-replacement parallel should fail")
	}
}

func TestEstimateJoinSize(t *testing.T) {
	R := MustGenerate("foursquare", 3000, 30)
	S := MustGenerate("foursquare", 3000, 31)
	const l = 150
	exact := float64(JoinSize(R, S, l))
	if exact == 0 {
		t.Skip("empty join in setup")
	}
	// KDS counts exactly, so the estimate is exact.
	s, err := NewSampler(R, S, l, &Options{Algorithm: KDS, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(1000); err != nil {
		t.Fatal(err)
	}
	if got := EstimateJoinSize(s); got != exact {
		t.Fatalf("KDS estimate %g != exact %g", got, exact)
	}
	// BBST estimates within a few percent at this sample count.
	b, err := NewSampler(R, S, l, &Options{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Sample(30000); err != nil {
		t.Fatal(err)
	}
	if got := EstimateJoinSize(b); math.Abs(got-exact)/exact > 0.1 {
		t.Fatalf("BBST estimate %g vs exact %g", got, exact)
	}
}

func TestBucketCapOption(t *testing.T) {
	R := MustGenerate("uniform", 2000, 34)
	S := MustGenerate("uniform", 2000, 35)
	const l = 200
	for _, cap := range []int{1, 4, 64} {
		s, err := NewSampler(R, S, l, &Options{Seed: 36, BucketCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := s.Sample(500)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if !Window(p.R, l).Contains(p.S) {
				t.Fatalf("cap %d: invalid pair %v", cap, p)
			}
		}
	}
	if _, err := NewSampler(R, S, l, &Options{BucketCap: -1}); err == nil {
		t.Fatal("negative BucketCap should fail")
	}
}
