package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/rng"
)

func randomPoints(r *rng.RNG, n int, extent float64, base int32) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, extent), Y: r.Range(0, extent), ID: base + int32(i)}
	}
	return pts
}

// clustered generates a skewed point set (Gaussian blobs) to stress
// non-uniform densities.
func clustered(r *rng.RNG, n int, extent float64, base int32) []geom.Point {
	centers := make([]geom.Point, 5)
	for i := range centers {
		centers[i] = geom.Point{X: r.Range(0, extent), Y: r.Range(0, extent)}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[r.Intn(len(centers))]
		pts[i] = geom.Point{
			X:  math.Mod(math.Abs(c.X+r.NormFloat64()*extent/20), extent),
			Y:  math.Mod(math.Abs(c.Y+r.NormFloat64()*extent/20), extent),
			ID: base + int32(i),
		}
	}
	return pts
}

type factory struct {
	name string
	make func(R, S []geom.Point, cfg Config) (Sampler, error)
}

func allFactories() []factory {
	return []factory{
		{"KDS", func(R, S []geom.Point, cfg Config) (Sampler, error) { return NewKDS(R, S, cfg) }},
		{"KDS-rejection", func(R, S []geom.Point, cfg Config) (Sampler, error) { return NewKDSRejection(R, S, cfg) }},
		{"BBST", func(R, S []geom.Point, cfg Config) (Sampler, error) { return NewBBST(R, S, cfg) }},
		{"GridKD", func(R, S []geom.Point, cfg Config) (Sampler, error) { return NewGridKD(R, S, cfg) }},
		{"JoinSample", func(R, S []geom.Point, cfg Config) (Sampler, error) { return NewJoinSample(R, S, cfg) }},
	}
}

// drawFactories adds the mutable sampler to allFactories for the
// distribution tests.
func drawFactories() []factory {
	return append(allFactories(), factory{"Mutable", func(R, S []geom.Point, cfg Config) (Sampler, error) {
		return churnedMutable(NewMutable, R, S, cfg)
	}})
}

// scanSetting is one scan threshold T = c·⌈log₂ m⌉ the BBST and the
// mutable sampler are tested at: c returns its c for a build over S at
// half-extent l.
type scanSetting struct {
	name string
	c    func(S []geom.Point, l float64) (float64, error)
}

// bbst creates a BBST sampler at the setting's T.
func (set scanSetting) bbst(R, S []geom.Point, cfg Config) (*BBSTSampler, error) {
	c, err := set.c(S, cfg.HalfExtent)
	if err != nil {
		return nil, err
	}
	s, err := NewBBST(R, S, cfg)
	if err == nil {
		s.scanC = c
	}
	return s, err
}

// mutable builds a mutable index at the setting's T.
func (set scanSetting) mutable(R, S []geom.Point, cfg Config) (*Mutable, error) {
	c, err := set.c(S, cfg.HalfExtent)
	if err != nil {
		return nil, err
	}
	return newMutable(R, S, cfg, c)
}

// scanSettings are the scan thresholds T the BBST and the mutable
// sampler are also tested at: the default, scanC = 0 (every cell a
// BBST, the paper's pure form) and gridFactories' hybrid T (the
// smallest cells scanned, the largest with a pair).
var scanSettings = []scanSetting{
	{"default", func([]geom.Point, float64) (float64, error) { return defaultScanC, nil }},
	{"pure", func([]geom.Point, float64) (float64, error) { return 0, nil }},
	{"hybrid", hybridScanC},
}

// scanFactories are the BBST and mutable samplers at the non-default
// scanSettings, for the pair-level distribution tests. Each fails to
// build unless its fixture leaves it at least one BBST cell, so the
// Lemma 5 bound and SampleSlot stay under test whatever T is.
func scanFactories() []factory {
	var fs []factory
	for _, set := range scanSettings[1:] {
		fs = append(fs,
			factory{"BBST-" + set.name, func(R, S []geom.Point, cfg Config) (Sampler, error) {
				s, err := set.bbst(R, S, cfg)
				if err != nil {
					return nil, err
				}
				if err := s.Count(); err != nil {
					return nil, err
				}
				return s, needBBSTCells(frozenBBSTCells(s))
			}},
			factory{"Mutable-" + set.name, func(R, S []geom.Point, cfg Config) (Sampler, error) {
				m, err := churnedMutable(set.mutable, R, S, cfg)
				if err != nil {
					return nil, err
				}
				return m, needBBSTCells(mutableBBSTCells(m.Index()))
			}},
		)
	}
	return fs
}

// frozenBBSTCells counts a built sampler's S cells with a BBST pair.
func frozenBBSTCells(s *BBSTSampler) int {
	n := 0
	for _, c := range s.corners {
		if _, ok := c.(bbstCorner); ok {
			n++
		}
	}
	return n
}

// mutableBBSTCells counts an index version's S cells with a BBST pair.
func mutableBBSTCells(ix *MutableIndex) int {
	n := 0
	ix.scells.Range(func(_ grid.Key, c dirCell) bool {
		if _, ok := c.corner.(bbstCorner); ok {
			n++
		}
		return true
	})
	return n
}

func needBBSTCells(n int) error {
	if n == 0 {
		return errors.New("test setup: no S cell has a BBST pair")
	}
	return nil
}

// churnedMutable builds a mutable index with mk, then applies a small
// churn script that exercises slot reuse, appends, the free list and
// recounts but ends with the live sets equal to R and S, so the join
// under test is unchanged.
func churnedMutable(mk func(R, S []geom.Point, cfg Config) (*Mutable, error), R, S []geom.Point, cfg Config) (*Mutable, error) {
	m, err := mk(R, S, cfg)
	if err != nil {
		return nil, err
	}
	const extra = 1 << 30 // IDs of the transient points
	// A third of R, deleted last-first so that the free list hands
	// each re-inserted point its own slot back.
	var ids []int32
	for i := len(R)/3 - 1; i >= 0; i-- {
		ids = append(ids, R[i].ID)
	}
	script := []MutOps{
		// Delete and re-insert a third of R in one batch, plus
		// transient points.
		{DelR: ids, InsR: append(append([]geom.Point(nil), R[:len(R)/3]...), geom.Point{X: R[0].X, Y: R[0].Y, ID: extra})},
		{DelS: []int32{S[0].ID, S[len(S)-1].ID}, InsS: []geom.Point{{X: S[1].X, Y: S[1].Y, ID: extra}}},
		{InsS: []geom.Point{S[0], S[len(S)-1]}, DelS: []int32{extra}, DelR: []int32{extra}},
	}
	for _, ops := range script {
		if m, err = m.Apply(ops); err != nil {
			return nil, err
		}
	}
	return m, m.Index().CheckInvariants()
}

func pairID(p geom.Pair) string { return fmt.Sprintf("%d|%d", p.R.ID, p.S.ID) }

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{HalfExtent: 0},
		{HalfExtent: -1},
		{HalfExtent: math.NaN()},
		{HalfExtent: math.Inf(1)},
		{HalfExtent: 1, MaxRejects: -3},
	}
	for _, cfg := range bad {
		for _, f := range allFactories() {
			if _, err := f.make(nil, nil, cfg); err == nil {
				t.Errorf("%s accepted invalid config %+v", f.name, cfg)
			}
		}
	}
}

func TestSamplesSatisfyPredicate(t *testing.T) {
	r := rng.New(1)
	R := randomPoints(r, 200, 50, 0)
	S := randomPoints(r, 250, 50, 10000)
	const l = 4.0
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: l, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := s.Sample(2000)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != 2000 {
				t.Fatalf("got %d samples", len(pairs))
			}
			for _, p := range pairs {
				if !geom.InWindow(p.R, p.S, l) {
					t.Fatalf("invalid pair %v", p)
				}
				if p.R.ID >= 10000 || p.S.ID < 10000 {
					t.Fatalf("pair sides swapped: %v", p)
				}
			}
			st := s.Stats()
			if st.Samples != 2000 {
				t.Errorf("Stats.Samples = %d", st.Samples)
			}
			if st.Iterations < st.Samples {
				t.Errorf("Iterations %d < Samples %d", st.Iterations, st.Samples)
			}
			if s.SizeBytes() <= 0 {
				t.Errorf("SizeBytes = %d", s.SizeBytes())
			}
		})
	}
}

// TestUniformity is the correctness core: enumerate J exactly on a
// small instance and chi-square test each sampler's empirical pair
// distribution against uniform.
func TestUniformity(t *testing.T) {
	r := rng.New(2)
	R := randomPoints(r, 25, 12, 0)
	S := randomPoints(r, 25, 12, 10000)
	const l = 3.0
	joined := join.Materialize(R, S, l)
	if len(joined) < 20 || len(joined) > 400 {
		t.Fatalf("test setup: |J| = %d not in a good range", len(joined))
	}
	jset := map[string]bool{}
	for _, p := range joined {
		jset[pairID(p)] = true
	}
	const draws = 120000
	for _, f := range append(drawFactories(), scanFactories()...) {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: l, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			pairs, err := s.Sample(draws)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				k := pairID(p)
				if !jset[k] {
					t.Fatalf("sampled pair %s not in J", k)
				}
				counts[k]++
			}
			expected := float64(draws) / float64(len(joined))
			chi2 := 0.0
			for k := range jset {
				d := float64(counts[k]) - expected
				chi2 += d * d / expected
			}
			dof := float64(len(joined) - 1)
			// p=0.001-ish bound: dof + 4*sqrt(2*dof) covers far beyond
			// the 99.9th percentile for dof >= 20.
			limit := dof + 4*math.Sqrt(2*dof) + 10
			if chi2 > limit {
				t.Fatalf("distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
			}
		})
	}
}

// TestUniformityClustered repeats the uniformity test on a heavily
// skewed instance where grid cells have very different densities.
func TestUniformityClustered(t *testing.T) {
	r := rng.New(3)
	R := clustered(r, 30, 20, 0)
	S := clustered(r, 30, 20, 10000)
	const l = 2.5
	joined := join.Materialize(R, S, l)
	if len(joined) < 10 {
		t.Fatalf("setup: |J| = %d too small", len(joined))
	}
	jset := map[string]bool{}
	for _, p := range joined {
		jset[pairID(p)] = true
	}
	const draws = 100000
	for _, f := range append(drawFactories(), scanFactories()...) {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: l, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			pairs, err := s.Sample(draws)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				k := pairID(p)
				if !jset[k] {
					t.Fatalf("sampled pair %s not in J", k)
				}
				counts[k]++
			}
			expected := float64(draws) / float64(len(joined))
			chi2 := 0.0
			for k := range jset {
				d := float64(counts[k]) - expected
				chi2 += d * d / expected
			}
			dof := float64(len(joined) - 1)
			limit := dof + 4*math.Sqrt(2*dof) + 10
			if chi2 > limit {
				t.Fatalf("distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
			}
		})
	}
}

// TestIndependence checks first-lag serial correlation of sample
// indices: consecutive samples must not be correlated.
func TestIndependence(t *testing.T) {
	r := rng.New(4)
	R := randomPoints(r, 40, 15, 0)
	S := randomPoints(r, 40, 15, 10000)
	const l = 3.0
	joined := join.Materialize(R, S, l)
	if len(joined) < 30 {
		t.Fatalf("setup: |J| = %d", len(joined))
	}
	index := map[string]int{}
	for i, p := range joined {
		index[pairID(p)] = i
	}
	for _, f := range drawFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: l, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			const draws = 50000
			pairs, err := s.Sample(draws)
			if err != nil {
				t.Fatal(err)
			}
			xs := make([]float64, len(pairs))
			for i, p := range pairs {
				xs[i] = float64(index[pairID(p)])
			}
			mean, varSum := 0.0, 0.0
			for _, x := range xs {
				mean += x
			}
			mean /= float64(len(xs))
			cov := 0.0
			for i := range xs {
				varSum += (xs[i] - mean) * (xs[i] - mean)
				if i > 0 {
					cov += (xs[i] - mean) * (xs[i-1] - mean)
				}
			}
			corr := cov / varSum
			// Under independence corr ~ N(0, 1/draws): |corr| beyond
			// 5/sqrt(draws) is a real signal.
			if math.Abs(corr) > 5/math.Sqrt(draws) {
				t.Fatalf("serial correlation %g too high", corr)
			}
		})
	}
}

func TestDeterministicBySeed(t *testing.T) {
	r := rng.New(5)
	R := randomPoints(r, 100, 30, 0)
	S := randomPoints(r, 100, 30, 10000)
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			run := func() []geom.Pair {
				s, err := f.make(R, S, Config{HalfExtent: 5, Seed: 1234})
				if err != nil {
					t.Fatal(err)
				}
				out, err := s.Sample(200)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("sample %d differs across equal-seed runs", i)
				}
			}
		})
	}
}

func TestEmptyJoin(t *testing.T) {
	R := []geom.Point{{X: 0, Y: 0, ID: 1}}
	S := []geom.Point{{X: 1000, Y: 1000, ID: 2}}
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: 1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Next(); !errors.Is(err, ErrEmptyJoin) {
				t.Fatalf("Next err = %v, want ErrEmptyJoin", err)
			}
			// Error is sticky.
			if _, err := s.Sample(5); !errors.Is(err, ErrEmptyJoin) {
				t.Fatalf("Sample err = %v, want ErrEmptyJoin", err)
			}
		})
	}
}

func TestEmptyInputs(t *testing.T) {
	r := rng.New(6)
	S := randomPoints(r, 10, 10, 0)
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			for _, io := range [][2][]geom.Point{{nil, S}, {S, nil}, {nil, nil}} {
				s, err := f.make(io[0], io[1], Config{HalfExtent: 1, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Next(); !errors.Is(err, ErrEmptyJoin) {
					t.Fatalf("Next err = %v, want ErrEmptyJoin", err)
				}
			}
		})
	}
}

func TestWithoutReplacement(t *testing.T) {
	r := rng.New(7)
	R := randomPoints(r, 20, 10, 0)
	S := randomPoints(r, 20, 10, 10000)
	const l = 3.0
	jSize := int(join.Size(R, S, l))
	if jSize < 10 {
		t.Fatalf("setup: |J| = %d", jSize)
	}
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: l, Seed: 3, WithoutReplacement: true, MaxRejects: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			// Ask for more than |J|: must return exactly |J| distinct pairs.
			pairs, err := s.Sample(jSize + 50)
			if err != nil && !errors.Is(err, ErrLowAcceptance) {
				t.Fatal(err)
			}
			if len(pairs) != jSize {
				t.Fatalf("got %d distinct pairs, want %d", len(pairs), jSize)
			}
			seen := map[string]bool{}
			for _, p := range pairs {
				k := pairID(p)
				if seen[k] {
					t.Fatalf("duplicate pair %s", k)
				}
				seen[k] = true
			}
		})
	}
}

// TestReseedClearsWithoutReplacement: Reseed resets a sampler that
// draws without replacement completely, duplicate filter included, so
// after Sample(15), Reseed(9) and Sample(15) it draws what a fresh
// sampler draws after Reseed(9) — the Reseeder contract. A filter
// kept across the reseed rejects the pairs of the first draw.
func TestReseedClearsWithoutReplacement(t *testing.T) {
	r := rng.New(7)
	R := randomPoints(r, 20, 10, 0)
	S := randomPoints(r, 20, 10, 10000)
	cfg := Config{HalfExtent: 3, Seed: 3, WithoutReplacement: true, MaxRejects: 1 << 16}
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			used, err := f.make(R, S, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := f.make(R, S, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := used.Sample(15); err != nil {
				t.Fatal(err)
			}
			used.(Reseeder).Reseed(9)
			fresh.(Reseeder).Reseed(9)
			got, err := used.Sample(15)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Sample(15)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("reseeded sampler drew %v, a fresh one %v", got, want)
			}
		})
	}
}

func TestExplicitPhases(t *testing.T) {
	r := rng.New(8)
	R := randomPoints(r, 300, 40, 0)
	S := randomPoints(r, 300, 40, 10000)
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Preprocess(); err != nil {
				t.Fatal(err)
			}
			if err := s.Build(); err != nil {
				t.Fatal(err)
			}
			if err := s.Count(); err != nil {
				t.Fatal(err)
			}
			// Phases are idempotent.
			if err := s.Preprocess(); err != nil {
				t.Fatal(err)
			}
			if err := s.Count(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Total() <= 0 {
				t.Error("Total time should be positive")
			}
			if st.MuSum <= 0 {
				t.Error("MuSum should be positive")
			}
		})
	}
}

// TestMuSumUpperBoundsJoinSize: Σµ >= |J| for every algorithm, and
// the BBST bound is tighter than KDS-rejection's (the paper's §V-B
// accuracy claim, qualitatively).
func TestMuSumUpperBoundsJoinSize(t *testing.T) {
	r := rng.New(9)
	R := clustered(r, 500, 100, 0)
	S := clustered(r, 500, 100, 10000)
	const l = 6.0
	jSize := float64(join.Size(R, S, l))
	if jSize == 0 {
		t.Fatal("setup: empty join")
	}
	muOf := func(f factory) float64 {
		s, err := f.make(R, S, Config{HalfExtent: l, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Count(); err != nil {
			t.Fatal(err)
		}
		return s.Stats().MuSum
	}
	fs := allFactories()
	kdsMu := muOf(fs[0])  // exact counting: MuSum == |J|
	rejMu := muOf(fs[1])  // loose grid bound
	bbstMu := muOf(fs[2]) // tight hybrid bound
	if math.Abs(kdsMu-jSize) > 1e-6 {
		t.Errorf("KDS MuSum = %g, want |J| = %g", kdsMu, jSize)
	}
	if bbstMu < jSize {
		t.Errorf("BBST MuSum %g below |J| %g", bbstMu, jSize)
	}
	if rejMu < jSize {
		t.Errorf("KDS-rejection MuSum %g below |J| %g", rejMu, jSize)
	}
	if bbstMu > rejMu {
		t.Errorf("BBST bound %g looser than grid bound %g", bbstMu, rejMu)
	}
	// §V-B reports ratios 1.04–1.19 on real data; accept anything
	// clearly better than the crude bound.
	if ratio := bbstMu / jSize; ratio > 3 {
		t.Errorf("BBST approximation ratio %g unexpectedly poor", ratio)
	}
}

// TestIterationEfficiency mirrors Table IV: KDS needs exactly t
// iterations; BBST needs only slightly more; KDS-rejection needs the
// most.
func TestIterationEfficiency(t *testing.T) {
	r := rng.New(10)
	R := clustered(r, 800, 100, 0)
	S := clustered(r, 800, 100, 10000)
	const l, draws = 5.0, 5000
	iters := map[string]uint64{}
	for _, f := range allFactories()[:3] { // KDS, KDS-rejection, BBST
		s, err := f.make(R, S, Config{HalfExtent: l, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sample(draws); err != nil {
			t.Fatal(err)
		}
		iters[f.name] = s.Stats().Iterations
	}
	if iters["KDS"] != draws {
		t.Errorf("KDS iterations = %d, want %d", iters["KDS"], draws)
	}
	if iters["BBST"] > iters["KDS-rejection"] {
		t.Errorf("BBST iterations %d exceed KDS-rejection's %d", iters["BBST"], iters["KDS-rejection"])
	}
	if float64(iters["BBST"]) > 3*draws {
		t.Errorf("BBST iterations %d too many for %d draws", iters["BBST"], draws)
	}
}

func TestNegativeSampleCount(t *testing.T) {
	s, err := NewBBST(nil, nil, Config{HalfExtent: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(-1); err == nil {
		t.Fatal("negative t should error")
	}
}

func TestSampleZero(t *testing.T) {
	r := rng.New(11)
	R := randomPoints(r, 10, 10, 0)
	S := randomPoints(r, 10, 10, 100)
	s, err := NewBBST(R, S, Config{HalfExtent: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Sample(0)
	if err != nil || len(out) != 0 {
		t.Fatalf("Sample(0) = (%d, %v)", len(out), err)
	}
}

// TestProgressive verifies Definition 2's t = ∞ remark: samples can be
// drawn one at a time indefinitely.
func TestProgressive(t *testing.T) {
	r := rng.New(12)
	R := randomPoints(r, 50, 20, 0)
	S := randomPoints(r, 50, 20, 10000)
	s, err := NewBBST(R, S, Config{HalfExtent: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	if got := s.Stats().Samples; got != 1000 {
		t.Fatalf("Samples = %d", got)
	}
}

func TestRejectionBudget(t *testing.T) {
	// A single R point whose corner bucket matches by bounding box but
	// contains no in-window point: µ > 0 yet J = ∅, so sampling must
	// hit the budget rather than loop forever.
	R := []geom.Point{{X: 10.0, Y: 10.0, ID: 1}}
	// Points in the SW corner cell whose bucket summary overlaps the
	// window but which individually miss it: (x >= xmin, y < ymin) and
	// (x < xmin, y >= ymin).
	S := []geom.Point{
		{X: 9.5, Y: 8.9, ID: 2}, // x in window band, y below
		{X: 8.9, Y: 9.5, ID: 3}, // y in window band, x left
	}
	s, err := NewBBST(R, S, Config{HalfExtent: 1, Seed: 1, MaxRejects: 4096})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Next()
	if !errors.Is(err, ErrLowAcceptance) && !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("err = %v, want budget/empty error", err)
	}
}

// TestStatsPhaseAttribution pins which Stats field each sampler's
// phases are timed into: a phase runs only when asked for and reads 0
// before, and a phase a sampler does not have (KDS's grid mapping, the
// grid samplers' and JoinSample's offline phase) takes no time at all.
// JoinSample's upper bounding, an emptiness check over the
// materialized join, is too short to pin either way.
func TestStatsPhaseAttribution(t *testing.T) {
	r := rng.New(13)
	R := randomPoints(r, 2000, 100, 0)
	S := randomPoints(r, 2000, 100, 100000)
	hasPreprocess := map[string]bool{"KDS": true, "KDS-rejection": true}
	hasGridMap := map[string]bool{"KDS-rejection": true, "BBST": true, "GridKD": true, "JoinSample": true}
	pinUpperBound := map[string]bool{"KDS": true, "KDS-rejection": true, "BBST": true, "GridKD": true}
	for _, f := range allFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: 5, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Preprocess(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.GridMapTime != 0 || st.UpperBoundTime != 0 || st.SampleTime != 0 {
				t.Errorf("after Preprocess: GM %v, UB %v, sampling %v, want all 0", st.GridMapTime, st.UpperBoundTime, st.SampleTime)
			}
			if got := st.PreprocessTime; hasPreprocess[f.name] != (got > 0) {
				t.Errorf("PreprocessTime = %v, want positive: %v", got, hasPreprocess[f.name])
			}
			if err := s.Build(); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().GridMapTime; hasGridMap[f.name] != (got > 0) {
				t.Errorf("GridMapTime after Build = %v, want positive: %v", got, hasGridMap[f.name])
			}
			if err := s.Count(); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().UpperBoundTime; pinUpperBound[f.name] && got <= 0 {
				t.Errorf("UpperBoundTime after Count = %v, want positive", got)
			}
			if _, err := s.Sample(100); err != nil {
				t.Fatal(err)
			}
			if s.Stats().SampleTime <= 0 {
				t.Error("SampleTime should be positive after sampling")
			}
		})
	}
}

func TestJoinSampleJoinSize(t *testing.T) {
	r := rng.New(14)
	R := randomPoints(r, 60, 20, 0)
	S := randomPoints(r, 60, 20, 10000)
	const l = 4.0
	js, err := NewJoinSample(R, S, Config{HalfExtent: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Build(); err != nil {
		t.Fatal(err)
	}
	if got, want := js.JoinSize(), int(join.Size(R, S, l)); got != want {
		t.Fatalf("JoinSize = %d, want %d", got, want)
	}
}

func TestCloneOfEmptyJoinFails(t *testing.T) {
	R := []geom.Point{{X: 0, Y: 0, ID: 1}}
	S := []geom.Point{{X: 5000, Y: 5000, ID: 2}}
	for name, s := range cloners(R, S, Config{HalfExtent: 1, Seed: 1}) {
		if _, err := s.Clone(); !errors.Is(err, ErrEmptyJoin) {
			t.Errorf("%s: Clone err = %v, want ErrEmptyJoin", name, err)
		}
	}
}

func TestCloneAutoPreparesParent(t *testing.T) {
	r := rng.New(40)
	R := randomPoints(r, 100, 20, 0)
	S := randomPoints(r, 100, 20, 10000)
	s, err := NewBBST(R, S, Config{HalfExtent: 5, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// Clone before any explicit phase call: it must run the phases.
	c, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	// Parent remains usable too.
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
}

func TestKDSRejectionAcceptanceBound(t *testing.T) {
	// The rejection baseline's acceptance probability is |J|/Σµ; with
	// uniform data and l covering ~1 cell the 9-cell bound is ~9x
	// loose, so iterations/samples should sit well above 1 but below
	// the rejection budget.
	r := rng.New(42)
	R := randomPoints(r, 2000, 100, 0)
	S := randomPoints(r, 2000, 100, 10000)
	s, err := NewKDSRejection(R, S, Config{HalfExtent: 5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	const draws = 2000
	if _, err := s.Sample(draws); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	ratio := float64(st.Iterations) / float64(draws)
	if ratio < 1 {
		t.Fatalf("iteration ratio %g < 1", ratio)
	}
	if ratio > 50 {
		t.Fatalf("iteration ratio %g implausibly high", ratio)
	}
}

func TestSampleInto(t *testing.T) {
	r := rng.New(50)
	R := randomPoints(r, 100, 20, 0)
	S := randomPoints(r, 100, 20, 10000)
	s, err := NewBBST(R, S, Config{HalfExtent: 5, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]geom.Pair, 500)
	n, err := SampleInto(s, buf)
	if err != nil || n != 500 {
		t.Fatalf("SampleInto = (%d, %v)", n, err)
	}
	for _, p := range buf {
		if !geom.InWindow(p.R, p.S, 5) {
			t.Fatalf("invalid pair %v", p)
		}
	}
	// Empty join: writes nothing, surfaces the error.
	far, err := NewBBST([]geom.Point{{X: 0, Y: 0}}, []geom.Point{{X: 9999, Y: 9999}}, Config{HalfExtent: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := SampleInto(far, buf); n != 0 || !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("empty join SampleInto = (%d, %v)", n, err)
	}
}

// TestRMarginalDistribution: beyond pair-level uniformity, the R-side
// marginal must match the theory — r appears with probability
// |S(w(r))| / |J|.
func TestRMarginalDistribution(t *testing.T) {
	r := rng.New(60)
	R := randomPoints(r, 15, 10, 0)
	S := randomPoints(r, 60, 10, 10000)
	const l = 2.5
	counts := make(map[int32]int) // per-r exact |S(w(r))|
	total := 0
	for _, rp := range R {
		c := 0
		for _, sp := range S {
			if geom.InWindow(rp, sp, l) {
				c++
			}
		}
		counts[rp.ID] = c
		total += c
	}
	if total < 20 {
		t.Fatalf("setup: |J| = %d", total)
	}
	for _, f := range drawFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: l, Seed: 61})
			if err != nil {
				t.Fatal(err)
			}
			const draws = 60000
			pairs, err := s.Sample(draws)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[int32]int)
			for _, p := range pairs {
				got[p.R.ID]++
			}
			chi2 := 0.0
			cells := 0
			for id, c := range counts {
				if c == 0 {
					if got[id] != 0 {
						t.Fatalf("r %d has empty window but was sampled", id)
					}
					continue
				}
				expected := float64(draws) * float64(c) / float64(total)
				d := float64(got[id]) - expected
				chi2 += d * d / expected
				cells++
			}
			dof := float64(cells - 1)
			if limit := dof + 4*math.Sqrt(2*dof) + 10; chi2 > limit {
				t.Fatalf("R-marginal skewed: chi2 = %.1f > %.1f", chi2, limit)
			}
		})
	}
}

// TestExhaustiveSmallUniverse enumerates every pair of a tiny integer
// lattice universe and verifies that each sampler's support equals J
// exactly — every joining pair is reachable and no non-joining pair
// ever appears. Boundary-heavy by construction (many points exactly
// on window edges and grid-cell borders).
func TestExhaustiveSmallUniverse(t *testing.T) {
	var R, S []geom.Point
	id := int32(0)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			R = append(R, geom.Point{X: float64(x), Y: float64(y), ID: id})
			S = append(S, geom.Point{X: float64(x), Y: float64(y), ID: id + 1000})
			id++
		}
	}
	const l = 1.0 // windows land exactly on lattice lines
	want := map[string]bool{}
	for _, rp := range R {
		for _, sp := range S {
			if geom.InWindow(rp, sp, l) {
				want[pairID(geom.Pair{R: rp, S: sp})] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("setup: empty join")
	}
	for _, f := range drawFactories() {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.make(R, S, Config{HalfExtent: l, Seed: 70})
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			// Enough draws to hit every pair w.h.p. (coupon collector).
			pairs, err := s.Sample(len(want) * 40)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				k := pairID(p)
				if !want[k] {
					t.Fatalf("sampled pair %s outside J", k)
				}
				got[k] = true
			}
			for k := range want {
				if !got[k] {
					t.Errorf("pair %s in J never sampled in %d draws", k, len(pairs))
				}
			}
		})
	}
}
