// Package srjtest holds the srj.Source conformance suite as a
// reusable harness: one set of behavioral tests that every
// implementation of the contract must pass, parameterized by a
// constructor. The repo's four serving tiers — the in-process
// srj.Engine, the mutable srj.Store, srj.Client.Bind over one
// srjserver, and srj.Router.Bind over a sharded fleet — all register
// here, and a new tier (an alternative transport) buys the whole
// suite by adding one MakeSource. Tiers that accept mutations also
// register for RunUpdatableConformance (see updatable.go), which
// holds the insert/delete semantics to one contract the same way.
//
// The point of the Source contract is that callers cannot tell the
// implementations apart, so the suite is written once against
// srj.Source and knows nothing about what it is driving: the
// constructor receives the datasets, the window, the per-request cap,
// and the build seed, and must return a Source serving exactly that —
// however many processes, caches, or network hops sit behind it.
package srjtest

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	srj "repro"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// Config tells a MakeSource what the returned Source must serve: the
// join of R and S under half-extent L, with MaxT as the per-request
// sample cap and BuildSeed seeding the engine build (equal BuildSeeds
// must yield sources whose equal-seeded draws agree byte for byte).
type Config struct {
	R, S      []srj.Point
	L         float64
	MaxT      int
	BuildSeed uint64
}

// MakeSource builds one Source implementation for a subtest. Register
// cleanup (servers to stop, routers to close) on t; the harness calls
// each constructor inside its own subtest.
type MakeSource func(t *testing.T, cfg Config) srj.Source

// Data returns the suite's datasets and window: a join of a few
// hundred pairs — small enough to enumerate exactly, big enough for a
// meaningful chi-square. Exposed so callers (e.g. multi-source
// agreement tests) can build fixtures over the same inputs the suite
// uses.
func Data() (R, S []srj.Point, l float64) {
	return srj.MustGenerate("uniform", 60, 101), srj.MustGenerate("uniform", 60, 102), 1000.0
}

// DenseData returns a second fixture in Data's shape whose join runs
// through crowded grid cells: three clusters of 32 S points, each
// filling one cell of side l, with 15 R points scattered over each
// cluster's 3×3 block of cells, and 20 S points strewn between them.
// A cell of more than 2⌈log₂|S|⌉ points answers its corner queries
// through the BBST pair rather than an exact scan, and Data's cells
// are all smaller than that, so this fixture is what puts the BBST's
// bound and bucket sampling under the suite. |J| is 609.
func DenseData() (R, S []srj.Point, l float64) {
	const side = 1000.0
	r := rng.New(103)
	in := func(cx, cy, w float64) srj.Point {
		return srj.Point{X: (cx + r.Range(0, w)) * side, Y: (cy + r.Range(0, w)) * side}
	}
	for _, c := range [][2]float64{{10, 10}, {14, 30}, {40, 15}} {
		for range 32 {
			p := in(c[0], c[1], 1)
			p.ID = int32(len(S))
			S = append(S, p)
		}
		for range 15 {
			p := in(c[0]-1, c[1]-1, 3)
			p.ID = int32(len(R))
			R = append(R, p)
		}
	}
	for range 20 {
		p := in(0, 0, 50)
		p.ID = int32(len(S))
		S = append(S, p)
	}
	return R, S, side
}

// crowdedCells counts the grid cells of side l holding more than
// 2⌈log₂|S|⌉ points of S: the cells whose corners the BBST answers.
func crowdedCells(S []srj.Point, l float64) int {
	perCell := map[[2]float64]int{}
	for _, p := range S {
		perCell[[2]float64{math.Floor(p.X / l), math.Floor(p.Y / l)}]++
	}
	limit := 2 * int(math.Ceil(math.Log2(float64(len(S)))))
	n := 0
	for _, c := range perCell {
		if c > limit {
			n++
		}
	}
	return n
}

// serialCorrelation returns the first-lag autocorrelation of xs.
func serialCorrelation(xs []float64) float64 {
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varSum, cov := 0.0, 0.0
	for i, x := range xs {
		varSum += (x - mean) * (x - mean)
		if i > 0 {
			cov += (x - mean) * (xs[i-1] - mean)
		}
	}
	return cov / varSum
}

// RunSourceConformance runs the shared suite against the sources make
// constructs: uniformity and independence (over Data and over
// DenseData), equal-seed determinism, context cancellation, fn error
// precedence, the per-request cap, malformed requests, and the Into
// buffer contract. Implementations pass all of it or they are not a
// Source.
func RunSourceConformance(t *testing.T, newSource MakeSource) {
	R, S, l := Data()

	t.Run("uniformity", func(t *testing.T) { checkUniformity(t, newSource, R, S, l) })

	t.Run("uniformity dense", func(t *testing.T) {
		R, S, l := DenseData()
		if crowdedCells(S, l) == 0 {
			t.Fatal("test setup: the dense fixture has no cell above 2⌈log₂|S|⌉ points")
		}
		checkUniformity(t, newSource, R, S, l)
	})

	t.Run("determinism by seed", func(t *testing.T) {
		src := newSource(t, Config{R: R, S: S, L: l, MaxT: 100_000, BuildSeed: 2})
		ctx := context.Background()
		a, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// Interleave unseeded traffic: it must not perturb seeded
		// draws.
		if _, err := src.Draw(ctx, srj.Request{T: 777}); err != nil {
			t.Fatal(err)
		}
		b, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Pairs) != 2000 || len(b.Pairs) != 2000 {
			t.Fatalf("got %d and %d pairs", len(a.Pairs), len(b.Pairs))
		}
		for i := range a.Pairs {
			if a.Pairs[i] != b.Pairs[i] {
				t.Fatalf("equal seeds diverged at sample %d", i)
			}
		}
		// A different seed must draw a different sequence.
		c, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range a.Pairs {
			if a.Pairs[i] == c.Pairs[i] {
				same++
			}
		}
		if same > len(a.Pairs)/2 {
			t.Fatalf("distinct seeds repeated %d/%d samples", same, len(a.Pairs))
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		src := newSource(t, Config{R: R, S: S, L: l, MaxT: 500_000, BuildSeed: 3})

		// Pre-canceled context: nothing is drawn.
		pre, cancelPre := context.WithCancel(context.Background())
		cancelPre()
		if _, err := src.Draw(pre, srj.Request{T: 100}); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled Draw: err = %v, want context.Canceled", err)
		}

		// Cancel mid-stream: the draw stops promptly, well short of
		// the requested count.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const want = 400_000
		received := 0
		start := time.Now()
		err := src.DrawFunc(ctx, srj.Request{T: want}, func(batch []srj.Pair) error {
			received += len(batch)
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-stream cancel: err = %v, want context.Canceled", err)
		}
		if received >= want {
			t.Fatalf("cancelled draw delivered all %d samples", received)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancelled draw took %v to stop", elapsed)
		}
	})

	t.Run("fn error precedence", func(t *testing.T) {
		// DrawFunc returns fn's error verbatim — even in the
		// cancel-and-return-sentinel early-stop idiom, where the
		// caller's context is done by the time the error surfaces.
		src := newSource(t, Config{R: R, S: S, L: l, MaxT: 500_000, BuildSeed: 7})
		boom := errors.New("found enough")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := src.DrawFunc(ctx, srj.Request{T: 300_000}, func([]srj.Pair) error {
			cancel()
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the fn error verbatim", err)
		}
	})

	t.Run("drawfunc ignores into", func(t *testing.T) {
		// A Request built for Draw streams unchanged: Into never
		// receives samples, its length is not validated against T, and
		// it still defaults T when T is zero.
		src := newSource(t, Config{R: R, S: S, L: l, MaxT: 10_000, BuildSeed: 8})
		short := make([]srj.Pair, 5)
		got := 0
		err := src.DrawFunc(context.Background(), srj.Request{T: 100, Into: short}, func(batch []srj.Pair) error {
			got += len(batch)
			return nil
		})
		if err != nil || got != 100 {
			t.Fatalf("short Into: streamed %d samples, err %v", got, err)
		}
		intoOnly := make([]srj.Pair, 64)
		got = 0
		err = src.DrawFunc(context.Background(), srj.Request{Into: intoOnly}, func(batch []srj.Pair) error {
			got += len(batch)
			for _, p := range intoOnly {
				if p != (srj.Pair{}) {
					t.Fatal("DrawFunc wrote into the Into buffer")
				}
			}
			return nil
		})
		if err != nil || got != len(intoOnly) {
			t.Fatalf("Into-only: streamed %d samples, err %v", got, err)
		}
	})

	t.Run("per-request cap", func(t *testing.T) {
		src := newSource(t, Config{R: R, S: S, L: l, MaxT: 1000, BuildSeed: 4})
		ctx := context.Background()
		if _, err := src.Draw(ctx, srj.Request{T: 1001}); !errors.Is(err, srj.ErrSampleCap) {
			t.Fatalf("over-cap Draw: err = %v, want ErrSampleCap", err)
		}
		if err := src.DrawFunc(ctx, srj.Request{T: 1001}, func([]srj.Pair) error {
			t.Error("fn called for an over-cap draw")
			return nil
		}); !errors.Is(err, srj.ErrSampleCap) {
			t.Fatalf("over-cap DrawFunc: err = %v, want ErrSampleCap", err)
		}
		res, err := src.Draw(ctx, srj.Request{T: 1000})
		if err != nil || len(res.Pairs) != 1000 {
			t.Fatalf("at-cap Draw: %d pairs, %v", len(res.Pairs), err)
		}
	})

	t.Run("bad request", func(t *testing.T) {
		src := newSource(t, Config{R: R, S: S, L: l, MaxT: 1000, BuildSeed: 5})
		ctx := context.Background()
		if _, err := src.Draw(ctx, srj.Request{}); !errors.Is(err, srj.ErrBadRequest) {
			t.Fatalf("zero request: err = %v, want ErrBadRequest", err)
		}
		if _, err := src.Draw(ctx, srj.Request{T: -3}); !errors.Is(err, srj.ErrBadRequest) {
			t.Fatalf("negative T: err = %v, want ErrBadRequest", err)
		}
		if err := src.DrawFunc(ctx, srj.Request{T: 0}, func([]srj.Pair) error { return nil }); !errors.Is(err, srj.ErrBadRequest) {
			t.Fatalf("zero-T DrawFunc: err = %v, want ErrBadRequest", err)
		}
		short := make([]srj.Pair, 5)
		if _, err := src.Draw(ctx, srj.Request{T: 10, Into: short}); !errors.Is(err, srj.ErrBadRequest) {
			t.Fatalf("short Into: err = %v, want ErrBadRequest", err)
		}
	})

	t.Run("into buffer", func(t *testing.T) {
		src := newSource(t, Config{R: R, S: S, L: l, MaxT: 10_000, BuildSeed: 6})
		buf := make([]srj.Pair, 512)
		res, err := src.Draw(context.Background(), srj.Request{Into: buf})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(buf) {
			t.Fatalf("got %d pairs, want %d", len(res.Pairs), len(buf))
		}
		if &res.Pairs[0] != &buf[0] {
			t.Fatal("Result.Pairs is not backed by Request.Into")
		}
		for _, p := range res.Pairs {
			if !srj.Window(p.R, l).Contains(p.S) {
				t.Fatalf("invalid pair %v", p)
			}
		}
		if res.Elapsed <= 0 {
			t.Fatalf("Elapsed = %v", res.Elapsed)
		}
	})
}

// checkUniformity draws 120k pairs from a source over R and S and
// holds them to the exact join: every pair in J, a chi-square over J
// at p ≈ 0.001 for uniformity, and the first-lag serial correlation of
// the drawn pairs' positions for independence.
func checkUniformity(t *testing.T, newSource MakeSource, R, S []srj.Point, l float64) {
	src := newSource(t, Config{R: R, S: S, L: l, MaxT: 500_000, BuildSeed: 1})
	index := map[[2]int32]int{} // each pair's position in J
	srj.Join(R, S, l, func(r, s srj.Point) bool {
		index[[2]int32{r.ID, s.ID}] = len(index)
		return true
	})
	if len(index) < 20 || len(index) > 2000 {
		t.Fatalf("test setup: |J| = %d not in a good range", len(index))
	}
	const draws = 120_000
	counts := map[[2]int32]int{}
	seq := make([]float64, 0, draws)
	err := src.DrawFunc(context.Background(), srj.Request{T: draws}, func(batch []srj.Pair) error {
		for _, p := range batch {
			k := [2]int32{p.R.ID, p.S.ID}
			pos, ok := index[k]
			if !ok {
				t.Fatalf("sampled pair %v not in J", p)
			}
			if !srj.Window(p.R, l).Contains(p.S) {
				t.Fatalf("pair %v outside window", p)
			}
			counts[k]++
			seq = append(seq, float64(pos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(draws) / float64(len(index))
	chi2 := 0.0
	for k := range index {
		d := float64(counts[k]) - expected
		chi2 += d * d / expected
	}
	dof := float64(len(index) - 1)
	// The p≈0.001 bound the in-process uniformity tests use.
	limit := dof + 4*math.Sqrt(2*dof) + 10
	if chi2 > limit {
		t.Fatalf("distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
	}
	// Independence: under it the first-lag serial correlation of
	// the drawn positions is ~N(0, 1/draws), so |corr| beyond
	// 5/sqrt(draws) is a real signal.
	if corr := serialCorrelation(seq); math.Abs(corr) > 5/math.Sqrt(draws) {
		t.Fatalf("serial correlation %g too high", corr)
	}
}
