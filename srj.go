// Package srj (module "repro") is a Go implementation of "Random
// Sampling over Spatial Range Joins" (Daichi Amagata, ICDE 2025).
//
// Given two point sets R and S and a window half-extent l, the spatial
// range join is J = {(r, s) | r ∈ R, s ∈ S, s inside the window
// [r.X-l, r.X+l] x [r.Y-l, r.Y+l]}. This package draws uniform,
// independent random samples of J *without computing the join*, in
// Õ(n + m + t) expected time and O(n + m) space using the paper's
// BBST (Bucket-based Binary Search Tree) algorithm; the paper's two
// baselines and several ablations are available for comparison.
//
// Quick start:
//
//	R := srj.MustGenerate("castreet", 100_000, 1)
//	S := srj.MustGenerate("castreet", 100_000, 2)
//	sampler, err := srj.NewSampler(R, S, 100, nil) // BBST by default
//	if err != nil { ... }
//	pairs, err := sampler.Sample(1_000_000)
//
// Samples can also be drawn progressively with Next (Definition 2 of
// the paper allows t = ∞):
//
//	for {
//	    pair, err := sampler.Next()
//	    ...
//	}
//
// # Serving
//
// A Sampler rebuilds its indexes per query, which wastes the paper's
// amortization when many requests target the same R, S, and l. An
// Engine builds the structures once and serves any number of
// concurrent requests against them through the context-first Source
// API — Draw(ctx, Request) and the streaming DrawFunc — each request
// drawn from a pooled sampler clone:
//
//	eng, err := srj.NewEngine(R, S, 100, nil)
//	if err != nil { ... }
//	// any number of goroutines:
//	res, err := eng.Draw(ctx, srj.Request{T: 10_000})
//	// reproducible per request, whatever traffic is interleaved:
//	res, err = eng.Draw(ctx, srj.Request{T: 10_000, Seed: 42})
//	// allocation-free, into a reused buffer:
//	res, err = eng.Draw(ctx, srj.Request{Into: buf})
//	fmt.Println(eng.Stats()) // requests, samples/sec inputs, latency
//
// The amortization also survives a process boundary: NewServer wraps
// a memory-budgeted registry of engines in an HTTP API (the handler
// behind cmd/srjserver) and NewClient speaks its wire protocol. A
// client bound to one engine key is a Source too — the same
// Draw/DrawFunc contract, cancellation and seeds included, served
// remotely:
//
//	src := srj.NewClient("http://localhost:8080").
//	    Bind(srj.EngineKey{Dataset: "nyc", L: 100, Algorithm: "bbst"})
//	res, err := src.Draw(ctx, srj.Request{T: 10_000, Seed: 42})
//
// Anything written against Source swaps local for remote serving
// freely — see serve.go, examples/serving, and examples/remote.
package srj

import (
	"fmt"
	"math"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/join"
)

// Point is a 2-D point with a caller-assigned ID.
type Point = geom.Point

// Pair is one sampled element (r, s) of the join result J.
type Pair = geom.Pair

// Rect is a closed axis-aligned rectangle.
type Rect = geom.Rect

// Stats exposes per-phase timings and sampling counters.
type Stats = core.Stats

// Sampler draws uniform independent samples of the spatial range
// join. See core.Sampler for the phase-level contract.
type Sampler = core.Sampler

// Errors re-exported from the algorithm layer.
var (
	// ErrEmptyJoin reports a provably empty join result.
	ErrEmptyJoin = core.ErrEmptyJoin
	// ErrLowAcceptance reports an exhausted rejection budget.
	ErrLowAcceptance = core.ErrLowAcceptance
	// ErrSampleCap reports a request exceeding an Engine's per-request
	// sample cap (see Engine.SetMaxT).
	ErrSampleCap = engine.ErrSampleCap
)

// Algorithm selects the sampling algorithm.
type Algorithm string

// Available algorithms.
const (
	// BBST is the paper's proposed algorithm: Õ(n+m+t) expected time,
	// O(n+m) space. The default and the right choice in practice.
	BBST Algorithm = "bbst"
	// KDS is baseline 1: exact kd-tree counting, O((n+t)·sqrt m).
	KDS Algorithm = "kds"
	// KDSRejection is baseline 2: grid upper bounds with rejection.
	KDSRejection Algorithm = "kds-rejection"
	// GridKD is the Fig. 9 ablation: the BBST pipeline with a kd-tree
	// per cell instead of the two BBSTs.
	GridKD Algorithm = "gridkd"
	// JoinSample materializes the full join, then samples; Θ(|J|)
	// time and space. For testing and small inputs only.
	JoinSample Algorithm = "joinsample"
)

// Algorithms lists all selectable algorithms.
func Algorithms() []Algorithm {
	return []Algorithm{BBST, KDS, KDSRejection, GridKD, JoinSample}
}

// Options tunes a sampler; the zero value (or nil) uses the BBST
// algorithm with seed 0 and sampling with replacement.
type Options struct {
	// Algorithm to use; empty means BBST.
	Algorithm Algorithm
	// Seed drives all randomness; equal seeds give equal samples.
	Seed uint64
	// WithoutReplacement suppresses duplicate pairs.
	WithoutReplacement bool
	// MaxRejects bounds consecutive rejected sampling iterations
	// (0 = default budget). Only relevant for degenerate inputs.
	MaxRejects int
	// BucketCap overrides the BBST bucket capacity b, the largest
	// bucket a cell may hold (each cell balances its buckets under
	// it); 0 keeps the paper's b = ceil(log2 m) (Definition 3). BBST
	// algorithm only; exposed for ablation studies.
	BucketCap int
}

// NewSampler builds a join sampler for R and S with window half-extent
// l (the window of r is [r.X-l, r.X+l] x [r.Y-l, r.Y+l]). The inputs
// are validated (NaN or infinite coordinates are rejected before any
// index is built), not copied, and must not be mutated while the
// sampler lives.
func NewSampler(R, S []Point, l float64, opts *Options) (Sampler, error) {
	if _, err := ValidatePoints(R); err != nil {
		return nil, fmt.Errorf("srj: invalid R: %w", err)
	}
	if _, err := ValidatePoints(S); err != nil {
		return nil, fmt.Errorf("srj: invalid S: %w", err)
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	cfg := core.Config{
		HalfExtent:         l,
		Seed:               o.Seed,
		WithoutReplacement: o.WithoutReplacement,
		MaxRejects:         o.MaxRejects,
		BucketCap:          o.BucketCap,
	}
	switch o.Algorithm {
	case "", BBST:
		return core.NewBBST(R, S, cfg)
	case KDS:
		return core.NewKDS(R, S, cfg)
	case KDSRejection:
		return core.NewKDSRejection(R, S, cfg)
	case GridKD:
		return core.NewGridKD(R, S, cfg)
	case JoinSample:
		return core.NewJoinSample(R, S, cfg)
	default:
		return nil, fmt.Errorf("srj: unknown algorithm %q (have %v)", o.Algorithm, Algorithms())
	}
}

// Sample is the one-shot convenience API: it builds a sampler and
// draws t uniform independent join samples.
func Sample(R, S []Point, l float64, t int, opts *Options) ([]Pair, error) {
	s, err := NewSampler(R, S, l, opts)
	if err != nil {
		return nil, err
	}
	return s.Sample(t)
}

// SampleInto fills the caller-provided buffer with uniform
// independent join samples (the zero-allocation bulk API) and returns
// the number written.
func SampleInto(s Sampler, dst []Pair) (int, error) {
	return core.SampleInto(s, dst)
}

// SampleParallel draws t uniform independent join samples using the
// given number of worker goroutines. The underlying algorithm must
// support cloning (all five do — see core.Cloner); sampling without
// replacement is not supported in parallel. Samples remain uniform
// and independent because each worker draws from an independent split
// of the random stream.
func SampleParallel(R, S []Point, l float64, t, workers int, opts *Options) ([]Pair, error) {
	s, err := NewSampler(R, S, l, opts)
	if err != nil {
		return nil, err
	}
	c, ok := s.(core.Cloner)
	if !ok {
		return nil, fmt.Errorf("srj: algorithm %s does not support parallel sampling", s.Name())
	}
	return core.ParallelSample(c, t, workers)
}

// EngineStats aggregates an Engine's request-level serving counters:
// requests, samples, failures, and cumulative/peak request latency.
type EngineStats = engine.Stats

// Engine serves many concurrent sampling requests against join
// structures that are built exactly once, preserving the paper's
// amortization (BBST: Õ(n+m) preprocessing, then Õ(1) expected time
// per sample) across requests instead of rebuilding per query as
// Sample does. Each request draws from a pooled sampler clone with a
// fresh independent random stream, so samples stay uniform and
// independent across requests, and a sequential request sequence is
// reproducible from the seed. All methods are safe for concurrent use.
type Engine struct {
	e *engine.Engine
}

// NewEngine validates R and S, builds the chosen algorithm's
// structures through the counting phase, and returns an Engine
// serving them. It fails fast with ErrEmptyJoin when the join is
// provably empty. Options.WithoutReplacement is not supported (the
// duplicate filter would need cross-request coordination). The inputs
// are not copied and must not be mutated while the Engine lives.
func NewEngine(R, S []Point, l float64, opts *Options) (*Engine, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.WithoutReplacement {
		return nil, fmt.Errorf("srj: Engine does not support WithoutReplacement")
	}
	s, err := NewSampler(R, S, l, &o)
	if err != nil {
		return nil, err
	}
	c, ok := s.(core.Cloner)
	if !ok {
		return nil, fmt.Errorf("srj: algorithm %s does not support engine serving", s.Name())
	}
	e, err := engine.New(c, o.Seed)
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// Warm pre-creates n pooled sampler clones (typically one per
// expected concurrent client) so no request pays construction cost.
func (e *Engine) Warm(n int) error { return e.e.Warm(n) }

// SetMaxT caps the number of samples a single request may ask for
// (n <= 0 removes the cap). Requests over the cap fail with
// ErrSampleCap before any allocation, so a single adversarial t
// cannot OOM a serving process. srjserver sets this from its -maxt
// flag on every engine it builds.
func (e *Engine) SetMaxT(n int) { e.e.SetMaxT(n) }

// MaxT reports the per-request sample cap (0 = unlimited).
func (e *Engine) MaxT() int { return e.e.MaxT() }

// Stats snapshots the aggregate request counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Algorithm reports the underlying algorithm's name.
func (e *Engine) Algorithm() string { return e.e.Name() }

// SizeBytes estimates the retained footprint of the shared structures.
func (e *Engine) SizeBytes() int { return e.e.SizeBytes() }

// JoinSize returns |J| exactly (plane sweep; O((n+m) log(n+m) + |J|)
// time but O(1) extra space). Useful for calibrating t.
func JoinSize(R, S []Point, l float64) uint64 {
	return join.Size(R, S, l)
}

// Join enumerates the exact join result via plane sweep, calling emit
// for every pair until it returns false. This is the operation the
// sampling algorithms exist to avoid on large inputs; it is provided
// for completeness and small-input tooling.
func Join(R, S []Point, l float64, emit func(r, s Point) bool) {
	join.PlaneSweep(R, S, l, emit)
}

// Window returns the query window of half-extent l centered at p.
func Window(p Point, l float64) Rect { return geom.Window(p, l) }

// Generate produces one of the built-in synthetic datasets ("castreet",
// "foursquare", "imis", "nyc", "uniform", "gaussian") with n points on
// the [0, 10000]^2 domain, deterministic in (n, seed).
func Generate(name string, n int, seed uint64) ([]Point, error) {
	g, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return g(n, seed), nil
}

// MustGenerate is Generate but panics on an unknown dataset name.
func MustGenerate(name string, n int, seed uint64) []Point {
	pts, err := Generate(name, n, seed)
	if err != nil {
		panic(err)
	}
	return pts
}

// DatasetNames lists the built-in dataset generators.
func DatasetNames() []string { return dataset.Names() }

// SplitRS randomly assigns each point to R with probability ratio,
// re-numbering IDs densely on both sides — the paper's protocol for
// deriving R and S from one dataset (ratio 0.5 gives |R| ≈ |S|).
func SplitRS(pts []Point, ratio float64, seed uint64) (R, S []Point) {
	return dataset.SplitRS(pts, ratio, seed)
}

// EstimateJoinSize derives an unbiased estimate of |J| from a
// sampler that has already drawn samples: the acceptance rate times
// the upper-bound mass Σµ. For exact-counting algorithms (KDS,
// JoinSample) the estimate equals |J| exactly. This powers the
// cardinality-estimation use case without ever running the join.
func EstimateJoinSize(s Sampler) float64 {
	return aggregate.JoinSizeEstimate(s.Stats())
}

// ValidatePoints rejects coordinates the index structures cannot
// handle (NaN or infinite); the samplers assume finite coordinates.
// Every finite float64 — up to ±math.MaxFloat64 — is accepted. It
// returns the index of the first offending point, or -1 and nil.
// NewSampler and NewEngine call it on both inputs, so manual
// validation is only needed to locate the offending point.
func ValidatePoints(pts []Point) (int, error) {
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			return i, fmt.Errorf("point %d (ID %d) has NaN coordinates", i, p.ID)
		}
		if math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return i, fmt.Errorf("point %d (ID %d) has infinite coordinates", i, p.ID)
		}
	}
	return -1, nil
}

// LoadPoints reads a point file written by SavePoints (CSV for .csv
// paths, compact binary otherwise).
func LoadPoints(path string) ([]Point, error) { return dataset.LoadFile(path) }

// SavePoints writes points to path (CSV for .csv paths, compact
// binary otherwise).
func SavePoints(path string, pts []Point) error { return dataset.SaveFile(path, pts) }
