// Package core implements the join-sampling algorithms of "Random
// Sampling over Spatial Range Joins" (ICDE 2025):
//
//   - KDS           — baseline 1 (Section III-A): exact range counting on a
//     kd-tree, Walker alias over |S(w(r))|, KDS point sampling.
//   - KDSRejection  — baseline 2 (Section III-B): grid upper bounds µ(r),
//     alias over µ, kd-tree sampling with rejection.
//   - BBST          — the proposed algorithm (Section IV, Algorithm 1):
//     grid + two BBSTs per cell, Õ(1) approximate counting and Õ(1)
//     expected-time sampling.
//   - GridKD        — the Fig. 9 ablation: the BBST pipeline with a
//     kd-tree per cell instead of the two BBSTs.
//   - RTS           — an extra ablation: baseline 1 with an aggregate
//     R-tree in place of the kd-tree.
//   - JoinSample    — the "run the join, then sample" strawman.
//
// Every sampler draws uniform, independent samples of the join
// J = {(r, s) | r ∈ R, s ∈ S, w(r) ∩ s} with replacement (optionally
// without), and exposes the paper's phase decomposition — offline
// preprocessing, grid mapping (GM), upper bounding (UB), sampling —
// with per-phase wall-clock timings and iteration counters so the
// experiment harness can regenerate Tables II–IV and Figures 4–9.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Errors shared by all samplers.
var (
	// ErrEmptyJoin is returned when the join result is provably empty
	// (all upper bounds are zero), so no sample exists.
	ErrEmptyJoin = errors.New("core: join result is empty")
	// ErrLowAcceptance is returned when rejection sampling fails to
	// accept for Config.MaxRejects consecutive iterations; with the
	// default budget this practically only happens when J is empty
	// but spurious corner-bucket upper bounds keep Σµ positive.
	ErrLowAcceptance = errors.New("core: rejection sampling exceeded the rejection budget")
)

// Config carries the query parameters shared by every algorithm.
type Config struct {
	// HalfExtent is l: the window of r is [r.X-l, r.X+l] x [r.Y-l, r.Y+l].
	HalfExtent float64
	// Seed drives all randomness; equal seeds reproduce equal samples.
	Seed uint64
	// WithoutReplacement rejects pairs that were already returned by
	// this sampler (Definition 2 remark). The default samples with
	// replacement.
	WithoutReplacement bool
	// MaxRejects bounds consecutive rejected iterations per sample;
	// 0 means the default of 1<<24.
	MaxRejects int
	// FractionalCascading enables the bridge-based O(log m) corner
	// queries the paper mentions as an optional optimization of the
	// BBST (Lemma 4). Only the BBST sampler reads it.
	FractionalCascading bool
	// BucketCap overrides the BBST bucket capacity b, the per-cell
	// maximum bucket size under which bbst.Build balances each cell's
	// buckets (Definition 3 sets b = ceil(log2 m); the ablation
	// harness sweeps other values). 0 keeps the paper's choice. Only
	// the BBST sampler reads it.
	BucketCap int
}

func (c Config) maxRejects() int {
	if c.MaxRejects > 0 {
		return c.MaxRejects
	}
	return 1 << 24
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.HalfExtent <= 0 || math.IsNaN(c.HalfExtent) || math.IsInf(c.HalfExtent, 0) {
		return fmt.Errorf("core: half extent must be positive and finite, got %g", c.HalfExtent)
	}
	if c.MaxRejects < 0 {
		return fmt.Errorf("core: MaxRejects must be non-negative, got %d", c.MaxRejects)
	}
	if c.BucketCap < 0 {
		return fmt.Errorf("core: BucketCap must be non-negative, got %d", c.BucketCap)
	}
	return nil
}

// Stats captures the phase decomposition the paper reports: Table II
// times Preprocess; Table III decomposes GridMap (GM) and UpperBound
// (UB); Table IV reports SampleTime and Iterations.
type Stats struct {
	PreprocessTime time.Duration // offline structure building
	GridMapTime    time.Duration // GM: online data-structure building
	// UpperBoundTime is UB: counting µ(r, d) in one batched pass per
	// grid cell of R (the 3×3 S block looked up once per cell, edge
	// counts by sweeps, corners per point), plus alias building.
	UpperBoundTime time.Duration
	// SampleTime is the cumulative sampling-phase time. Samplers with
	// a batch loop (the grid samplers and Mutable) read the clock once
	// per SampleInto batch; Next is a batch of one, and the other
	// samplers time each Next call.
	SampleTime time.Duration

	Samples    uint64  // accepted join samples returned so far
	Iterations uint64  // sampling iterations including rejections
	MuSum      float64 // Σ_r µ(r): total weight of the alias over R
}

// Total returns the end-to-end time across all phases.
func (s Stats) Total() time.Duration {
	return s.PreprocessTime + s.GridMapTime + s.UpperBoundTime + s.SampleTime
}

// Sampler is the common interface of all join-sampling algorithms.
// Phases may be invoked explicitly (the experiment harness does, to
// time them separately) or implicitly: Next and Sample run any phase
// that has not happened yet.
type Sampler interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Preprocess runs the offline phase (index building / sorting).
	Preprocess() error
	// Build runs the online data-structure building phase (GM).
	Build() error
	// Count runs the (approximate) range counting phase (UB),
	// including alias construction. Returns ErrEmptyJoin when every
	// upper bound is zero.
	Count() error
	// Next draws one uniform independent join sample.
	Next() (geom.Pair, error)
	// Sample draws t samples. With WithoutReplacement it returns
	// fewer when |J| < t would make completion impossible within the
	// rejection budget.
	Sample(t int) ([]geom.Pair, error)
	// Stats returns the phase timings and counters accumulated so far.
	Stats() Stats
	// SizeBytes estimates the retained heap footprint of the
	// sampler's structures (Fig. 4).
	SizeBytes() int
}

// Reseeder is implemented by samplers whose random stream can be
// reinitialized in place: after Reseed(seed) the sampler draws the
// same sequence a freshly constructed sampler with that seed would.
// Every sampler in this package implements it; ClonePool reseeds each
// checked-out clone through it.
type Reseeder interface {
	Reseed(seed uint64)
}

// phase tracks which lifecycle steps already ran.
type phase int

const (
	phaseNew phase = iota
	phasePreprocessed
	phaseBuilt
	phaseCounted
)

// base carries the state shared by the concrete samplers.
type base struct {
	name  string
	cfg   Config
	R, S  []geom.Point
	rng   *rng.RNG
	stats Stats
	state phase
	err   error // sticky fatal error (e.g. ErrEmptyJoin)

	seen map[uint64]struct{} // for WithoutReplacement
}

func newBase(name string, R, S []geom.Point, cfg Config) (*base, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &base{
		name: name,
		cfg:  cfg,
		R:    R,
		S:    S,
		rng:  rng.New(cfg.Seed),
	}
	if cfg.WithoutReplacement {
		b.seen = make(map[uint64]struct{})
	}
	return b, nil
}

func (b *base) Name() string { return b.name }

func (b *base) Stats() Stats { return b.stats }

// pairKey packs the two IDs for the without-replacement filter.
func pairKey(p geom.Pair) uint64 {
	return uint64(uint32(p.R.ID))<<32 | uint64(uint32(p.S.ID))
}

// window returns w(r).
func (b *base) window(r geom.Point) geom.Rect {
	return geom.Window(r, b.cfg.HalfExtent)
}

// phased is the lifecycle subset of Sampler that ensure needs; the
// shared pipeline types implement it without being full Samplers.
type phased interface {
	Preprocess() error
	Build() error
	Count() error
}

// ensure advances the sampler through its phases up to want.
func ensure(s phased, b *base, want phase) error {
	if b.err != nil {
		return b.err
	}
	if b.state < phasePreprocessed && want >= phasePreprocessed {
		if err := s.Preprocess(); err != nil {
			return err
		}
	}
	if b.state < phaseBuilt && want >= phaseBuilt {
		if err := s.Build(); err != nil {
			return err
		}
	}
	if b.state < phaseCounted && want >= phaseCounted {
		if err := s.Count(); err != nil {
			return err
		}
	}
	return b.err
}

// SampleInto fills dst with uniform independent join samples, reusing
// the caller's buffer — the zero-allocation bulk API. It returns the
// number of samples written (len(dst) unless an error stops it early).
// Samplers with a batch loop run the whole buffer through it; the
// others are drawn one Next call at a time.
func SampleInto(s Sampler, dst []geom.Pair) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if b, ok := s.(batchSampler); ok {
		return b.sampleInto(dst)
	}
	for i := range dst {
		p, err := s.Next()
		if err != nil {
			return i, err
		}
		dst[i] = p
	}
	return len(dst), nil
}

// batchSampler is a sampler with its own batch loop, run by
// SampleInto in place of per-sample Next calls.
type batchSampler interface {
	sampleInto(dst []geom.Pair) (int, error)
}

// fillBatch is the batch loop: it fills dst with accepted trials,
// giving each sample the rejection budget, and adds the batch's wall
// time to *sampleTime once. try reports an error only when no trial
// can succeed.
func fillBatch(dst []geom.Pair, budget int, sampleTime *time.Duration, try func() (geom.Pair, bool, error)) (n int, err error) {
	start := time.Now()
fill:
	for n < len(dst) {
		for attempt := 0; attempt < budget; attempt++ {
			p, ok, terr := try()
			if terr != nil {
				err = terr
				break fill
			}
			if ok {
				dst[n] = p
				n++
				continue fill
			}
		}
		err = ErrLowAcceptance
		break
	}
	*sampleTime += time.Since(start)
	return n, err
}

// sampleN implements Sample(t) on top of SampleInto for every sampler;
// b is nil for samplers without a base (they sample with replacement).
func sampleN(s Sampler, b *base, t int) ([]geom.Pair, error) {
	if t < 0 {
		return nil, fmt.Errorf("core: negative sample count %d", t)
	}
	out := make([]geom.Pair, t)
	n, err := SampleInto(s, out)
	// Without replacement, exhausting J surfaces as a rejection-budget
	// error; return what we have.
	if b != nil && b.cfg.WithoutReplacement && errors.Is(err, ErrLowAcceptance) && n > 0 {
		err = nil
	}
	return out[:n], err
}

// accept applies the without-replacement filter; it returns false when
// the pair was already emitted and must be rejected.
func (b *base) accept(p geom.Pair) bool {
	if b.seen == nil {
		return true
	}
	k := pairKey(p)
	if _, dup := b.seen[k]; dup {
		return false
	}
	b.seen[k] = struct{}{}
	return true
}

// timed runs fn and adds its wall time to *d.
func timed(d *time.Duration, fn func()) {
	start := time.Now()
	fn()
	*d += time.Since(start)
}
