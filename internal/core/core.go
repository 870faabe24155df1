// Package core implements the join-sampling algorithms of "Random
// Sampling over Spatial Range Joins" (ICDE 2025):
//
//   - KDS           — baseline 1 (Section III-A): exact range counting on a
//     kd-tree, Walker alias over |S(w(r))|, KDS point sampling.
//   - KDSRejection  — baseline 2 (Section III-B): grid upper bounds µ(r),
//     alias over µ, kd-tree sampling with rejection.
//   - BBST          — the proposed algorithm (Section IV, Algorithm 1):
//     grid + two BBSTs per cell of more than T = 2⌈log₂ m⌉ points (an
//     exact scan of smaller cells), Õ(1) approximate counting and Õ(1)
//     expected-time sampling.
//   - GridKD        — the Fig. 9 ablation: the BBST pipeline with a
//     kd-tree per cell instead of the two BBSTs.
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
	// BucketCap overrides the BBST bucket capacity b, the per-cell
	// maximum bucket size under which bbst.Build balances each cell's
	// buckets (Definition 3 sets b = ceil(log2 m); the ablation
	// harness sweeps other values). 0 keeps the paper's choice. Only
	// the BBST sampler reads it.
	BucketCap int
	// Workers caps the goroutines, the caller included, that index
	// construction splits its per-cell work across (the grid mapping,
	// the corner builds and upper bounding, frozen or in NewMutable); 0
	// means GOMAXPROCS. The structures and every seeded draw are the
	// same for every value. The experiment harness sets 1, so its
	// phase timings compare like for like with the serial baselines.
	Workers int
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
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Stats captures the phase decomposition the paper reports: Table II
// times Preprocess; Table III decomposes GridMap (GM) and UpperBound
// (UB); Table IV reports SampleTime and Iterations. Each phase time is
// the wall time of that phase's one run (base.advance), failed runs
// included; a phase a sampler does not have reads 0.
type Stats struct {
	// PreprocessTime is the offline phase: the kd-tree of S for KDS
	// and KDS-rejection. BBST, GridKD and JoinSample have no offline
	// phase and read 0: the grid samplers' sort of S by x is done per
	// cell by the grid mapping, inside GridMapTime.
	PreprocessTime time.Duration
	// GridMapTime is GM: online data-structure building (for the grid
	// samplers, grid mapping with each cell's sorts, and the per-cell
	// corner structures).
	GridMapTime time.Duration
	// UpperBoundTime is UB: counting µ(r, d) in one batched pass per
	// grid cell of R (the 3×3 S block looked up once per cell, edge
	// counts by sweeps, corners per point), plus alias building. For
	// JoinSample it is Σµ = |J| and the emptiness check.
	UpperBoundTime time.Duration
	// SampleTime is the cumulative sampling-phase time. Samplers with
	// a batch loop (the grid samplers and Mutable) read the clock once
	// per SampleInto batch; Next is a batch of one, and the other
	// samplers time each Next call.
	SampleTime time.Duration

	Samples uint64 // accepted join samples returned so far
	// Iterations counts the sampling iterations up to the last sample
	// returned, rejections included. The samplers with a batch loop run
	// trials ahead in lane groups; those count once a sample behind them
	// is returned (or the rejection budget runs out).
	Iterations uint64
	MuSum      float64 // Σ_r µ(r): total weight of the alias over R
}

// Total returns the end-to-end time across all phases.
func (s Stats) Total() time.Duration {
	return s.PreprocessTime + s.GridMapTime + s.UpperBoundTime + s.SampleTime
}

// Sampler is the common interface of all join-sampling algorithms.
// Phases may be invoked explicitly (the experiment harness does, to
// time them separately) or implicitly: Next, Sample and Clone run any
// phase that has not happened yet. Each phase runs at most once, and
// a phase's error is returned by every later call. The lifecycle
// (Preprocess, Build, Count, Name, Stats) is base's, shared by every
// sampler here.
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

// phaseBodies holds a sampler's work for the phases after phaseNew:
// [0] Preprocess, [1] Build, [2] Count. A nil body is a phase the
// sampler does not have.
type phaseBodies [phaseCounted]func() error

// base is the one owner of every sampler's lifecycle: its data and
// configuration, random stream, Stats, without-replacement filter and
// phase state. Preprocess, Build and Count are base's, each advancing
// the state through the bodies the sampler's constructor registered;
// the samplers without a batch loop draw through base.next. A clone's
// base (cloneBase) starts counted and has no bodies, and so does a
// Mutable handle's.
type base struct {
	name   string
	cfg    Config
	R, S   []geom.Point
	rng    *rng.RNG
	stats  Stats
	state  phase
	err    error // sticky phase error (e.g. ErrEmptyJoin)
	bodies phaseBodies

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

// Preprocess runs the offline phase (Table II).
func (b *base) Preprocess() error { return b.advance(phasePreprocessed) }

// Build runs the phases through the online data-structure building
// (GM).
func (b *base) Build() error { return b.advance(phaseBuilt) }

// Count runs the phases through upper bounding (UB).
func (b *base) Count() error { return b.advance(phaseCounted) }

// advance runs each phase after the current one up to want, timing
// its body into the phase's Stats field; a failing body's error is
// sticky, and stops every later phase. Once the lifecycle ends
// (counted or failed) the bodies are dropped: they reach the sampler,
// and a sampler that reaches itself through its base is never
// finalized.
func (b *base) advance(want phase) error {
	for b.err == nil && b.state < want {
		p := b.state + 1
		if body := b.bodies[p-1]; body != nil {
			times := [...]*time.Duration{&b.stats.PreprocessTime, &b.stats.GridMapTime, &b.stats.UpperBoundTime}
			start := time.Now()
			b.err = body()
			*times[p-1] += time.Since(start)
		}
		if b.err == nil {
			b.state = p
		}
	}
	if b.err != nil || b.state == phaseCounted {
		b.bodies = phaseBodies{}
	}
	return b.err
}

// next is the per-sample loop of the samplers without a batch loop
// (KDS, KDS-rejection, JoinSample): it runs any phase still due, then
// trials until one yields a pair the without-replacement filter
// accepts, under the rejection budget. trial is one sampling
// iteration; ok is false when it rejects. The call's wall time is
// added to Stats.SampleTime.
func (b *base) next(trial func() (geom.Pair, bool)) (geom.Pair, error) {
	if err := b.advance(phaseCounted); err != nil {
		return geom.Pair{}, err
	}
	start := time.Now()
	defer func() { b.stats.SampleTime += time.Since(start) }()
	for range b.cfg.maxRejects() {
		b.stats.Iterations++
		if p, ok := trial(); ok && b.accept(p) {
			b.stats.Samples++
			return p, nil
		}
	}
	return geom.Pair{}, ErrLowAcceptance
}

// pairKey packs the two IDs for the without-replacement filter.
func pairKey(p geom.Pair) uint64 {
	return uint64(uint32(p.R.ID))<<32 | uint64(uint32(p.S.ID))
}

// window returns w(r).
func (b *base) window(r geom.Point) geom.Rect {
	return geom.Window(r, b.cfg.HalfExtent)
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

// laneN is the number of trials the sampling loop runs as one group,
// phase by phase across the group's lanes, so the chains of dependent
// loads of independent trials (alias, count record, cell row, cell,
// point or BBST nodes) overlap instead of running one after another.
// It and the phase order are part of the trial's use of the random
// stream.
const laneN = 8

// laneGroup is one handle's current group of laneN trials: each lane's
// candidate pair and whether it passed the window test. The last left
// lanes are not yet delivered: they are the handle's carry, which the
// next call delivers first, so a seeded stream does not depend on how
// it is cut into calls. behind counts the lanes taken since the last
// delivered pair, all of them failed trials, which Stats.Iterations
// does not hold yet. The zero value is empty.
type laneGroup struct {
	pair   [laneN]geom.Pair
	ok     [laneN]bool
	left   int
	behind int
}

// drawLanes is the sampling loop of the grid samplers and Mutable: it
// fills dst from lg's carry, then from fresh groups that run fills
// with laneN trials, taking the lanes in order; accept, when not nil,
// is the without-replacement filter, applied as a lane is delivered.
// Stats.Iterations counts the trials up to the last delivered pair, so
// the trials behind a carried pair count when it is delivered, and
// budget consecutive failures, counted across groups and calls, end
// the call with ErrLowAcceptance. The call's wall time is added to
// st.SampleTime once. run reports an error only when no trial can
// succeed.
func drawLanes(dst []geom.Pair, lg *laneGroup, budget int, st *Stats, run func(*laneGroup) error, accept func(geom.Pair) bool) (n int, err error) {
	start := time.Now()
	for n < len(dst) {
		if lg.left == 0 {
			if err = run(lg); err != nil {
				break
			}
			lg.left = laneN
		}
		i := laneN - lg.left
		lg.left--
		lg.behind++
		if lg.ok[i] && (accept == nil || accept(lg.pair[i])) {
			dst[n] = lg.pair[i]
			n++
			st.Samples++
			st.Iterations += uint64(lg.behind)
			lg.behind = 0
		} else if lg.behind >= budget {
			st.Iterations += uint64(lg.behind)
			lg.behind = 0
			err = ErrLowAcceptance
			break
		}
	}
	st.SampleTime += time.Since(start)
	return n, err
}

// sampleN implements Sample(t) on top of SampleInto for every sampler,
// b being s's base.
func sampleN(s Sampler, b *base, t int) ([]geom.Pair, error) {
	if t < 0 {
		return nil, fmt.Errorf("core: negative sample count %d", t)
	}
	out := make([]geom.Pair, t)
	n, err := SampleInto(s, out)
	// Without replacement, exhausting J surfaces as a rejection-budget
	// error; return what we have.
	if b.cfg.WithoutReplacement && errors.Is(err, ErrLowAcceptance) && n > 0 {
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
