package core

import (
	"repro/internal/geom"
	"repro/internal/join"
)

// JoinSample is the strawman the paper's introduction rules out: run
// the full spatial range join, materialize J, and sample from it.
// Exact and trivially uniform, but Θ(|J|) time and space — it exists
// as a correctness oracle and as the scale reference in benchmarks.
type JoinSample struct {
	*base
	joined []geom.Pair
}

// NewJoinSample builds the join-then-sample strawman over R and S.
func NewJoinSample(R, S []geom.Point, cfg Config) (*JoinSample, error) {
	b, err := newBase("JoinSample", R, S, cfg)
	if err != nil {
		return nil, err
	}
	return &JoinSample{base: b}, nil
}

// Preprocess is a no-op; the strawman has no offline structure.
func (j *JoinSample) Preprocess() error {
	if j.state < phasePreprocessed {
		j.state = phasePreprocessed
	}
	return j.err
}

// Build materializes the full join via plane sweep; its cost is the
// Θ(|J|) the sampling algorithms avoid. Timed as GM for comparison.
func (j *JoinSample) Build() error {
	if err := ensure(j, j.base, phasePreprocessed); err != nil {
		return err
	}
	if j.state >= phaseBuilt {
		return j.err
	}
	timed(&j.stats.GridMapTime, func() {
		j.joined = join.Materialize(j.R, j.S, j.cfg.HalfExtent)
	})
	j.state = phaseBuilt
	return nil
}

// Count only checks emptiness; the materialized join needs no alias.
func (j *JoinSample) Count() error {
	if err := ensure(j, j.base, phaseBuilt); err != nil {
		return err
	}
	if j.state >= phaseCounted {
		return j.err
	}
	j.stats.MuSum = float64(len(j.joined))
	if len(j.joined) == 0 {
		j.err = ErrEmptyJoin
		return j.err
	}
	j.state = phaseCounted
	return nil
}

// Next draws one uniform sample from the materialized join.
func (j *JoinSample) Next() (geom.Pair, error) {
	if err := ensure(j, j.base, phaseCounted); err != nil {
		return geom.Pair{}, err
	}
	var out geom.Pair
	var err error
	timed(&j.stats.SampleTime, func() {
		for attempt := 0; attempt < j.cfg.maxRejects(); attempt++ {
			if p, ok := j.tryOnce(); ok {
				out = p
				return
			}
		}
		err = ErrLowAcceptance
	})
	return out, err
}

// tryOnce is one sampling iteration over the materialized join.
func (j *JoinSample) tryOnce() (geom.Pair, bool) {
	j.stats.Iterations++
	p := j.joined[j.rng.Intn(len(j.joined))]
	if !j.accept(p) {
		return geom.Pair{}, false
	}
	j.stats.Samples++
	return p, true
}

// Sample draws t samples via Next.
func (j *JoinSample) Sample(t int) ([]geom.Pair, error) { return sampleN(j, j.base, t) }

// SizeBytes reports the Θ(|J|) footprint of the materialized join.
func (j *JoinSample) SizeBytes() int { return 48 * len(j.joined) }

// JoinSize exposes |J| after Build; the harness uses it to report the
// approximation ratio Σµ/|J|.
func (j *JoinSample) JoinSize() int { return len(j.joined) }

var _ Sampler = (*JoinSample)(nil)
var _ Cloner = (*JoinSample)(nil)

// Clone prepares the sampler and returns an independent handle over
// the same materialized join for concurrent sampling.
func (j *JoinSample) Clone() (Sampler, error) {
	if err := ensure(j, j.base, phaseCounted); err != nil {
		return nil, err
	}
	nb, err := j.base.cloneBase()
	if err != nil {
		return nil, err
	}
	return &JoinSample{base: nb, joined: j.joined}, nil
}
