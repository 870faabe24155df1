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

// NewJoinSample builds the join-then-sample strawman over R and S. It
// has no offline phase; its phases are the materialized join (timed as
// GM for comparison) and the emptiness check (UB).
func NewJoinSample(R, S []geom.Point, cfg Config) (*JoinSample, error) {
	b, err := newBase("JoinSample", R, S, cfg)
	if err != nil {
		return nil, err
	}
	j := &JoinSample{base: b}
	b.bodies = phaseBodies{nil, j.build, j.count}
	return j, nil
}

// build materializes the full join via plane sweep; its cost is the
// Θ(|J|) the sampling algorithms avoid.
func (j *JoinSample) build() error {
	j.joined = join.Materialize(j.R, j.S, j.cfg.HalfExtent)
	return nil
}

// count only checks emptiness; the materialized join needs no alias.
func (j *JoinSample) count() error {
	j.stats.MuSum = float64(len(j.joined))
	if len(j.joined) == 0 {
		return ErrEmptyJoin
	}
	return nil
}

// Next draws one uniform sample from the materialized join.
func (j *JoinSample) Next() (geom.Pair, error) { return j.next(j.trial) }

// trial is one sampling iteration over the materialized join.
func (j *JoinSample) trial() (geom.Pair, bool) {
	return j.joined[j.rng.Intn(len(j.joined))], true
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
	nb, err := j.cloneBase()
	if err != nil {
		return nil, err
	}
	return &JoinSample{base: nb, joined: j.joined}, nil
}
