package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/geom"
)

// Cloner is implemented by samplers that can produce an independent
// handle over the same immutable structures: the clone shares the
// grid/index/alias state (read-only after Count) but has its own
// random stream, scratch buffers, and statistics. Clones may be used
// concurrently with each other and with the parent.
type Cloner interface {
	Sampler
	// Clone prepares the sampler through Count and returns the
	// independent handle. Not supported with WithoutReplacement (the
	// duplicate filter would need cross-clone coordination).
	Clone() (Sampler, error)
}

// ErrNoParallelWithoutReplacement rejects parallel sampling when the
// duplicate filter is on.
var ErrNoParallelWithoutReplacement = errors.New(
	"core: parallel sampling is not supported with WithoutReplacement")

// cloneBase derives the shared part of a clone: same configuration
// and data, split random stream, already-counted state, and fresh
// counters that keep the shared structures' Σµ, so a clone's Stats
// feed aggregate.JoinSizeEstimate like the parent's.
func (b *base) cloneBase() (*base, error) {
	if b.cfg.WithoutReplacement {
		return nil, ErrNoParallelWithoutReplacement
	}
	return &base{
		name:  b.name,
		cfg:   b.cfg,
		R:     b.R,
		S:     b.S,
		rng:   b.rng.Split(),
		stats: Stats{MuSum: b.stats.MuSum},
		state: b.state,
		err:   b.err,
	}, nil
}

// ParallelSample draws t uniform independent join samples using the
// given number of worker goroutines, each on its own clone. Output
// order interleaves worker outputs deterministically (worker-major),
// and every sample remains uniform and independent because the worker
// streams are independent splits of the parent stream.
func ParallelSample(s Cloner, t, workers int) ([]geom.Pair, error) {
	if t < 0 {
		return nil, fmt.Errorf("core: negative sample count %d", t)
	}
	if workers < 1 {
		return nil, fmt.Errorf("core: need at least one worker, got %d", workers)
	}
	if workers > t {
		workers = t
	}
	if t == 0 {
		return nil, nil
	}
	// Prepare the shared structures once, in the parent.
	clones := make([]Sampler, workers)
	for i := range clones {
		c, err := s.Clone()
		if err != nil {
			return nil, err
		}
		clones[i] = c
	}
	type result struct {
		pairs []geom.Pair
		err   error
	}
	results := make([]result, workers)
	per := t / workers
	extra := t % workers
	var wg sync.WaitGroup
	for i := range clones {
		quota := per
		if i < extra {
			quota++
		}
		wg.Add(1)
		go func(i, quota int) {
			defer wg.Done()
			pairs, err := clones[i].Sample(quota)
			results[i] = result{pairs: pairs, err: err}
		}(i, quota)
	}
	wg.Wait()
	out := make([]geom.Pair, 0, t)
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.pairs...)
	}
	return out, nil
}
