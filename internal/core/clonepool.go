package core

import (
	"fmt"
	"sync"

	"repro/internal/rng"
)

// Reseed reinitializes the sampler's random stream in place and
// empties its without-replacement filter, so it draws what a fresh
// sampler with that seed would (the Reseeder contract). ClonePool
// calls it on every checkout so that the samples a request draws
// depend only on the pool's seed and the checkout order — never on
// which recycled clone happens to serve the request. Every sampler
// embeds *base, so every clone implements it.
func (b *base) Reseed(seed uint64) {
	b.rng.Reseed(seed)
	clear(b.seen)
}

// ClonePool is a concurrency-safe pool of sampler clones over one
// prepared parent. The parent's structures (grid, per-cell corner
// structures, spatial trees, alias tables) are built exactly once — in
// NewClonePool — and every clone shares them read-only, copying none
// of them; each clone only owns its scratch buffers (one set per
// handle, not per cell), statistics, and a random stream. Get and Put
// may be called from any number of goroutines.
//
// On every checkout the clone's stream is reseeded from the pool's
// seed sequence, so request streams stay uniform and independent of
// each other, and a single-goroutine request sequence is reproducible
// across runs of a pool with the same seed.
//
// Idle clones wait in a slice under the pool's mutex, not in a
// sync.Pool. The runtime keeps a sync.Pool's contents reachable until
// the second garbage collection after its last use, and an idle clone
// reaches the parent's structures, so a dropped engine's structures
// would survive the first collection after it: under a registry's
// memory budget, an evicted engine would still hold its memory while
// its replacement is built. The slice holds at most as many clones
// as were ever checked out at once, and keeps them, with whatever
// scratch they grew, for the life of the pool: after a burst of n
// concurrent checkouts a long-lived pool holds n clones. That
// retention is accepted, and no size estimate charges for it: each
// clone owns only its scratch and stream, bounded by the largest
// request it served, and it all goes with the pool when its engine
// is dropped.
type ClonePool struct {
	parent Cloner

	mu   sync.Mutex // guards seq, idle and parent.Clone (which advances RNG state)
	seq  *rng.RNG   // per-checkout seed sequence
	idle []Sampler  // clones returned by Put, ready for reuse
}

// NewClonePool prepares parent through Count (building every shared
// structure) and returns a pool serving clones of it. Construction
// surfaces data-dependent errors immediately — most notably
// ErrEmptyJoin when the join is provably empty — rather than on the
// first request. Sampling without replacement is not poolable (the
// duplicate filter would need cross-clone coordination) and is
// rejected here, as ErrNoParallelWithoutReplacement.
func NewClonePool(parent Cloner, seed uint64) (*ClonePool, error) {
	first, err := parent.Clone()
	if err != nil {
		return nil, err
	}
	if _, ok := first.(Reseeder); !ok {
		return nil, fmt.Errorf("core: %s clones do not support reseeding", parent.Name())
	}
	return &ClonePool{parent: parent, seq: rng.New(seed), idle: []Sampler{first}}, nil
}

// idleOrCloneLocked returns an idle clone, or creates one (Clone
// advances the parent's RNG state, hence the lock). The returned
// clone still carries its previous stream; callers reseed it.
func (p *ClonePool) idleOrCloneLocked() (Sampler, error) {
	n := len(p.idle)
	if n == 0 {
		return p.parent.Clone()
	}
	s := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return s, nil
}

// Get checks a clone out of the pool — creating one when no idle clone
// is available — and gives it a fresh independent random stream.
// Exactly one seed is consumed from the pool's sequence per call,
// whether or not a clone had to be created.
func (p *ClonePool) Get() (Sampler, error) {
	p.mu.Lock()
	s, err := p.idleOrCloneLocked()
	seed := p.seq.Uint64()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.(Reseeder).Reseed(seed)
	return s, nil
}

// GetSeeded is Get with a caller-chosen stream seed: the checked-out
// clone is reseeded with seed instead of the pool's sequence, so two
// checkouts with equal seeds draw identical sample sequences — the
// determinism hook behind per-request seeds in the serving layer.
// Unlike Get, it consumes nothing from the pool's seed sequence, so
// seeded checkouts never perturb the reproducibility of the unseeded
// request stream interleaved with them.
func (p *ClonePool) GetSeeded(seed uint64) (Sampler, error) {
	p.mu.Lock()
	s, err := p.idleOrCloneLocked()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.(Reseeder).Reseed(seed)
	return s, nil
}

// Put returns a clone obtained from Get to the pool for reuse. The
// caller must not use s afterwards.
func (p *ClonePool) Put(s Sampler) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.idle = append(p.idle, s)
	p.mu.Unlock()
}

// Warm pre-populates the pool with n idle clones so that the first n
// concurrent checkouts pay no construction cost.
func (p *ClonePool) Warm(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < n; i++ {
		c, err := p.parent.Clone()
		if err != nil {
			return err
		}
		p.idle = append(p.idle, c)
	}
	return nil
}
