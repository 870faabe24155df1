package core

import (
	"repro/internal/alias"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
)

// KDSRejection is the second baseline (Section III-B). It replaces
// baseline 1's O(n sqrt m) exact counting with O(n) grid upper bounds
// µ(r) = Σ |S(c)| over the nine cells overlapping w(r), then corrects
// the bias by rejection: a candidate (r, s) drawn via the kd-tree is
// accepted with probability |S(w(r))| / µ(r). Because the grid bound
// has no approximation guarantee, the acceptance probability — and
// with it the sampling phase — can degrade badly; that observation
// motivates the BBST.
type KDSRejection struct {
	*base
	tree    *kdtree.Tree // shared by clones
	scratch kdtree.Scratch
	g       *grid.Grid
	tab     *alias.Table
	mu      []float64
}

// NewKDSRejection builds the baseline-2 sampler over R and S.
func NewKDSRejection(R, S []geom.Point, cfg Config) (*KDSRejection, error) {
	b, err := newBase("KDS-rejection", R, S, cfg)
	if err != nil {
		return nil, err
	}
	return &KDSRejection{base: b}, nil
}

// Preprocess builds the kd-tree over S offline (shared with KDS, as
// in Table II).
func (k *KDSRejection) Preprocess() error {
	if k.state >= phasePreprocessed {
		return k.err
	}
	timed(&k.stats.PreprocessTime, func() {
		k.tree = kdtree.New(k.S)
	})
	k.state = phasePreprocessed
	return nil
}

// Build maps S onto the grid (GM). The grid cannot be built offline
// because the cell side equals the query's half extent.
func (k *KDSRejection) Build() error {
	if err := ensure(k, k.base, phasePreprocessed); err != nil {
		return err
	}
	if k.state >= phaseBuilt {
		return k.err
	}
	var buildErr error
	timed(&k.stats.GridMapTime, func() {
		k.g, buildErr = grid.BuildWorkers(k.S, k.cfg.HalfExtent, k.cfg.Workers)
	})
	if buildErr != nil {
		k.err = buildErr
		return buildErr
	}
	k.state = phaseBuilt
	return nil
}

// Count computes µ(r) for every r in O(1) each — the sum of the nine
// overlapping cell sizes — and builds the alias over µ (UB).
func (k *KDSRejection) Count() error {
	if err := ensure(k, k.base, phaseBuilt); err != nil {
		return err
	}
	if k.state >= phaseCounted {
		return k.err
	}
	var buildErr error
	timed(&k.stats.UpperBoundTime, func() {
		k.mu = make([]float64, len(k.R))
		total := 0.0
		var nb [grid.NumDirections]*grid.Cell
		for i, r := range k.R {
			k.g.Neighborhood(r, &nb)
			m := 0
			for _, c := range &nb {
				if c != nil {
					m += c.Len()
				}
			}
			k.mu[i] = float64(m)
			total += float64(m)
		}
		k.stats.MuSum = total
		if total == 0 {
			buildErr = ErrEmptyJoin
			return
		}
		k.tab, buildErr = alias.New(k.mu)
	})
	if buildErr != nil {
		k.err = buildErr
		return buildErr
	}
	k.state = phaseCounted
	return nil
}

// Next draws one join sample: alias-weighted r by µ(r), kd-tree
// sample s with exact count |S(w(r))|, accepted with probability
// |S(w(r))|/µ(r). Acceptance keeps every pair at probability 1/Σµ,
// so accepted samples are uniform and independent.
func (k *KDSRejection) Next() (geom.Pair, error) {
	if err := ensure(k, k.base, phaseCounted); err != nil {
		return geom.Pair{}, err
	}
	var out geom.Pair
	var err error
	timed(&k.stats.SampleTime, func() {
		for attempt := 0; attempt < k.cfg.maxRejects(); attempt++ {
			k.stats.Iterations++
			ri := k.tab.Sample(k.rng)
			r := k.R[ri]
			s, count, ok := k.tree.Sample(k.window(r), k.rng, &k.scratch)
			if !ok {
				continue // |S(w(r))| == 0: reject
			}
			// Accept with probability count/µ(r); µ >= count by
			// construction (the window is inside the nine cells).
			if k.rng.Float64()*k.mu[ri] >= float64(count) {
				continue
			}
			p := geom.Pair{R: r, S: s}
			if !k.accept(p) {
				continue
			}
			k.stats.Samples++
			out = p
			return
		}
		err = ErrLowAcceptance
	})
	return out, err
}

// Sample draws t samples via Next.
func (k *KDSRejection) Sample(t int) ([]geom.Pair, error) { return sampleN(k, k.base, t) }

// SizeBytes reports kd-tree + grid + alias footprint.
func (k *KDSRejection) SizeBytes() int {
	total := k.tree.SizeBytes()
	if k.g != nil {
		total += k.g.SizeBytes()
	}
	if k.tab != nil {
		total += k.tab.SizeBytes()
	}
	total += 8 * len(k.mu)
	return total
}

var _ Sampler = (*KDSRejection)(nil)
var _ Cloner = (*KDSRejection)(nil)

// Clone prepares the sampler and returns an independent handle over
// the same kd-tree, grid, and alias, with scratch of its own, for
// concurrent sampling.
func (k *KDSRejection) Clone() (Sampler, error) {
	if err := ensure(k, k.base, phaseCounted); err != nil {
		return nil, err
	}
	nb, err := k.base.cloneBase()
	if err != nil {
		return nil, err
	}
	return &KDSRejection{base: nb, tree: k.tree, g: k.g, tab: k.tab, mu: k.mu}, nil
}
