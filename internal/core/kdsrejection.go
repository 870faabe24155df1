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

// NewKDSRejection builds the baseline-2 sampler over R and S. Its
// phases are the kd-tree over S (offline, as for KDS in Table II), the
// grid over S (GM) and the grid upper bounds (UB).
func NewKDSRejection(R, S []geom.Point, cfg Config) (*KDSRejection, error) {
	b, err := newBase("KDS-rejection", R, S, cfg)
	if err != nil {
		return nil, err
	}
	k := &KDSRejection{base: b}
	b.bodies = phaseBodies{k.preprocess, k.build, k.count}
	return k, nil
}

// preprocess builds the kd-tree over S offline.
func (k *KDSRejection) preprocess() error {
	k.tree = kdtree.New(k.S)
	return nil
}

// build maps S onto the grid (GM). The grid cannot be built offline
// because the cell side equals the query's half extent.
func (k *KDSRejection) build() error {
	var err error
	k.g, err = grid.BuildWorkers(k.S, k.cfg.HalfExtent, k.cfg.Workers)
	return err
}

// count computes µ(r) for every r in O(1) each — the sum of the nine
// overlapping cell sizes, found by Grid.Block (one search per block
// row) and read off the grid's offsets — and builds the alias over µ
// (UB).
func (k *KDSRejection) count() error {
	k.mu = make([]float64, len(k.R))
	total := 0.0
	var nb [grid.NumDirections]int32
	for i, r := range k.R {
		k.g.Block(grid.KeyFor(r.X, r.Y, k.g.Side()), &nb)
		m := 0
		for _, ci := range nb {
			if ci >= 0 {
				m += k.g.CellLen(ci)
			}
		}
		k.mu[i] = float64(m)
		total += float64(m)
	}
	k.stats.MuSum = total
	if total == 0 {
		return ErrEmptyJoin
	}
	var err error
	k.tab, err = alias.New(k.mu)
	return err
}

// Next draws one join sample: alias-weighted r by µ(r), kd-tree
// sample s with exact count |S(w(r))|, accepted with probability
// |S(w(r))|/µ(r). Acceptance keeps every pair at probability 1/Σµ,
// so accepted samples are uniform and independent.
func (k *KDSRejection) Next() (geom.Pair, error) { return k.next(k.trial) }

// trial is one sampling iteration: r by µ(r), then the kd-tree's
// sample of S(w(r)), then the acceptance variate.
func (k *KDSRejection) trial() (geom.Pair, bool) {
	ri := k.tab.Sample(k.rng)
	r := k.R[ri]
	s, count, ok := k.tree.Sample(k.window(r), k.rng, &k.scratch)
	if !ok {
		return geom.Pair{}, false // |S(w(r))| == 0: reject
	}
	// Accept with probability count/µ(r); µ >= count by construction
	// (the window is inside the nine cells).
	return geom.Pair{R: r, S: s}, k.rng.Float64()*k.mu[ri] < float64(count)
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
	nb, err := k.cloneBase()
	if err != nil {
		return nil, err
	}
	return &KDSRejection{base: nb, tree: k.tree, g: k.g, tab: k.tab, mu: k.mu}, nil
}
