package core

import (
	"repro/internal/alias"
	"repro/internal/geom"
	"repro/internal/kdtree"
)

// KDS is the first baseline (Section III-A): it range-counts
// |S(w(r))| exactly for every r ∈ R (O(n sqrt m)), builds a Walker
// alias over the counts, and then draws each join sample by one alias
// draw plus one O(sqrt m) independent range sample — every iteration
// accepts.
type KDS struct {
	*base
	tree    *kdtree.Tree // shared by clones
	scratch kdtree.Scratch
	tab     *alias.Table
}

// NewKDS builds the baseline-1 sampler over R and S. Its phases are
// the kd-tree over S (offline) and the exact counting (UB); it has no
// grid, so GridMapTime reads 0.
func NewKDS(R, S []geom.Point, cfg Config) (*KDS, error) {
	b, err := newBase("KDS", R, S, cfg)
	if err != nil {
		return nil, err
	}
	k := &KDS{base: b}
	b.bodies = phaseBodies{k.preprocess, nil, k.count}
	return k, nil
}

// preprocess builds the kd-tree over S (the offline phase of
// Table II).
func (k *KDS) preprocess() error {
	k.tree = kdtree.New(k.S)
	return nil
}

// count runs the exact range counting over all of R and builds the
// alias (steps 1–2 of the baseline).
func (k *KDS) count() error {
	weights := make([]float64, len(k.R))
	total := 0.0
	for i, r := range k.R {
		c := float64(k.tree.Count(k.window(r)))
		weights[i] = c
		total += c
	}
	k.stats.MuSum = total
	if total == 0 {
		return ErrEmptyJoin
	}
	var err error
	k.tab, err = alias.New(weights)
	return err
}

// Next draws one join sample: alias-weighted r, then a uniform
// in-window s. For KDS the counts are exact, so every iteration
// accepts (modulo the without-replacement filter).
func (k *KDS) Next() (geom.Pair, error) { return k.next(k.trial) }

// trial is one sampling iteration: alias-weighted r, uniform
// in-window s. Exact counts mean the kd-tree always finds one.
func (k *KDS) trial() (geom.Pair, bool) {
	r := k.R[k.tab.Sample(k.rng)]
	s, _, ok := k.tree.Sample(k.window(r), k.rng, &k.scratch)
	return geom.Pair{R: r, S: s}, ok
}

// Sample draws t samples via Next.
func (k *KDS) Sample(t int) ([]geom.Pair, error) { return sampleN(k, k.base, t) }

// SizeBytes reports kd-tree + alias footprint.
func (k *KDS) SizeBytes() int {
	total := k.tree.SizeBytes()
	if k.tab != nil {
		total += k.tab.SizeBytes()
	}
	return total
}

var _ Sampler = (*KDS)(nil)
var _ Cloner = (*KDS)(nil)

// Clone prepares the sampler and returns an independent handle over
// the same kd-tree and alias, with scratch of its own, for concurrent
// sampling.
func (k *KDS) Clone() (Sampler, error) {
	nb, err := k.cloneBase()
	if err != nil {
		return nil, err
	}
	return &KDS{base: nb, tree: k.tree, tab: k.tab}, nil
}
