package core

import (
	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/rng"
)

// kdCorner answers case-3 queries with a per-cell kd-tree: exact
// counting via Count and exact sampling via the KDS primitive. This is
// the variant the paper compares against in Fig. 9 to isolate the
// benefit of the BBST structure. Both queries use the full window
// w(r): the cell holds only its own points, and the two window sides
// the corner constraint leaves out lie outside the cell.
type kdCorner struct{ tree *kdtree.Tree }

func (k kdCorner) mu(_ bbst.Corner, w geom.Rect, _ *cornerScratch) int {
	return k.tree.Count(w)
}

func (k kdCorner) sample(_ bbst.Corner, w geom.Rect, _ int32, r *rng.RNG, sc *cornerScratch) (geom.Point, bool) {
	pt, _, ok := k.tree.Sample(w, r, &sc.kd)
	return pt, ok
}

func (k kdCorner) sizeBytes() int { return k.tree.SizeBytes() }

// newKDCorner builds a cell's kd-tree over its run: every cell, however
// small, so the scan threshold and the bucket capacity do not apply.
func newKDCorner(run []geom.Point, _ int, _ float64, _ int) (cornerIndex, error) {
	return kdCorner{tree: kdtree.New(run)}, nil
}

// GridKD is the Fig. 9 ablation of the proposed algorithm: the same
// grid pipeline (exact cases 1–2) but with one kd-tree per cell in
// place of the two BBSTs, sampled with KDS. Counting and sampling at
// the corners cost O(sqrt |S(c)|) instead of Õ(1); the paper reports
// BBST beating this variant by up to 12x.
type GridKD struct {
	gridSampler
}

// NewGridKD builds the kd-tree-per-cell variant over R and S.
func NewGridKD(R, S []geom.Point, cfg Config) (*GridKD, error) {
	b, err := newBase("GridKD", R, S, cfg)
	if err != nil {
		return nil, err
	}
	s := &GridKD{gridSampler{base: b, newCorner: newKDCorner}}
	s.bodies = phaseBodies{nil, s.build, s.count}
	return s, nil
}

// Clone prepares the sampler and returns an independent handle over
// the same grid/kd-tree/alias structures for concurrent sampling.
func (s *GridKD) Clone() (Sampler, error) {
	gs, err := s.cloneGrid()
	if err != nil {
		return nil, err
	}
	return &GridKD{gs}, nil
}

var (
	_ Sampler = (*GridKD)(nil)
	_ Cloner  = (*GridKD)(nil)
)
