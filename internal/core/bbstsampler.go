package core

import (
	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/rng"
)

// bbstCorner adapts a cell's BBST pair to the cornerIndex interface.
type bbstCorner struct {
	pair    *bbst.Pair
	scratch bbst.Scratch
}

func (b *bbstCorner) mu(c bbst.Corner, w geom.Rect) int {
	return b.pair.MuS(c, w, &b.scratch)
}

func (b *bbstCorner) sample(c bbst.Corner, w geom.Rect, r *rng.RNG) (geom.Point, bool) {
	return b.pair.SampleSlotS(c, w, r, &b.scratch)
}

func (b *bbstCorner) sizeBytes() int { return b.pair.SizeBytes() + b.pair.SizeBytesFC() }

func (b *bbstCorner) clone() cornerIndex { return &bbstCorner{pair: b.pair} }

// BBSTSampler is the paper's proposed algorithm (Section IV,
// Algorithm 1): grid mapping converts the 4-sided window into at most
// 2-sided per-cell queries; cases 1–2 are counted and sampled exactly
// via sorted arrays, and the 2-sided corners use two Bucket-based
// Binary Search Trees per cell, giving Õ(1)-approximate counting and
// Õ(1) expected-time sampling. The end-to-end expected running time
// for t samples is Õ(n + m + t) with O(n + m) space.
type BBSTSampler struct {
	gridSampler
}

// NewBBST builds the proposed sampler over R and S.
func NewBBST(R, S []geom.Point, cfg Config) (*BBSTSampler, error) {
	b, err := newBase("BBST", R, S, cfg)
	if err != nil {
		return nil, err
	}
	s := &BBSTSampler{gridSampler{base: b}}
	s.newCorner = func(cellPoints []geom.Point, m int) cornerIndex {
		cap := cfg.BucketCap
		if cap == 0 {
			cap = bbst.BucketCap(m)
		}
		pair, err := bbst.Build(cellPoints, cap)
		if err != nil {
			// Cell points come from the grid pre-sorted by x and the
			// capacity is >= 1, so Build cannot fail here.
			panic("core: bbst build failed: " + err.Error())
		}
		if cfg.FractionalCascading {
			pair.EnableFractionalCascading()
		}
		return &bbstCorner{pair: pair}
	}
	return s, nil
}

// Next draws one uniform independent join sample.
func (s *BBSTSampler) Next() (geom.Pair, error) { return s.next(s) }

// Sample draws t samples via Next.
func (s *BBSTSampler) Sample(t int) ([]geom.Pair, error) { return sampleN(s, s.base, t) }

// SizeBytes reports the pipeline footprint.
func (s *BBSTSampler) SizeBytes() int { return s.sizeBytes() }

// Clone prepares the sampler and returns an independent handle over
// the same grid/BBST/alias structures for concurrent sampling.
func (s *BBSTSampler) Clone() (Sampler, error) {
	gs, err := s.cloneGrid(s)
	if err != nil {
		return nil, err
	}
	return &BBSTSampler{gs}, nil
}

var (
	_ Sampler = (*BBSTSampler)(nil)
	_ Cloner  = (*BBSTSampler)(nil)
)
