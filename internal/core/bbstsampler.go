package core

import (
	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rng"
)

// bbstCorner adapts a cell's BBST pair to the cornerIndex interface.
type bbstCorner struct{ pair *bbst.Pair }

func (b bbstCorner) mu(c bbst.Corner, w geom.Rect, sc *cornerScratch) int {
	return b.pair.Mu(c, w, &sc.bbst)
}

func (b bbstCorner) sample(c bbst.Corner, w geom.Rect, _ int32, r *rng.RNG, sc *cornerScratch) (geom.Point, bool) {
	return b.pair.SampleSlot(c, w, r, &sc.bbst)
}

func (b bbstCorner) sizeBytes() int { return b.pair.SizeBytes() }

// defaultScanC is c in the scan threshold T = c·⌈log₂ m⌉: an S cell of
// at most T points answers its corners by scanning (scanCorner), a
// larger one through its BBST pair. Chosen by BenchmarkScanThreshold's
// sweep at 25k and 200k points per side.
const defaultScanC = 2

// scanMax returns the scan threshold T = ⌊c·⌈log₂ m⌉⌋ for m S points,
// ⌈log₂ m⌉ being Definition 3's bucket capacity (at least 1). It does
// not depend on Config.BucketCap: b only shapes the cells above T.
func scanMax(c float64, m int) int { return int(c * float64(bbst.BucketCap(m))) }

// scanCorner answers the corners of a small cell exactly, by scanning
// the cell's x-sorted run, which the grid already holds: it has no
// structure of its own, so it charges no bytes. µ(r, d) is the exact
// count of the run's points inside w(r), and a draw returns the j-th
// of them for j uniform in [0, k), k being the count the trial's
// record holds. A scan costs O(T) = O(log m) per query, within the
// paper's per-trial bound.
type scanCorner struct{ cell *grid.Cell }

func (s scanCorner) mu(c bbst.Corner, w geom.Rect, _ *cornerScratch) int {
	return scanCount(s.cell, c, w)
}

func (s scanCorner) sample(c bbst.Corner, w geom.Rect, k int32, r *rng.RNG, _ *cornerScratch) (geom.Point, bool) {
	return scanPick(s.cell, c, w, r.Intn(int(k)))
}

func (s scanCorner) sizeBytes() int { return 0 }

// scanCount counts the points of c's x-sorted run inside w (scanRun).
func scanCount(c *grid.Cell, q bbst.Corner, w geom.Rect) int {
	n, _, _ := scanRun(c, q, w, -1)
	return n
}

// scanPick returns point j (from 0) of c's run inside w, in scanRun's
// order; ok is false when fewer than j+1 points are inside. The frozen
// and the mutable trial draw scan cells through it.
func scanPick(c *grid.Cell, q bbst.Corner, w geom.Rect, j int) (geom.Point, bool) {
	_, p, ok := scanRun(c, q, w, j)
	return p, ok
}

// scanRun walks c's x-sorted run from the end that corner q's x side
// keeps, the west corners' x >= w.XMin a suffix and the east corners'
// x <= w.XMax a prefix, until that side fails, and counts the points
// inside w; it stops early at point j of them (never for j < 0). Every
// point inside w passes the x side, so the count is exact for any
// window; for a corner cell, which lies beyond two sides of w, it is
// the corner's 2-sided count.
func scanRun(c *grid.Cell, q bbst.Corner, w geom.Rect, j int) (n int, p geom.Point, ok bool) {
	pts := c.XSorted
	west := q == bbst.SouthWest || q == bbst.NorthWest
	i, step := 0, 1
	if west {
		i, step = len(pts)-1, -1
	}
	for ; i >= 0 && i < len(pts); i += step {
		pt := pts[i]
		if west && pt.X < w.XMin || !west && pt.X > w.XMax {
			break
		}
		if w.Contains(pt) {
			if n == j {
				return n, pt, true
			}
			n++
		}
	}
	return n, geom.Point{}, false
}

// BBSTSampler is the paper's proposed algorithm (Section IV,
// Algorithm 1): grid mapping converts the 4-sided window into at most
// 2-sided per-cell queries; cases 1–2 are counted and sampled exactly
// via sorted arrays. The 2-sided corners of a cell holding more than
// T = c·⌈log₂ m⌉ points use two Bucket-based Binary Search Trees,
// giving Õ(1)-approximate counting and Õ(1) expected-time sampling; a
// cell of at most T points is scanned instead (scanCorner), which is
// exact and costs O(log m). The end-to-end expected running time for t
// samples is Õ(n + m + t) with O(n + m) space.
type BBSTSampler struct {
	gridSampler
}

// NewBBST builds the proposed sampler over R and S.
func NewBBST(R, S []geom.Point, cfg Config) (*BBSTSampler, error) {
	b, err := newBase("BBST", R, S, cfg)
	if err != nil {
		return nil, err
	}
	s := &BBSTSampler{gridSampler{base: b, scanC: defaultScanC}}
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
		return bbstCorner{pair: pair}
	}
	return s, nil
}

// Next draws one uniform independent join sample.
func (s *BBSTSampler) Next() (geom.Pair, error) { return s.next() }

// Sample draws t samples through the batch loop.
func (s *BBSTSampler) Sample(t int) ([]geom.Pair, error) { return sampleN(s, s.base, t) }

// SizeBytes reports the pipeline footprint.
func (s *BBSTSampler) SizeBytes() int { return s.sizeBytes() }

// Clone prepares the sampler and returns an independent handle over
// the same grid/BBST/alias structures for concurrent sampling.
func (s *BBSTSampler) Clone() (Sampler, error) {
	gs, err := s.cloneGrid()
	if err != nil {
		return nil, err
	}
	return &BBSTSampler{gs}, nil
}

var (
	_ Sampler = (*BBSTSampler)(nil)
	_ Cloner  = (*BBSTSampler)(nil)
)
