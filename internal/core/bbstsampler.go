package core

import (
	"repro/internal/bbst"
	"repro/internal/geom"
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
// at most T points answers its corners by scanning its run (scanRun),
// a larger one through its BBST pair. Chosen by BenchmarkScanThreshold's
// sweep at 25k and 200k points per side.
const defaultScanC = 2

// scanMax returns the scan threshold T = ⌊c·⌈log₂ m⌉⌋ for m S points,
// ⌈log₂ m⌉ being Definition 3's bucket capacity (at least 1). It does
// not depend on Config.BucketCap: b only shapes the cells above T.
func scanMax(c float64, m int) int { return int(c * float64(bbst.BucketCap(m))) }

// cellCorner builds one S cell's case-3 structure over its x-sorted
// run, m being the S count the cell is built for. It is the one rule
// the frozen build and the mutable index share: a run of at most
// T = scanMax(scanC, m) points gets none (nil), and its corners are
// answered by scanning the run, which the cell already holds; a longer
// one gets a BBST pair with bucket capacity b = bucketCap, or
// Definition 3's ⌈log₂ m⌉ when that is 0. The pair's buckets share the
// run's points, so the run must never be written after.
func cellCorner(run []geom.Point, m int, scanC float64, bucketCap int) (cornerIndex, error) {
	if len(run) <= scanMax(scanC, m) {
		return nil, nil
	}
	if bucketCap == 0 {
		bucketCap = bbst.BucketCap(m)
	}
	pair, err := bbst.Build(run, bucketCap)
	if err != nil {
		return nil, err
	}
	return bbstCorner{pair: pair}, nil
}

// scanRun answers a scan cell's corners exactly in O(T) = O(log m), the
// paper's per-trial bound: it walks pts, the cell's x-sorted run, from
// the end that corner q's x side keeps, the west corners' x >= w.XMin
// a suffix and the east corners' x <= w.XMax a prefix, until that side
// fails, and counts the points inside w; it stops early at point j of
// them (never for j < 0), which it returns with ok. Every point inside
// w passes the x side, so the count is exact for any window; for a
// corner cell, which lies beyond two sides of w, it is the corner's
// 2-sided count.
func scanRun(pts []geom.Point, q bbst.Corner, w geom.Rect, j int) (n int, p geom.Point, ok bool) {
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
// cell of at most T points is scanned instead (scanRun), which is
// exact and costs O(log m). The end-to-end expected running time for t
// samples is Õ(n + m + t) with O(n + m) space. Its one offline step in
// the paper, sorting S by x, is done per cell by the grid mapping
// instead, so it has no offline phase: PreprocessTime stays 0 and
// GridMapTime counts the sorts.
type BBSTSampler struct {
	gridSampler
}

// NewBBST builds the proposed sampler over R and S.
func NewBBST(R, S []geom.Point, cfg Config) (*BBSTSampler, error) {
	b, err := newBase("BBST", R, S, cfg)
	if err != nil {
		return nil, err
	}
	s := &BBSTSampler{gridSampler{base: b, newCorner: cellCorner, scanC: defaultScanC}}
	s.bodies = phaseBodies{nil, s.build, s.count}
	return s, nil
}

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
