// Package aggregate provides online-aggregation estimators over join
// samples — the downstream machinery for the applications that
// motivate the paper (approximate aggregation, density visualization,
// and cardinality estimation). All estimators consume uniform,
// independent samples progressively and report running confidence
// intervals, so callers can stop as soon as the interval is tight
// enough (the whole point of sampling instead of joining).
package aggregate

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
)

// Mean is a running mean/variance estimator (Welford's algorithm)
// over a numeric measure of join pairs.
type Mean struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (m *Mean) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Count returns the number of observations.
func (m *Mean) Count() uint64 { return m.n }

// Estimate returns the running mean and its 95% confidence half-width
// (0 until two observations exist).
func (m *Mean) Estimate() (mean, ci float64) {
	if m.n < 2 {
		return m.mean, 0
	}
	variance := m.m2 / float64(m.n-1)
	return m.mean, 1.96 * math.Sqrt(variance/float64(m.n))
}

// Proportion estimates the fraction of join pairs satisfying a
// predicate, with a normal-approximation confidence interval.
type Proportion struct {
	n, hits uint64
}

// Add incorporates one observation.
func (p *Proportion) Add(hit bool) {
	p.n++
	if hit {
		p.hits++
	}
}

// Count returns the number of observations.
func (p *Proportion) Count() uint64 { return p.n }

// Estimate returns the running fraction and its 95% confidence
// half-width.
func (p *Proportion) Estimate() (frac, ci float64) {
	if p.n == 0 {
		return 0, 0
	}
	f := float64(p.hits) / float64(p.n)
	return f, 1.96 * math.Sqrt(f*(1-f)/float64(p.n))
}

// Sum estimates the join-wide SUM of a measure: mean x |J|. It needs
// the join size (exact or estimated, e.g. from JoinSizeEstimate).
type Sum struct {
	Mean
	JoinSize float64
}

// Estimate returns the estimated SUM over all of J with a 95%
// confidence half-width.
func (s *Sum) Estimate() (sum, ci float64) {
	m, c := s.Mean.Estimate()
	return m * s.JoinSize, c * s.JoinSize
}

// JoinSizeEstimate derives an unbiased estimate of |J| from a
// sampler's statistics: the acceptance rate times the known
// upper-bound mass Σµ. Exact-counting algorithms (KDS) return Σµ
// itself, which equals |J|.
func JoinSizeEstimate(st core.Stats) float64 {
	if st.Iterations == 0 {
		return 0
	}
	return float64(st.Samples) / float64(st.Iterations) * st.MuSum
}

// Histogram is a 2-D density histogram over a rectangular domain,
// used for (kernel-free) density visualization of join results from
// samples.
type Histogram struct {
	domain geom.Rect
	w, h   int
	bins   []float64
	total  float64
}

// NewHistogram creates a w x h histogram over the domain.
func NewHistogram(domain geom.Rect, w, h int) (*Histogram, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("aggregate: histogram dimensions must be positive, got %dx%d", w, h)
	}
	if domain.Empty() || domain.Area() == 0 {
		return nil, fmt.Errorf("aggregate: histogram domain must have positive area")
	}
	return &Histogram{domain: domain, w: w, h: h, bins: make([]float64, w*h)}, nil
}

// binIndex maps a coordinate to its bin, clamping to the border.
func (h *Histogram) binIndex(x, y float64) int {
	cx := int((x - h.domain.XMin) / h.domain.Width() * float64(h.w))
	cy := int((y - h.domain.YMin) / h.domain.Height() * float64(h.h))
	if cx < 0 {
		cx = 0
	}
	if cx >= h.w {
		cx = h.w - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= h.h {
		cy = h.h - 1
	}
	return cy*h.w + cx
}

// AddPoint accumulates a point observation.
func (h *Histogram) AddPoint(x, y float64) {
	h.bins[h.binIndex(x, y)]++
	h.total++
}

// AddPair accumulates a join pair at its midpoint.
func (h *Histogram) AddPair(p geom.Pair) {
	h.AddPoint((p.R.X+p.S.X)/2, (p.R.Y+p.S.Y)/2)
}

// Total returns the number of accumulated observations.
func (h *Histogram) Total() float64 { return h.total }

// At returns the raw count of bin (x, y).
func (h *Histogram) At(x, y int) float64 { return h.bins[y*h.w+x] }

// Correlation computes the Pearson correlation of two histograms of
// the same shape: ~1 when the sampled density matches the reference.
func (h *Histogram) Correlation(o *Histogram) (float64, error) {
	if h.w != o.w || h.h != o.h {
		return 0, fmt.Errorf("aggregate: histogram shapes differ (%dx%d vs %dx%d)", h.w, h.h, o.w, o.h)
	}
	n := float64(len(h.bins))
	var sa, sb, saa, sbb, sab float64
	for i := range h.bins {
		a, b := h.bins[i], o.bins[i]
		sa += a
		sb += b
		saa += a * a
		sbb += b * b
		sab += a * b
	}
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va == 0 || vb == 0 {
		return 0, fmt.Errorf("aggregate: constant histogram has no correlation")
	}
	return (sab/n - sa/n*sb/n) / math.Sqrt(va*vb), nil
}

// Render draws the histogram as ASCII art (log-scaled shading,
// north up) for terminal visualization.
func (h *Histogram) Render() string {
	shades := []rune(" .:-=+*#%@")
	max := 0.0
	for _, v := range h.bins {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for y := h.h - 1; y >= 0; y-- {
		for x := 0; x < h.w; x++ {
			level := 0
			if max > 0 {
				level = int(math.Log1p(h.At(x, y)) / math.Log1p(max) * float64(len(shades)-1))
			}
			b.WriteRune(shades[level])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
