package exp

import (
	"fmt"

	"repro/internal/bbst"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/stats"
)

// RunAblationBucketCap sweeps the BBST bucket capacity around the
// paper's b = ceil(log2 m) choice (Definition 3). Smaller buckets
// tighten µ (fewer spurious slots, higher acceptance) but multiply
// bucket count and tree size; larger buckets do the opposite. The
// table reports total time, Σµ/|J|, and iterations so the trade-off
// behind the paper's choice is visible.
func RunAblationBucketCap(scale Scale, factors []float64) (*Table, error) {
	if len(factors) == 0 {
		factors = []float64{0.25, 0.5, 1, 2, 4}
	}
	ws, err := scale.Workloads(0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: BBST bucket capacity (t = %d, l = %g)", scale.T, scale.L),
		Columns: []string{"dataset", "capacity", "factor", "total", "Σµ/|J|", "#iterations"},
		Notes:   []string{"factor 1 is the paper's b = ceil(log2 m) (Definition 3)"},
	}
	for _, w := range ws {
		jSize := float64(join.Size(w.R, w.S, scale.L))
		if jSize == 0 {
			continue
		}
		base := bbst.BucketCap(len(w.S))
		for _, f := range factors {
			cap := int(float64(base) * f)
			if cap < 1 {
				cap = 1
			}
			s, err := core.NewBBST(w.R, w.S, core.Config{
				HalfExtent: scale.L, Seed: scale.Seed, BucketCap: cap, Workers: 1,
			})
			if err != nil {
				return nil, err
			}
			if err := s.Preprocess(); err != nil {
				return nil, err
			}
			if err := s.Build(); err != nil {
				return nil, err
			}
			if err := s.Count(); err != nil {
				return nil, err
			}
			if _, err := s.Sample(scale.T); err != nil {
				return nil, err
			}
			st := s.Stats()
			online := st.GridMapTime + st.UpperBoundTime + st.SampleTime
			t.Rows = append(t.Rows, []Cell{
				cellStr(w.Name), cellInt(uint64(cap)), cellF(f, "%g"),
				cellDur(online), cellF(st.MuSum/jSize, "%.4f"), cellInt(st.Iterations),
			})
		}
	}
	return t, nil
}

// RunFigure4Live is the Fig. 4 memory experiment measured with the Go
// runtime's live-heap accounting instead of analytic SizeBytes: it
// GCs, builds the structures, GCs again, and reports the delta. Only
// the BBST and kd-tree columns are measured (live-heap deltas of
// several structures in one process contaminate each other, so each
// build runs in isolation).
func RunFigure4Live(scale Scale, fractions []float64) (*Table, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.5, 1.0}
	}
	ws, err := scale.Workloads(0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 4 (live heap): measured allocation of sampler structures",
		Columns: []string{"dataset", "fraction", "n+m", "KDS", "BBST"},
		Notes:   []string{"runtime.MemStats deltas around Count(); GC-exact, slower to run"},
	}
	for _, w := range ws {
		for _, f := range fractions {
			R := dataset.Prefix(w.R, f)
			S := dataset.Prefix(w.S, f)
			row := []Cell{cellStr(w.Name), cellF(f, "%.1f"), cellInt(uint64(len(R) + len(S)))}
			for _, a := range []Algo{AlgoKDS, AlgoBBST} {
				before := stats.LiveHeapBytes()
				s, err := newSampler(a, R, S, core.Config{HalfExtent: scale.L, Seed: scale.Seed})
				if err != nil {
					return nil, err
				}
				if err := s.Count(); err != nil && err != core.ErrEmptyJoin {
					return nil, err
				}
				after := stats.LiveHeapBytes()
				delta := int(after) - int(before)
				if delta < 0 {
					delta = 0
				}
				row = append(row, cellMB(delta))
				_ = s.SizeBytes() // keep s alive past the measurement
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
