package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rangetree"
)

// RunFigure4 reproduces Fig. 4: memory usage of each algorithm as the
// dataset size scales through the given fractions. A range-tree column
// reproduces the paper's footnote that the O(m log m)-space structure
// is the one that blows up (it ran out of memory on the paper's
// largest datasets).
func RunFigure4(scale Scale, fractions []float64) (*Table, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	ws, err := scale.Workloads(0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 4: memory usage vs dataset size",
		Columns: []string{"dataset", "fraction", "n+m", "KDS", "KDS-rejection", "BBST", "range-tree"},
		Notes: []string{
			"structure sizes after Count(); range-tree included to reproduce the out-of-memory footnote (O(m log m) space)",
		},
	}
	for _, w := range ws {
		for _, f := range fractions {
			R := dataset.Prefix(w.R, f)
			S := dataset.Prefix(w.S, f)
			row := []Cell{cellStr(w.Name), cellF(f, "%.1f"), cellInt(uint64(len(R) + len(S)))}
			for _, a := range paperAlgos {
				s, err := newSampler(a, R, S, core.Config{HalfExtent: scale.L, Seed: scale.Seed})
				if err != nil {
					return nil, err
				}
				if err := s.Count(); err != nil && err != core.ErrEmptyJoin {
					return nil, fmt.Errorf("%s on %s: %w", a, w.Name, err)
				}
				row = append(row, cellMB(s.SizeBytes()))
			}
			rt := rangetree.New(S)
			row = append(row, cellMB(rt.SizeBytes()))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// RunFigure5 reproduces Fig. 5: total running time as the range
// (window half-extent) l sweeps from very small to large. BBST should
// be nearly flat; the kd-tree baselines degrade as l (and with it |J|)
// grows.
func RunFigure5(scale Scale, ls []float64) (*Table, error) {
	if len(ls) == 0 {
		ls = []float64{1, 10, 100, 500}
	}
	ws, err := scale.Workloads(0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 5: impact of range (window) size (t = %d)", scale.T),
		Columns: []string{"dataset", "l", "KDS", "KDS-rejection", "BBST"},
	}
	for _, w := range ws {
		for _, l := range ls {
			row := []Cell{cellStr(w.Name), cellF(l, "%g")}
			for _, a := range paperAlgos {
				r := runOne(a, w, l, scale.T, scale.Seed)
				if r.Err != nil {
					if r.Err == core.ErrEmptyJoin || r.Err == core.ErrLowAcceptance {
						row = append(row, cellStr("empty"))
						continue
					}
					return nil, fmt.Errorf("%s on %s (l=%g): %w", a, w.Name, l, r.Err)
				}
				online := r.Stats.GridMapTime + r.Stats.UpperBoundTime + r.Stats.SampleTime
				row = append(row, cellDur(online))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// RunFigure6 reproduces Fig. 6: total running time as the number of
// samples t sweeps across orders of magnitude (the paper goes to 10^9;
// the harness scales the sweep down proportionally). The baselines
// grow linearly in t; BBST's growth only becomes visible once sampling
// dominates its counting phases.
func RunFigure6(scale Scale, ts []int) (*Table, error) {
	if len(ts) == 0 {
		ts = []int{1_000, 10_000, 100_000, 1_000_000}
	}
	ws, err := scale.Workloads(0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 6: impact of #samples (l = %g)", scale.L),
		Columns: []string{"dataset", "t", "KDS", "KDS-rejection", "BBST"},
	}
	for _, w := range ws {
		for _, tt := range ts {
			row := []Cell{cellStr(w.Name), cellInt(uint64(tt))}
			for _, a := range paperAlgos {
				r := runOne(a, w, scale.L, tt, scale.Seed)
				if r.Err != nil {
					return nil, fmt.Errorf("%s on %s (t=%d): %w", a, w.Name, tt, r.Err)
				}
				online := r.Stats.GridMapTime + r.Stats.UpperBoundTime + r.Stats.SampleTime
				row = append(row, cellDur(online))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// RunFigure7 reproduces Fig. 7: total running time as the dataset
// size scales through the given fractions; BBST outperforms both
// baselines at every size.
func RunFigure7(scale Scale, fractions []float64) (*Table, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	ws, err := scale.Workloads(0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 7: impact of dataset size (t = %d, l = %g)", scale.T, scale.L),
		Columns: []string{"dataset", "fraction", "KDS", "KDS-rejection", "BBST"},
	}
	for _, w := range ws {
		for _, f := range fractions {
			sub := Workload{Name: w.Name, R: dataset.Prefix(w.R, f), S: dataset.Prefix(w.S, f)}
			row := []Cell{cellStr(w.Name), cellF(f, "%.1f")}
			for _, a := range paperAlgos {
				r := runOne(a, sub, scale.L, scale.T, scale.Seed)
				if r.Err != nil {
					return nil, fmt.Errorf("%s on %s (f=%g): %w", a, w.Name, f, r.Err)
				}
				online := r.Stats.GridMapTime + r.Stats.UpperBoundTime + r.Stats.SampleTime
				row = append(row, cellDur(online))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// RunFigure8 reproduces Fig. 8: BBST's total running time as the
// split ratio n/(n+m) sweeps from 0.1 to 0.5 (R and S are symmetric,
// so only half the range is needed). The paper observes a flat-to-
// slightly-increasing trend depending on whether UB or GM dominates.
func RunFigure8(scale Scale, ratios []float64) (*Table, error) {
	if len(ratios) == 0 {
		ratios = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 8: impact of dataset size difference, BBST only (t = %d, l = %g)", scale.T, scale.L),
		Columns: []string{"dataset", "n/(n+m)", "n", "m", "total", "GM", "UB"},
	}
	for _, name := range scale.DatasetNames() {
		gen, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		pts := gen(scale.Sizes[name], scale.Seed)
		for _, ratio := range ratios {
			R, S := dataset.SplitRS(pts, ratio, scale.Seed+1)
			w := Workload{Name: name, R: R, S: S}
			r := runOne(AlgoBBST, w, scale.L, scale.T, scale.Seed)
			if r.Err != nil {
				return nil, fmt.Errorf("BBST on %s (ratio=%g): %w", name, ratio, r.Err)
			}
			online := r.Stats.GridMapTime + r.Stats.UpperBoundTime + r.Stats.SampleTime
			t.Rows = append(t.Rows, []Cell{
				cellStr(name), cellF(ratio, "%.1f"),
				cellInt(uint64(len(R))), cellInt(uint64(len(S))),
				cellDur(online), cellDur(r.Stats.GridMapTime), cellDur(r.Stats.UpperBoundTime),
			})
		}
	}
	return t, nil
}

// RunFigure9 reproduces Fig. 9: BBST versus the variant that replaces
// the per-cell BBST pair with a per-cell kd-tree (case 3 handled by
// KDS). The paper reports BBST up to 12x faster.
func RunFigure9(scale Scale) (*Table, error) {
	ws, err := scale.Workloads(0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 9: BBST vs kd-tree-per-cell variant (t = %d, l = %g)", scale.T, scale.L),
		Columns: []string{"dataset", "BBST", "variant (GridKD)", "speedup"},
	}
	for _, w := range ws {
		rb := runOne(AlgoBBST, w, scale.L, scale.T, scale.Seed)
		rv := runOne(AlgoGridKD, w, scale.L, scale.T, scale.Seed)
		if rb.Err != nil {
			return nil, fmt.Errorf("BBST on %s: %w", w.Name, rb.Err)
		}
		if rv.Err != nil {
			return nil, fmt.Errorf("GridKD on %s: %w", w.Name, rv.Err)
		}
		bOnline := rb.Stats.GridMapTime + rb.Stats.UpperBoundTime + rb.Stats.SampleTime
		vOnline := rv.Stats.GridMapTime + rv.Stats.UpperBoundTime + rv.Stats.SampleTime
		speedup := vOnline.Seconds() / bOnline.Seconds()
		t.Rows = append(t.Rows, []Cell{
			cellStr(w.Name), cellDur(bOnline), cellDur(vOnline), cellF(speedup, "%.2fx"),
		})
	}
	return t, nil
}

// Runner is one experiment of the harness under its CLI name. Default
// marks the paper's ten experiments, the ones a run that names none
// executes.
type Runner struct {
	Name    string
	Default bool
	Run     func() (*Table, error)
}

// Runners lists every experiment at the given scale: the ten paper
// experiments first, in the paper's order, then the ablations a default
// run leaves out.
func Runners(scale Scale) []Runner {
	return []Runner{
		{"table2", true, func() (*Table, error) { return RunTable2(scale) }},
		{"figure4", true, func() (*Table, error) { return RunFigure4(scale, nil) }},
		{"accuracy", true, func() (*Table, error) { return RunAccuracy(scale) }},
		{"table3", true, func() (*Table, error) { return RunTable3(scale) }},
		{"table4", true, func() (*Table, error) { return RunTable4(scale) }},
		{"figure5", true, func() (*Table, error) { return RunFigure5(scale, nil) }},
		{"figure6", true, func() (*Table, error) { return RunFigure6(scale, nil) }},
		{"figure7", true, func() (*Table, error) { return RunFigure7(scale, nil) }},
		{"figure8", true, func() (*Table, error) { return RunFigure8(scale, nil) }},
		{"figure9", true, func() (*Table, error) { return RunFigure9(scale) }},
		{"ablation-bucketcap", false, func() (*Table, error) { return RunAblationBucketCap(scale, nil) }},
		{"figure4-live", false, func() (*Table, error) { return RunFigure4Live(scale, nil) }},
	}
}
