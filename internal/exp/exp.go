// Package exp is the experiment harness: one runner per table and
// figure of the paper's evaluation (Section V), producing the same
// rows/series the paper reports.
//
// Absolute numbers differ from the paper — the datasets are synthetic
// stand-ins at laptop scale and the implementation is Go rather than
// C++ — but each runner preserves the comparison the corresponding
// artifact makes: who wins, by roughly what factor, and how the curves
// move with the swept parameter.
//
// Every sampler the harness builds runs single-worker (core.Config's
// Workers = 1): the kd-tree baselines build on one goroutine,
// so Table II's pre-processing and Table III's GM and UB columns, and
// the ablations, time the grid samplers on one core too, like for like.
//
// Experiment index:
//
//	Table II  -> RunTable2      pre-processing time, KDS vs BBST
//	Fig. 4    -> RunFigure4     memory usage vs dataset size
//	Sec. V-B  -> RunAccuracy    approximation ratio Σµ/|J|
//	Table III -> RunTable3      total + GM + UB decomposition
//	Table IV  -> RunTable4      sampling time and #iterations
//	Fig. 5    -> RunFigure5     impact of range (window) size
//	Fig. 6    -> RunFigure6     impact of #samples t
//	Fig. 7    -> RunFigure7     impact of dataset size
//	Fig. 8    -> RunFigure8     impact of |R|/(|R|+|S|)
//	Fig. 9    -> RunFigure9     BBST vs the kd-tree-per-cell variant
//
// Runners lists them in this order under their CLI names, marked as a
// default run's, followed by two ablations a default run leaves out:
// RunAblationBucketCap (ablation-bucketcap) and RunFigure4Live
// (figure4-live), Fig. 4 measured on the live heap. srjbench and the
// harness's end-to-end test walk that one list.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// Algo names the algorithms the harness can run.
type Algo string

// Algorithms available to the harness.
const (
	AlgoKDS          Algo = "KDS"
	AlgoKDSRejection Algo = "KDS-rejection"
	AlgoBBST         Algo = "BBST"
	AlgoGridKD       Algo = "GridKD"
)

// paperAlgos are the three algorithms every paper experiment compares.
var paperAlgos = []Algo{AlgoKDS, AlgoKDSRejection, AlgoBBST}

// newSampler constructs the named algorithm on one worker (see the
// package doc).
func newSampler(a Algo, R, S []geom.Point, cfg core.Config) (core.Sampler, error) {
	cfg.Workers = 1
	switch a {
	case AlgoKDS:
		return core.NewKDS(R, S, cfg)
	case AlgoKDSRejection:
		return core.NewKDSRejection(R, S, cfg)
	case AlgoBBST:
		return core.NewBBST(R, S, cfg)
	case AlgoGridKD:
		return core.NewGridKD(R, S, cfg)
	default:
		return nil, fmt.Errorf("exp: unknown algorithm %q", a)
	}
}

// Scale fixes the workload sizes of a harness run. The paper's
// datasets range from 2.2M to 324M points; DefaultScale keeps their
// relative ordering (CaStreet < Foursquare < IMIS < NYC) at sizes that
// run quickly on one machine.
type Scale struct {
	// Sizes maps dataset name -> total points (before the R/S split).
	Sizes map[string]int
	// L is the default window half-extent (the paper's l = 100 on the
	// [0, 10000]^2 domain).
	L float64
	// T is the default number of samples (the paper's t = 10^6,
	// scaled down).
	T int
	// Seed drives dataset generation, the R/S split, and sampling.
	Seed uint64
}

// DefaultScale returns the standard harness scale: dataset sizes
// base, 2*base, 4*base, 8*base mirroring the paper's size ordering.
func DefaultScale(base int) Scale {
	return Scale{
		Sizes: map[string]int{
			"castreet":   base,
			"foursquare": 2 * base,
			"imis":       4 * base,
			"nyc":        8 * base,
		},
		L:    100,
		T:    100_000,
		Seed: 1,
	}
}

// DatasetNames returns the scale's datasets in the paper's order.
func (s Scale) DatasetNames() []string {
	ordered := []string{"castreet", "foursquare", "imis", "nyc"}
	var names []string
	for _, n := range ordered {
		if _, ok := s.Sizes[n]; ok {
			names = append(names, n)
		}
	}
	var extra []string
	for n := range s.Sizes {
		found := false
		for _, o := range ordered {
			if n == o {
				found = true
			}
		}
		if !found {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// Workload is one dataset split into R and S.
type Workload struct {
	Name string
	R, S []geom.Point
}

// Workloads generates every dataset of the scale and splits each into
// R and S with the given |R| ratio (0.5 reproduces the paper's
// default |R| ≈ |S|).
func (s Scale) Workloads(ratio float64) ([]Workload, error) {
	var out []Workload
	for _, name := range s.DatasetNames() {
		gen, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		pts := gen(s.Sizes[name], s.Seed)
		R, S := dataset.SplitRS(pts, ratio, s.Seed+1)
		out = append(out, Workload{Name: name, R: R, S: S})
	}
	return out, nil
}

// Cell is one value of a result table, carrying both the numeric
// value (for tests and downstream processing) and its rendering.
type Cell struct {
	Value float64
	Text  string
}

// Table is a generic result table: one artifact of the paper.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]Cell
	Notes   []string
}

// Render produces an aligned text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.Text
		}
		writeRow(texts)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (title and notes as
// #-comments) for machine consumption.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	writeCSVRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeCSVRow(t.Columns)
	for _, row := range t.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.Text
		}
		writeCSVRow(texts)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// cellStr makes a text-only cell.
func cellStr(s string) Cell { return Cell{Text: s} }

// cellDur renders a duration in seconds with 4 significant digits.
func cellDur(d time.Duration) Cell {
	sec := d.Seconds()
	return Cell{Value: sec, Text: fmt.Sprintf("%.4g s", sec)}
}

// cellF renders a float.
func cellF(v float64, format string) Cell {
	return Cell{Value: v, Text: fmt.Sprintf(format, v)}
}

// cellInt renders an integer count.
func cellInt(v uint64) Cell {
	return Cell{Value: float64(v), Text: fmt.Sprintf("%d", v)}
}

// cellMB renders a byte count in MiB.
func cellMB(bytes int) Cell {
	mb := float64(bytes) / (1 << 20)
	return Cell{Value: mb, Text: fmt.Sprintf("%.2f MiB", mb)}
}

// Run is one full execution of one algorithm on one workload: all
// phases plus t samples, with phase timings from the sampler's Stats.
type Run struct {
	Dataset string
	Algo    Algo
	N, M    int
	L       float64
	T       int
	Stats   core.Stats
	Bytes   int
	Err     error
}

// runOne executes algorithm a end-to-end and draws t samples.
func runOne(a Algo, w Workload, l float64, t int, seed uint64) Run {
	out := Run{Dataset: w.Name, Algo: a, N: len(w.R), M: len(w.S), L: l, T: t}
	s, err := newSampler(a, w.R, w.S, core.Config{HalfExtent: l, Seed: seed})
	if err != nil {
		out.Err = err
		return out
	}
	if err := s.Preprocess(); err != nil {
		out.Err = err
		return out
	}
	if err := s.Build(); err != nil {
		out.Err = err
		return out
	}
	if err := s.Count(); err != nil {
		out.Err = err
		out.Stats = s.Stats()
		return out
	}
	if _, err := s.Sample(t); err != nil {
		out.Err = err
	}
	out.Stats = s.Stats()
	out.Bytes = s.SizeBytes()
	return out
}
