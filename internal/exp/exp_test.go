package exp

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// tinyScale keeps harness tests fast while still exercising every
// code path.
func tinyScale() Scale {
	return Scale{
		Sizes: map[string]int{"castreet": 2000, "foursquare": 3000},
		L:     100,
		T:     500,
		Seed:  1,
	}
}

func findColumn(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("column %q not in %v", name, tbl.Columns)
	return -1
}

func TestDefaultScale(t *testing.T) {
	s := DefaultScale(1000)
	if s.Sizes["castreet"] != 1000 || s.Sizes["nyc"] != 8000 {
		t.Fatalf("sizes = %v", s.Sizes)
	}
	names := s.DatasetNames()
	want := []string{"castreet", "foursquare", "imis", "nyc"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestWorkloads(t *testing.T) {
	ws, err := tinyScale().Workloads(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("got %d workloads", len(ws))
	}
	for _, w := range ws {
		total := len(w.R) + len(w.S)
		if total != tinyScale().Sizes[w.Name] {
			t.Fatalf("%s: %d points, want %d", w.Name, total, tinyScale().Sizes[w.Name])
		}
	}
}

func TestRunTable2(t *testing.T) {
	tbl, err := RunTable2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
	out := tbl.Render()
	if !strings.Contains(out, "castreet") || !strings.Contains(out, "Table II") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestRunAccuracyRatiosAtLeastOne(t *testing.T) {
	tbl, err := RunAccuracy(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	bc := findColumn(t, tbl, "BBST ratio")
	rc := findColumn(t, tbl, "KDS-rejection ratio")
	for _, row := range tbl.Rows {
		b, r := row[bc].Value, row[rc].Value
		if b < 1 {
			t.Errorf("BBST ratio %g < 1 (not an upper bound)", b)
		}
		if r < 1 {
			t.Errorf("rejection ratio %g < 1", r)
		}
		// At tiny scale cells are sparse and the BBST corner bound
		// pays its additive log m slack (Lemma 5, α = 1 case), so it
		// can exceed the grid bound here; tightness at paper-like
		// density is asserted in TestAccuracyTightAtDensity.
	}
}

// TestAccuracyTightAtDensity checks the paper's §V-B claim on a
// workload dense enough that cells hold many buckets: BBST's ratio
// must be close to 1 and tighter than the grid bound.
func TestAccuracyTightAtDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("dense workload is slow in -short mode")
	}
	scale := Scale{
		Sizes: map[string]int{"nyc": 60000},
		L:     150,
		T:     100,
		Seed:  2,
	}
	tbl, err := RunAccuracy(scale)
	if err != nil {
		t.Fatal(err)
	}
	bc := findColumn(t, tbl, "BBST ratio")
	rc := findColumn(t, tbl, "KDS-rejection ratio")
	b, r := tbl.Rows[0][bc].Value, tbl.Rows[0][rc].Value
	if b < 1 {
		t.Errorf("BBST ratio %g < 1", b)
	}
	if b > r {
		t.Errorf("BBST ratio %g looser than grid ratio %g at density", b, r)
	}
	if b > 2 {
		t.Errorf("BBST ratio %g far from the paper's ~1.1 regime", b)
	}
}

func TestRunTable3And4(t *testing.T) {
	scale := tinyScale()
	t3, err := RunTable3(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 2*3 {
		t.Fatalf("table3 rows = %d", len(t3.Rows))
	}
	t4, err := RunTable4(scale)
	if err != nil {
		t.Fatal(err)
	}
	ic := findColumn(t, t4, "#iterations")
	ac := findColumn(t, t4, "algorithm")
	for _, row := range t4.Rows {
		iters := uint64(row[ic].Value)
		if iters < uint64(scale.T) {
			t.Errorf("%s iterations %d < t", row[ac].Text, iters)
		}
		if row[ac].Text == "KDS" && iters != uint64(scale.T) {
			t.Errorf("KDS iterations = %d, want exactly t", iters)
		}
	}
}

func TestRunFigure4MemoryMonotone(t *testing.T) {
	scale := tinyScale()
	tbl, err := RunFigure4(scale, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	bc := findColumn(t, tbl, "BBST")
	rc := findColumn(t, tbl, "range-tree")
	// Per dataset, memory at fraction 1.0 must exceed fraction 0.5.
	for i := 0; i+1 < len(tbl.Rows); i += 2 {
		if tbl.Rows[i+1][bc].Value <= tbl.Rows[i][bc].Value {
			t.Errorf("BBST memory not monotone: %g then %g", tbl.Rows[i][bc].Value, tbl.Rows[i+1][bc].Value)
		}
		if tbl.Rows[i+1][rc].Value <= tbl.Rows[i][rc].Value {
			t.Errorf("range-tree memory not monotone")
		}
	}
}

func TestRunFigure5(t *testing.T) {
	scale := tinyScale()
	scale.T = 200
	tbl, err := RunFigure5(scale, []float64{10, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestRunFigure6SamplingGrowth(t *testing.T) {
	scale := tinyScale()
	tbl, err := RunFigure6(scale, []int{100, 5000})
	if err != nil {
		t.Fatal(err)
	}
	kc := findColumn(t, tbl, "KDS")
	// KDS time grows with t (sampling dominates).
	for i := 0; i+1 < len(tbl.Rows); i += 2 {
		if tbl.Rows[i+1][kc].Value < tbl.Rows[i][kc].Value {
			t.Logf("warning: KDS did not grow with t on row %d (timing noise possible)", i)
		}
	}
}

func TestRunFigure7(t *testing.T) {
	tbl, err := RunFigure7(tinyScale(), []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestRunFigure8(t *testing.T) {
	tbl, err := RunFigure8(tinyScale(), []float64{0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nc := findColumn(t, tbl, "n")
	mc := findColumn(t, tbl, "m")
	rc := findColumn(t, tbl, "n/(n+m)")
	for _, row := range tbl.Rows {
		n, m, ratio := row[nc].Value, row[mc].Value, row[rc].Value
		got := n / (n + m)
		if got < ratio-0.1 || got > ratio+0.1 {
			t.Errorf("split ratio %g produced n/(n+m) = %g", ratio, got)
		}
	}
}

func TestRunFigure9(t *testing.T) {
	tbl, err := RunFigure9(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	sc := findColumn(t, tbl, "speedup")
	for _, row := range tbl.Rows {
		if row[sc].Value <= 0 {
			t.Errorf("speedup %g not positive", row[sc].Value)
		}
	}
}

func TestRunnersCoverAllExperiments(t *testing.T) {
	var got []string
	for _, r := range Runners(tinyScale()) {
		if r.Default {
			got = append(got, r.Name)
		}
	}
	want := []string{"table2", "figure4", "accuracy", "table3", "table4", "figure5", "figure6", "figure7", "figure8", "figure9"}
	if !slices.Equal(got, want) {
		t.Errorf("default runners %v, want %v", got, want)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "longer"},
		Rows:    [][]Cell{{cellStr("x"), cellF(1.5, "%.1f")}},
		Notes:   []string{"hello"},
	}
	out := tbl.Render()
	for _, want := range []string{"demo", "longer", "1.5", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNewSamplerUnknown(t *testing.T) {
	if _, err := newSampler("nope", nil, nil, coreConfigForTest()); err == nil {
		t.Fatal("unknown algo should fail")
	}
}

// coreConfigForTest returns a minimal valid config for constructor
// error tests.
func coreConfigForTest() core.Config { return core.Config{HalfExtent: 1} }

func TestRunAblationBucketCap(t *testing.T) {
	scale := tinyScale()
	scale.T = 300
	tbl, err := RunAblationBucketCap(scale, []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	rc := findColumn(t, tbl, "Σµ/|J|")
	cc := findColumn(t, tbl, "capacity")
	// Smaller capacity must never loosen the bound: µ per corner is
	// (#matched buckets) x the cell's capacity, and capacity b cuts a
	// cell of N points into ceil(N/b) balanced buckets of at most b
	// points, so a smaller b shrinks the slack each partially matching
	// bucket adds on top of the exact count. Check monotonicity of Σµ
	// within each dataset.
	for i := 0; i+2 < len(tbl.Rows); i += 3 {
		small, def, big := tbl.Rows[i][rc].Value, tbl.Rows[i+1][rc].Value, tbl.Rows[i+2][rc].Value
		if small > def+1e-9 || def > big+1e-9 {
			t.Errorf("ratio not monotone in capacity: %.3f (cap %v) vs %.3f vs %.3f",
				small, tbl.Rows[i][cc].Text, def, big)
		}
		if small < 1 || def < 1 || big < 1 {
			t.Error("ratio below 1")
		}
	}
}

func TestRunFigure4Live(t *testing.T) {
	tbl, err := RunFigure4Live(tinyScale(), []float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

// TestRunAllTiny executes the complete paper reproduction, every
// default runner in order, end to end at minimal scale — the
// integration test for the whole harness.
func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep is slow in -short mode")
	}
	scale := Scale{
		Sizes: map[string]int{"castreet": 1200, "nyc": 2400},
		L:     150,
		T:     200,
		Seed:  3,
	}
	var tables []*Table
	for _, r := range Runners(scale) {
		if !r.Default {
			continue
		}
		tbl, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		tables = append(tables, tbl)
	}
	if len(tables) != 10 {
		t.Fatalf("got %d tables, want 10", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("table %q has no rows", tbl.Title)
		}
		if tbl.Render() == "" {
			t.Errorf("table %q renders empty", tbl.Title)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]Cell{{cellStr("x,with comma"), cellF(1.5, "%.1f")}},
		Notes:   []string{"a note"},
	}
	out := tbl.CSV()
	for _, want := range []string{"# demo", "a,b", "\"x,with comma\",1.5", "# a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}
