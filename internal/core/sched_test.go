package core_test

// Index construction splits its per-cell work across GOMAXPROCS
// workers; these tests hold everything it builds, and every seeded
// draw, independent of how many there are.

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/srjtest"
)

// schedFixtures are nyc-shaped points, whose crowded cells are BBST
// cells, and srjtest.DenseData, built for exactly that.
func schedFixtures() []struct {
	name string
	R, S []geom.Point
	l    float64
} {
	nycR, nycS := dataset.SplitRS(dataset.NYC(40_000, 1), 0.5, 2)
	denseR, denseS, denseL := srjtest.DenseData()
	return []struct {
		name string
		R, S []geom.Point
		l    float64
	}{
		{"nyc", nycR, nycS, 100},
		{"dense", denseR, denseS, denseL},
	}
}

// atProcs runs fn with GOMAXPROCS set to n, restoring it after.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// drawN draws n seeded pairs from s.
func drawN(t *testing.T, s core.Sampler, n int) []geom.Pair {
	t.Helper()
	pairs := make([]geom.Pair, n)
	if _, err := core.SampleInto(s, pairs); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestBuildIndependentOfWorkers builds each frozen grid sampler at
// GOMAXPROCS 1 and 4 and requires equal count records (narrow, uint16,
// on these fixtures), cell rows with their µ(r, Center), corner
// structures (kind and size), Σµ and 10k seeded draws.
func TestBuildIndependentOfWorkers(t *testing.T) {
	samplers := []struct {
		name string
		mk   func(R, S []geom.Point, cfg core.Config) (core.Sampler, error)
	}{
		{"BBST", func(R, S []geom.Point, cfg core.Config) (core.Sampler, error) { return core.NewBBST(R, S, cfg) }},
		{"GridKD", func(R, S []geom.Point, cfg core.Config) (core.Sampler, error) { return core.NewGridKD(R, S, cfg) }},
	}
	for _, fx := range schedFixtures() {
		for _, sm := range samplers {
			t.Run(fx.name+"/"+sm.name, func(t *testing.T) {
				build := func(procs int) (core.FrozenBuild, []geom.Pair) {
					var fb core.FrozenBuild
					var pairs []geom.Pair
					atProcs(procs, func() {
						s, err := sm.mk(fx.R, fx.S, core.Config{HalfExtent: fx.l, Seed: 7})
						if err != nil {
							t.Fatal(err)
						}
						if err := s.Count(); err != nil {
							t.Fatal(err)
						}
						fb, pairs = core.FrozenBuildOf(s), drawN(t, s, 10_000)
					})
					return fb, pairs
				}
				one, onePairs := build(1)
				four, fourPairs := build(4)
				if sm.name == "BBST" && !slices.ContainsFunc(one.Corners, func(c string) bool {
					return strings.HasPrefix(c, "core.bbstCorner")
				}) {
					t.Fatal("fixture has no BBST cell")
				}
				if !one.Narrow || !four.Narrow {
					t.Errorf("count records are not narrow: %T at GOMAXPROCS 1, %T at 4", one.Recs, four.Recs)
				}
				if !reflect.DeepEqual(one.Recs, four.Recs) {
					t.Error("count records differ between GOMAXPROCS 1 and 4")
				}
				if !slices.Equal(one.Rows, four.Rows) {
					t.Error("cell rows (S cell indexes or µ(r, Center)) differ between GOMAXPROCS 1 and 4")
				}
				if !slices.Equal(one.Corners, four.Corners) {
					t.Error("corner structures differ between GOMAXPROCS 1 and 4")
				}
				if one.MuSum != four.MuSum {
					t.Errorf("Σµ %g at GOMAXPROCS 1, %g at 4", one.MuSum, four.MuSum)
				}
				if !slices.Equal(onePairs, fourPairs) {
					t.Error("seeded draws differ between GOMAXPROCS 1 and 4")
				}
			})
		}
	}
}

// TestUnfreezeIndependentOfWorkers builds a mutable index
// (core.NewMutable) at GOMAXPROCS 1 and at 4: both indexes must pass
// CheckInvariants and give the same slot layout, size, Σµ and 10k
// seeded draws.
func TestUnfreezeIndependentOfWorkers(t *testing.T) {
	for _, fx := range schedFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			build := func(procs int) (m *core.Mutable, pairs []geom.Pair) {
				atProcs(procs, func() {
					var err error
					if m, err = core.NewMutable(fx.R, fx.S, core.Config{HalfExtent: fx.l, Seed: 7}); err != nil {
						t.Fatal(err)
					}
					if err := m.Index().CheckInvariants(); err != nil {
						t.Fatalf("GOMAXPROCS %d: %v", procs, err)
					}
					pairs = drawN(t, m, 10_000)
				})
				return m, pairs
			}
			one, onePairs := build(1)
			four, fourPairs := build(4)
			if !reflect.DeepEqual(core.SlotLayoutOf(one), core.SlotLayoutOf(four)) {
				t.Error("slot layouts differ between GOMAXPROCS 1 and 4")
			}
			if a, b := one.Index().SizeBytes(), four.Index().SizeBytes(); a != b {
				t.Errorf("SizeBytes %d at GOMAXPROCS 1, %d at 4", a, b)
			}
			if a, b := one.Index().MuSum(), four.Index().MuSum(); a != b {
				t.Errorf("Σµ %g at GOMAXPROCS 1, %g at 4", a, b)
			}
			if !slices.Equal(onePairs, fourPairs) {
				t.Error("seeded draws differ between GOMAXPROCS 1 and 4")
			}
		})
	}
}

// TestUnfreezeLaysOutSlotsByCell holds NewMutable's slot layout, at
// GOMAXPROCS 1 and 4: every rcells list is an ascending run of
// consecutive slots, the runs tile [0, NumR), each slot lies in its
// list's cell, rids maps every R point's ID to the slot holding it,
// and the cells' runs follow the order in which R first touches them.
func TestUnfreezeLaysOutSlotsByCell(t *testing.T) {
	for _, fx := range schedFixtures() {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", fx.name, procs), func(t *testing.T) {
				var sl core.SlotLayout
				atProcs(procs, func() {
					m, err := core.NewMutable(fx.R, fx.S, core.Config{HalfExtent: fx.l, Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
					sl = core.SlotLayoutOf(m)
				})
				checkSlotRuns(t, sl, fx.R)
				checkFirstTouch(t, sl, fx.R)
			})
		}
	}
}

// checkFirstTouch fails unless the slots hold R cell by cell in the
// order R first touches the cells, each cell's points in R's order:
// slot j holds the j-th point of R stably sorted by the input position
// of its cell's first point.
func checkFirstTouch(t *testing.T, sl core.SlotLayout, R []geom.Point) {
	t.Helper()
	first := make(map[grid.Key]int)
	for i, p := range R {
		if _, ok := first[grid.KeyFor(p.X, p.Y, sl.Side)]; !ok {
			first[grid.KeyFor(p.X, p.Y, sl.Side)] = i
		}
	}
	want := slices.Clone(R)
	slices.SortStableFunc(want, func(a, b geom.Point) int {
		return first[grid.KeyFor(a.X, a.Y, sl.Side)] - first[grid.KeyFor(b.X, b.Y, sl.Side)]
	})
	if !slices.Equal(sl.Slots, want) {
		t.Fatal("the slots do not hold R cell by cell in first-touch order")
	}
}

// checkSlotRuns fails unless the layout holds exactly the points R, one
// per slot, every rcells list is an ascending run of consecutive slots,
// the runs tile the slots, each slot lies in its list's cell, and rids
// maps every point's ID to the slot holding it.
func checkSlotRuns(t *testing.T, sl core.SlotLayout, R []geom.Point) {
	t.Helper()
	if len(sl.Slots) != len(R) {
		t.Fatalf("%d slots for %d R points", len(sl.Slots), len(R))
	}
	runs := make([]int, len(sl.Lists)) // list indexes by first slot
	for i := range runs {
		runs[i] = i
	}
	slices.SortFunc(runs, func(a, b int) int { return int(sl.Lists[a][0] - sl.Lists[b][0]) })
	next := int32(0)
	for _, c := range runs {
		for _, slot := range sl.Lists[c] {
			if slot != next {
				t.Fatalf("cell %v lists slot %d where the layout's next slot is %d", sl.Keys[c], slot, next)
			}
			next++
			if pt := sl.Slots[slot]; grid.KeyFor(pt.X, pt.Y, sl.Side) != sl.Keys[c] {
				t.Fatalf("slot %d holds %v, outside its list's cell %v", slot, pt, sl.Keys[c])
			}
		}
	}
	if int(next) != len(R) {
		t.Fatalf("the runs cover slots [0, %d), want [0, %d)", next, len(R))
	}
	for _, p := range R {
		if !slices.ContainsFunc(sl.IDs[p.ID], func(slot int32) bool { return sl.Slots[slot] == p }) {
			t.Fatalf("rids lists no slot holding %v under its ID", p)
		}
	}
	for id, slots := range sl.IDs {
		for _, slot := range slots {
			if sl.Slots[slot].ID != id {
				t.Fatalf("rids lists slot %d, holding %v, under ID %d", slot, sl.Slots[slot], id)
			}
		}
	}
}

// TestRepackIndependentOfWorkers applies, at GOMAXPROCS 1 and at 4, one
// batch that deletes three quarters of R and inserts a few points into
// the freed slots, which leaves more dead slots than live ones, so
// ApplyOps repacks the R side. Both versions must pass CheckInvariants,
// hold their live points one per slot, laid out cell by cell, and give
// the same layout, size, Σµ and 10k seeded draws.
func TestRepackIndependentOfWorkers(t *testing.T) {
	for _, fx := range schedFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			var ops core.MutOps
			var live []geom.Point
			for i, p := range fx.R {
				if i%4 == 0 {
					live = append(live, p)
				} else {
					ops.DelR = append(ops.DelR, p.ID)
				}
			}
			for i, p := range fx.S[:8] {
				q := geom.Point{ID: int32(1<<30 + i), X: p.X, Y: p.Y}
				ops.InsR, live = append(ops.InsR, q), append(live, q)
			}
			build := func(procs int) (m *core.Mutable, pairs []geom.Pair) {
				atProcs(procs, func() {
					var err error
					if m, err = core.NewMutable(fx.R, fx.S, core.Config{HalfExtent: fx.l, Seed: 7}); err != nil {
						t.Fatal(err)
					}
					if m, err = m.Apply(ops); err != nil {
						t.Fatal(err)
					}
					if err := m.Index().CheckInvariants(); err != nil {
						t.Fatalf("GOMAXPROCS %d: %v", procs, err)
					}
					m.Reseed(9)
					pairs = drawN(t, m, 10_000)
				})
				return m, pairs
			}
			one, onePairs := build(1)
			four, fourPairs := build(4)
			sl := core.SlotLayoutOf(one)
			checkSlotRuns(t, sl, live)
			if !reflect.DeepEqual(sl, core.SlotLayoutOf(four)) {
				t.Error("slot layouts differ between GOMAXPROCS 1 and 4")
			}
			if a, b := one.Index().SizeBytes(), four.Index().SizeBytes(); a != b {
				t.Errorf("SizeBytes %d at GOMAXPROCS 1, %d at 4", a, b)
			}
			if a, b := one.Index().MuSum(), four.Index().MuSum(); a != b {
				t.Errorf("Σµ %g at GOMAXPROCS 1, %g at 4", a, b)
			}
			if !slices.Equal(onePairs, fourPairs) {
				t.Error("seeded draws differ between GOMAXPROCS 1 and 4")
			}
		})
	}
}
