package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/bbst"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rng"
)

// latticePoints draws n points on the half-step lattice of side l
// around the origin, negative coordinates included: most of them sit
// exactly on cell edges, many share coordinates, and for any R point
// some S points lie exactly at r.X ± l and r.Y ± l. A few far-off
// points make one-point cells.
func latticePoints(r *rng.RNG, n int, l float64, base int32) []geom.Point {
	pts := make([]geom.Point, 0, n+4)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{
			X:  float64(r.Intn(13)-6) * l / 2,
			Y:  float64(r.Intn(13)-6) * l / 2,
			ID: base + int32(i),
		})
	}
	for i, c := range [][2]float64{{-40, 7}, {33, -21}, {0.5, 50}, {-61, -61}} {
		pts = append(pts, geom.Point{X: c[0] * l, Y: c[1] * l, ID: base + int32(n+i)})
	}
	return pts
}

// ulpPoints draws n points whose coordinates lie a few ulps apart
// around (x0, y0), in random order, each followed by points at and
// one ulp past its four window sides, in the edge cells of its own. The
// counter's sort keys cannot tell such coordinates apart, so its sweep
// meets them out of order.
func ulpPoints(r *rng.RNG, n int, x0, y0, l float64, base int32) []geom.Point {
	near := func(v float64) float64 {
		for k := r.Intn(40); k > 0; k-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		return v
	}
	var pts []geom.Point
	add := func(x, y float64) { pts = append(pts, geom.Point{X: x, Y: y, ID: base + int32(len(pts))}) }
	for i := 0; i < n; i++ {
		p := geom.Point{X: near(x0), Y: near(y0)}
		add(p.X, p.Y)
		w := geom.Window(p, l)
		for _, side := range []float64{w.XMin, w.XMax} {
			add(side, p.Y)
			add(math.Nextafter(side, float64(r.Intn(2)*2-1)*math.Inf(1)), p.Y)
		}
		for _, side := range []float64{w.YMin, w.YMax} {
			add(p.X, side)
			add(p.X, math.Nextafter(side, float64(r.Intn(2)*2-1)*math.Inf(1)))
		}
	}
	return pts
}

// cellAt is the Index of g's cell with key k, -1 where it is empty: a
// binary search over the cells' keys in row-major order, one cell at
// a time, independent of Grid.Block.
func cellAt(g *grid.Grid, k grid.Key) int32 {
	i := sort.Search(g.NumCells(), func(i int) bool {
		c := g.Key(int32(i))
		return c.CY > k.CY || c.CY == k.CY && c.CX >= k.CX
	})
	if i < g.NumCells() && g.Key(int32(i)) == k {
		return int32(i)
	}
	return -1
}

// recOf is R[i]'s frozen count record in g, at either width: its row
// index, and its µ(r, d) in all nine directions, widened to int32,
// Center read from its row.
func recOf(g *gridSampler, i int) (int32, dirCounts) {
	switch rs := g.recs.(type) {
	case pointRecs[uint16]:
		return widen(&rs[i], g.rows)
	case pointRecs[int32]:
		return widen(&rs[i], g.rows)
	}
	panic(fmt.Sprintf("core: count records %T", g.recs))
}

func widen[W countWidth](rec *pointRec[W], rows []cellRow) (int32, dirCounts) {
	cnt := dirCounts{grid.Center: rows[rec.row].center}
	for d, c := range rec.cnt {
		cnt[d+1] = int32(c)
	}
	return rec.row, cnt
}

// refCounts is the per-point reference for µ(r, d): r's own 3×3 block
// looked up cell by cell (cellAt), each cell counted by sCell.mu
// (Cell.Matching for cases 1–2, the corner structure's count or a
// scan for corners).
func refCounts(g *gridSampler, r geom.Point, sc *cornerScratch) dirCounts {
	k := grid.KeyFor(r.X, r.Y, g.g.Side())
	w := g.window(r)
	var cnt dirCounts
	for d := grid.Direction(0); d < grid.NumDirections; d++ {
		if ci := cellAt(g.g, k.Neighbor(d)); ci >= 0 {
			c := g.cell(ci)
			cnt[d] = int32(c.mu(d, w, sc))
		}
	}
	return cnt
}

// checkCounter runs the batched counter over every R cell of g under
// each mask and compares every point's every direction with the
// per-point reference; directions outside the mask must keep the
// count the point was listed with.
func checkCounter(t *testing.T, g *gridSampler, masks []dirMask) {
	t.Helper()
	const keep = -7 // listed count of every direction; survives outside the mask
	var listed dirCounts
	for d := range listed {
		listed[d] = keep
	}
	var sc cornerScratch
	mc := muCounter{half: g.cfg.HalfExtent}
	keys, starts, perm := grid.GroupByCell(g.R, g.g.Side())
	bad := 0
	for ci, k := range keys {
		idx := perm[starts[ci]:starts[ci+1]]
		want := make([]dirCounts, len(idx))
		for j, i := range idx {
			want[j] = refCounts(g, g.R[i], &sc)
		}
		var row [grid.NumDirections]int32
		nb := g.neighborhood(k, &row)
		for _, mask := range masks {
			mc.reset()
			for _, i := range idx {
				mc.add(g.R[i], listed)
			}
			mc.count(&nb, mask)
			for j, i := range idx {
				for d := range listed {
					w := want[j][d]
					if mask&(1<<d) == 0 {
						w = keep
					}
					if got := mc.cnt[j][d]; got != w && bad < 10 {
						bad++
						t.Errorf("mask %09b, R[%d] %+v, %v: batched %d, per-point %d",
							mask, i, g.R[i], grid.Direction(d), got, w)
					}
				}
			}
		}
	}
}

// TestMuCounterMatchesPerPoint holds the batched counter to the
// per-point reference on every point and direction, for the BBST,
// hybrid and GridKD corners, over nyc, uniform, clustered and
// boundary-heavy lattice inputs at several l. The lattice runs try
// every direction mask, which covers every subset ApplyOps can ask
// for; the others use the full mask and a sample of subsets.
func TestMuCounterMatchesPerPoint(t *testing.T) {
	everyMask := make([]dirMask, 0, allDirs+1)
	for m := dirMask(0); m <= allDirs; m++ {
		everyMask = append(everyMask, m)
	}
	someMasks := []dirMask{
		allDirs,
		1 << grid.Center,
		1<<grid.West | 1<<grid.East,
		1<<grid.South | 1<<grid.North | 1<<grid.SouthWest,
		1<<grid.NorthWest | 1<<grid.SouthEast | 1<<grid.NorthEast | 1<<grid.East,
	}
	forCountInputs(t, gridFactories, func(t *testing.T, g *gridSampler, boundary bool) {
		if err := g.Build(); err != nil {
			t.Fatal(err)
		}
		if boundary {
			checkCounter(t, g, everyMask)
		} else {
			checkCounter(t, g, someMasks)
		}
	})
}

// gridFactory names one way to create a gridSampler.
type gridFactory struct {
	name string
	mk   func(R, S []geom.Point, cfg Config) (*gridSampler, error)
}

// gridFactories are the counting tests' samplers: the BBST (with its
// default scan threshold), a hybrid BBST whose threshold puts cells on
// both sides of it on every input, and the GridKD corners.
var gridFactories = []gridFactory{
	{"BBST", func(R, S []geom.Point, cfg Config) (*gridSampler, error) {
		s, err := NewBBST(R, S, cfg)
		return &s.gridSampler, err
	}},
	{"hybrid", func(R, S []geom.Point, cfg Config) (*gridSampler, error) {
		s, err := scanSetting{"hybrid", hybridScanC}.bbst(R, S, cfg)
		if err != nil {
			return nil, err
		}
		return &s.gridSampler, nil
	}},
	{"GridKD", func(R, S []geom.Point, cfg Config) (*gridSampler, error) {
		s, err := NewGridKD(R, S, cfg)
		return &s.gridSampler, err
	}},
}

// hybridScanC is the c of a scan threshold T halfway between the
// smallest and the largest S cell over S at half-extent l, so the
// smallest cells are scanned and the largest keep their BBST pair.
func hybridScanC(S []geom.Point, l float64) (float64, error) {
	g, err := grid.Build(S, l)
	if err != nil {
		return 0, err
	}
	lo, hi := len(S), 0
	for i := range g.NumCells() {
		n := g.CellLen(int32(i))
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo >= hi {
		return 0, fmt.Errorf("hybrid BBST: every cell holds %d points", lo)
	}
	// c·⌈log₂ m⌉ lands half a point above T, so scanMax floors to T.
	t := (lo + hi) / 2
	c := (float64(t) + 0.5) / float64(bbst.BucketCap(len(S)))
	if got := scanMax(c, len(S)); got != t {
		return 0, fmt.Errorf("hybrid BBST: threshold %d, want %d", got, t)
	}
	return c, nil
}

// forCountInputs runs check in a subtest "input/l=L/sampler" for every
// sampler of samplers over nyc, uniform, clustered and boundary-heavy
// (lattice and ulp-spaced) inputs at several l; boundary is true for
// the boundary-heavy ones. The samplers are created, not built.
func forCountInputs(t *testing.T, samplers []gridFactory, check func(t *testing.T, g *gridSampler, boundary bool)) {
	r := rng.New(5)
	nycR, nycS := dataset.SplitRS(dataset.NYC(20_000, 3), 0.5, 4)
	inputs := []struct {
		name     string
		R, S     []geom.Point
		ls       []float64
		boundary bool
	}{
		{"nyc", nycR, nycS, []float64{30, 100, 400}, false},
		{"uniform", randomPoints(r, 3000, 1000, 0), randomPoints(r, 3000, 1000, 1<<20), []float64{5, 40, 150}, false},
		{"clustered", clustered(r, 3000, 1000, 0), clustered(r, 3000, 1000, 1<<20), []float64{5, 40, 150}, false},
		{"lattice", latticePoints(r, 300, 4, 0), latticePoints(r, 300, 4, 1<<20), []float64{4}, true},
		{"ulps", ulpPoints(r, 200, 1.5*7, -0.5*7, 7, 0), ulpPoints(r, 200, 1.5*7, -0.5*7, 7, 1<<20), []float64{7}, true},
		{"lattice-fractional", latticePoints(r, 300, 2.5, 0), latticePoints(r, 300, 2.5, 1<<20), []float64{2.5}, true},
	}
	for _, in := range inputs {
		for _, l := range in.ls {
			for _, smp := range samplers {
				g, err := smp.mk(in.R, in.S, Config{HalfExtent: l, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/l=%g/%s", in.name, l, smp.name), func(t *testing.T) { check(t, g, in.boundary) })
			}
		}
	}
}

// TestFrozenRecordMatchesReference holds the frozen Count's records to
// the per-point reference on the counting inputs, for the BBST, hybrid
// and GridKD samplers: every record's counts equal refCounts, every row
// entry names the cell a key lookup of that direction finds (-1 for
// none), and the maps a trial's uniform index goes through enumerate
// what the count counts: for every positive case 1–2 count k,
// drawRun's points 0..k-1 (the map candidates applies) are exactly
// matchingRun in order, and for every positive count k of a scan
// corner, sCell.pick's are exactly the cell's points inside w(r).
func TestFrozenRecordMatchesReference(t *testing.T) {
	forCountInputs(t, gridFactories, func(t *testing.T, g *gridSampler, _ bool) {
		if err := g.Count(); err != nil {
			t.Fatal(err)
		}
		var sc cornerScratch
		bad := 0
		fail := func(format string, args ...any) {
			if bad++; bad <= 10 {
				t.Errorf(format, args...)
			}
		}
		for i, r := range g.R {
			row, cnt := recOf(g, i)
			if want := refCounts(g, r, &sc); cnt != want {
				fail("R[%d] %+v: record %v, per-point %v", i, r, cnt, want)
			}
			w := g.window(r)
			for d := grid.Direction(0); d < grid.NumDirections; d++ {
				want, ci := cellAt(g.g, grid.KeyFor(r.X, r.Y, g.g.Side()).Neighbor(d)), g.rows[row].cells[d]
				if ci != want {
					fail("R[%d] %v: row names cell %d, lookup finds %d", i, d, ci, want)
				}
				k := cnt[d]
				if want < 0 || k == 0 {
					continue
				}
				cell := g.cell(ci)
				c := &cell.cell
				if d.Case() == 3 {
					if cell.corner == nil {
						checkScanPicks(fail, cell, d, w, int(k))
					}
					continue
				}
				run := matchingRun(c, d, w)
				if len(run) != int(k) {
					fail("R[%d] %v: count %d, run of %d", i, d, k, len(run))
					continue
				}
				for j, want := range run {
					if got := drawRun(c, d, k, j); got != want {
						fail("R[%d] %v: drawRun %d draws %+v, run holds %+v", i, d, j, got, want)
					}
				}
			}
		}
	})
}

// matchingRun filters the points of c that satisfy the constraint a
// case 1 or 2 direction d places on w, in the order of the run that
// holds them: XSorted for Center, West and East, XSorted through YOrder
// for South and North.
func matchingRun(c *grid.Cell, d grid.Direction, w geom.Rect) []geom.Point {
	var run []geom.Point
	if d == grid.South || d == grid.North {
		for _, o := range c.YOrder {
			if p := c.XSorted[o]; d == grid.South && p.Y >= w.YMin || d == grid.North && p.Y <= w.YMax {
				run = append(run, p)
			}
		}
		return run
	}
	for _, p := range c.XSorted {
		if d == grid.Center || d == grid.West && p.X >= w.XMin || d == grid.East && p.X <= w.XMax {
			run = append(run, p)
		}
	}
	return run
}

// checkScanPicks fails unless the picks 0..k-1 of scan corner d over
// cell c are exactly c's points inside w, each once.
func checkScanPicks(fail func(string, ...any), c sCell, d grid.Direction, w geom.Rect, k int) {
	left := make(map[geom.Point]int)
	for _, p := range c.cell.XSorted {
		if w.Contains(p) {
			left[p]++
		}
	}
	for j := range k {
		p, ok := c.pick(d, w, j)
		if !ok || left[p] == 0 {
			fail("%v of a cell of %d points: pick %d of %d is %+v (ok %v), not an unpicked point inside %+v", d, c.cell.Len(), j, k, p, ok, w)
			return
		}
		left[p]--
	}
	for p, n := range left {
		if n > 0 {
			fail("%v of a cell of %d points: %+v inside %+v never picked", d, c.cell.Len(), p, w)
		}
	}
}

// TestMutableBatchedRecountOnBoundaries drives NewMutable and ApplyOps,
// whose recounts go through the batched counter, over lattice points
// that sit on cell edges and window boundaries, with inserts and
// deletes landing on them too; CheckInvariants recounts every slot
// point by point after each batch.
func TestMutableBatchedRecountOnBoundaries(t *testing.T) {
	r := rng.New(9)
	const l = 4
	R, S := latticePoints(r, 400, l, 0), latticePoints(r, 400, l, 1<<20)
	m := mustNewMutable(t, R, S, Config{HalfExtent: l, Seed: 3})
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatalf("after NewMutable: %v", err)
	}
	gen := newChurnGen(R, S, latticePoints(r, 500, l, 0), 4)
	for i := 0; i < 40; i++ {
		var err error
		if m, err = m.Apply(gen.batch(6)); err != nil {
			t.Fatal(err)
		}
		if err := m.Index().CheckInvariants(); err != nil {
			t.Fatalf("after batch %d: %v", i, err)
		}
	}
}

// TestCheckInvariantsCatchesCorruptCount corrupts one live slot's
// cached counts, keeping its µ equal to their sum so the slot-tree sums
// stay consistent, and expects CheckInvariants' per-point recount to
// catch it.
func TestCheckInvariantsCatchesCorruptCount(t *testing.T) {
	r := rng.New(21)
	R := randomPoints(r, 300, 200, 0)
	S := randomPoints(r, 300, 200, 1<<20)
	ix := mustNewMutable(t, R, S, Config{HalfExtent: 15, Seed: 1}).Index()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("clean index: %v", err)
	}
	slot := int32(-1)
	for i := 0; i < ix.slots.Len(); i++ {
		if ix.slots.get(i).mu() > 0 {
			slot = int32(i)
			break
		}
	}
	if slot < 0 {
		t.Fatal("no slot with a positive count")
	}
	se := newSlotEdits(ix.slots, 0)
	rec := se.get(slot)
	rec.cnt[grid.Center]++
	se.set(slot, rec)
	bad := *ix
	bad.slots = se.commit()
	err := bad.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "cached counts") {
		t.Fatalf("corrupt count in slot %d: CheckInvariants = %v, want a cached-count mismatch", slot, err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("original version disturbed: %v", err)
	}
}
