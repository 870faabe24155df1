package grid

import (
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// oracleCell rebuilds the expected cell naively: filter, append, sort.
func oracleCell(key Key, c *Cell, ins []geom.Point, drop func(geom.Point) bool) *Cell {
	var pts []geom.Point
	if c != nil {
		for _, p := range c.XSorted {
			if drop == nil || !drop(p) {
				pts = append(pts, p)
			}
		}
	}
	pts = append(pts, ins...)
	if len(pts) == 0 {
		return nil
	}
	xs := append([]geom.Point(nil), pts...)
	sort.SliceStable(xs, func(i, j int) bool { return xs[i].X < xs[j].X })
	ys := make([]int32, len(xs))
	for i := range ys {
		ys[i] = int32(i)
	}
	sort.SliceStable(ys, func(i, j int) bool { return xs[ys[i]].Y < xs[ys[j]].Y })
	return &Cell{Key: key, XSorted: xs, YOrder: ys}
}

func samePointSet(t *testing.T, label string, got, want []geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", label, len(got), len(want))
	}
	key := func(p geom.Point) [3]float64 { return [3]float64{p.X, p.Y, float64(p.ID)} }
	cnt := map[[3]float64]int{}
	for _, p := range want {
		cnt[key(p)]++
	}
	for _, p := range got {
		cnt[key(p)]--
		if cnt[key(p)] < 0 {
			t.Fatalf("%s: unexpected point %+v", label, p)
		}
	}
}

func checkSorted(t *testing.T, label string, pts []geom.Point, get func(geom.Point) float64) {
	t.Helper()
	for i := 1; i < len(pts); i++ {
		if get(pts[i-1]) > get(pts[i]) {
			t.Fatalf("%s: out of order at %d", label, i)
		}
	}
}

func randPts(r *rng.RNG, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 10), Y: r.Range(0, 10), ID: int32(r.Intn(1 << 20))}
	}
	return pts
}

func TestWithUpdatesVsOracle(t *testing.T) {
	r := rng.New(11)
	key := Key{CX: 3, CY: -2}
	for trial := 0; trial < 300; trial++ {
		var c *Cell
		if r.Bool(0.8) {
			base := randPts(r, r.Intn(30))
			c = oracleCell(key, nil, base, nil)
		}
		ins := randPts(r, r.Intn(10))
		var drop func(geom.Point) bool
		if r.Bool(0.6) {
			cut := r.Range(0, 10)
			drop = func(p geom.Point) bool { return p.X < cut }
		}
		var beforeX, beforeY []geom.Point
		if c != nil {
			beforeX = append([]geom.Point(nil), c.XSorted...)
			beforeY = yRun(t, c)
		}
		got := WithUpdates(key, c, ins, drop)
		want := oracleCell(key, c, ins, drop)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: nil mismatch got=%v want=%v", trial, got == nil, want == nil)
		}
		if got == nil {
			continue
		}
		if got.Key != key {
			t.Fatalf("trial %d: key %v", trial, got.Key)
		}
		samePointSet(t, "XSorted", got.XSorted, want.XSorted)
		samePointSet(t, "y order", yRun(t, got), yRun(t, want))
		checkSorted(t, "XSorted", got.XSorted, func(p geom.Point) float64 { return p.X })
		checkSorted(t, "y order", yRun(t, got), func(p geom.Point) float64 { return p.Y })
		if c != nil {
			if !sameBits(c.XSorted, beforeX) || !sameBits(yRun(t, c), beforeY) {
				t.Fatalf("trial %d: the original cell was mutated", trial)
			}
		}
	}
}

func TestWithUpdatesEdgeCases(t *testing.T) {
	key := Key{CX: 0, CY: 0}
	if got := WithUpdates(key, nil, nil, nil); got != nil {
		t.Fatal("empty in, empty out: want nil")
	}
	// Insert into a nil cell.
	ins := []geom.Point{{X: 2, Y: 1, ID: 1}, {X: 1, Y: 2, ID: 2}}
	got := WithUpdates(key, nil, ins, nil)
	if got == nil || len(got.XSorted) != 2 {
		t.Fatalf("insert into nil cell: %+v", got)
	}
	if got.XSorted[0].ID != 2 || yRun(t, got)[0].ID != 1 {
		t.Fatalf("orders wrong: X head %+v, Y head %+v", got.XSorted[0], yRun(t, got)[0])
	}
	// Drop everything -> nil.
	if got := WithUpdates(key, got, nil, func(geom.Point) bool { return true }); got != nil {
		t.Fatal("drop-all should return nil")
	}
	// ins slice must not be retained or reordered in place visible to caller.
	insCopy := append([]geom.Point(nil), ins...)
	_ = WithUpdates(key, nil, ins, nil)
	for i := range ins {
		if ins[i] != insCopy[i] {
			t.Fatalf("ins mutated at %d", i)
		}
	}
}

// TestWithUpdatesCountsAgree pins that a rebuilt cell answers the
// four count queries identically to a bulk-built one.
func TestWithUpdatesCountsAgree(t *testing.T) {
	r := rng.New(12)
	key := Key{CX: 1, CY: 1}
	c := oracleCell(key, nil, randPts(r, 40), nil)
	ins := randPts(r, 15)
	drop := func(p geom.Point) bool { return p.ID%3 == 0 }
	got := WithUpdates(key, c, ins, drop)
	want := oracleCell(key, c, ins, drop)
	for i := 0; i < 50; i++ {
		q := r.Range(-1, 11)
		if a, b := got.CountXAtLeast(q), want.CountXAtLeast(q); a != b {
			t.Fatalf("CountXAtLeast(%v) = %d, oracle %d", q, a, b)
		}
		if a, b := got.CountXAtMost(q), want.CountXAtMost(q); a != b {
			t.Fatalf("CountXAtMost(%v) = %d, oracle %d", q, a, b)
		}
		if a, b := got.CountYAtLeast(q), want.CountYAtLeast(q); a != b {
			t.Fatalf("CountYAtLeast(%v) = %d, oracle %d", q, a, b)
		}
		if a, b := got.CountYAtMost(q), want.CountYAtMost(q); a != b {
			t.Fatalf("CountYAtMost(%v) = %d, oracle %d", q, a, b)
		}
	}
}

// filterMergeCell is the copy-on-write rebuild WithUpdates replaced, on
// two point copies: each order is the old run minus the dropped points,
// merged with the inserted points sorted by sort.Slice (first by x,
// then that slice again by y), a kept point first on a tie.
func filterMergeCell(oldX, oldY, ins []geom.Point, drop func(geom.Point) bool) (xs, ys []geom.Point) {
	merge := func(old, ins []geom.Point, le func(a, b geom.Point) bool) []geom.Point {
		var dst []geom.Point
		i, j := 0, 0
		for i < len(old) || j < len(ins) {
			if i < len(old) && drop != nil && drop(old[i]) {
				i++
				continue
			}
			if j >= len(ins) || (i < len(old) && le(old[i], ins[j])) {
				dst = append(dst, old[i])
				i++
			} else {
				dst = append(dst, ins[j])
				j++
			}
		}
		return dst
	}
	insX := append([]geom.Point(nil), ins...)
	sort.Slice(insX, func(i, j int) bool { return insX[i].X < insX[j].X })
	xs = merge(oldX, insX, func(a, b geom.Point) bool { return a.X <= b.X })
	sort.Slice(insX, func(i, j int) bool { return insX[i].Y < insX[j].Y })
	ys = merge(oldY, insX, func(a, b geom.Point) bool { return a.Y <= b.Y })
	return xs, ys
}

// TestWithUpdatesYOrderMatchesFilterMerge runs random edit scripts,
// batches of inserts and deletes by ID over coordinates with many
// ties, through WithUpdates and through filterMergeCell, from a
// Build-made cell: after every batch both orders must be the reference
// runs bit for bit, ties in the reference's order.
func TestWithUpdatesYOrderMatchesFilterMerge(t *testing.T) {
	r := rng.New(13)
	key := Key{}
	nextID := int32(0)
	point := func() geom.Point {
		nextID++
		return geom.Point{X: float64(r.Intn(8)), Y: float64(r.Intn(8)), ID: nextID}
	}
	for script := range 200 {
		base := make([]geom.Point, r.Intn(40))
		for i := range base {
			base[i] = point()
		}
		var c *Cell
		var refX, refY []geom.Point
		if g, err := Build(base, 8); err == nil && g.NumCells() == 1 {
			c = g.ByIndex(0)
			refX, refY = c.XSorted, yRun(t, c)
		}
		for batch := range 1 + r.Intn(8) {
			ins := make([]geom.Point, r.Intn(12))
			for i := range ins {
				ins[i] = point()
			}
			dead := map[int32]bool{}
			for _, p := range refX {
				if r.Bool(0.3) {
					dead[p.ID] = true
				}
			}
			drop := func(p geom.Point) bool { return dead[p.ID] }
			if len(dead) == 0 {
				drop = nil
			}
			refX, refY = filterMergeCell(refX, refY, ins, drop)
			c = WithUpdates(key, c, ins, drop)
			if c == nil {
				if len(refX) != 0 {
					t.Fatalf("script %d batch %d: nil cell, reference holds %d points", script, batch, len(refX))
				}
				continue
			}
			if got := yRun(t, c); !sameBits(c.XSorted, refX) || !sameBits(got, refY) {
				t.Fatalf("script %d batch %d:\n x %v\n y %v\nreference\n x %v\n y %v", script, batch, c.XSorted, got, refX, refY)
			}
		}
	}
}
