package grid

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func randomPoints(r *rng.RNG, n int, lo, hi float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(lo, hi), Y: r.Range(lo, hi), ID: int32(i)}
	}
	return pts
}

func TestBuildRejectsBadSide(t *testing.T) {
	for _, side := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Build(nil, side); err == nil {
			t.Errorf("Build with side %g should fail", side)
		}
	}
}

func TestEmptyGrid(t *testing.T) {
	g, err := Build(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 0 || g.Len() != 0 {
		t.Fatalf("empty grid has %d cells, %d points", g.NumCells(), g.Len())
	}
	if g.Cell(g.KeyAt(5, 5)) != nil {
		t.Fatal("Cell on empty grid should be nil")
	}
}

func TestKeyAtNegativeCoordinates(t *testing.T) {
	g, _ := Build(nil, 10)
	tests := []struct {
		x, y float64
		want Key
	}{
		{0, 0, Key{0, 0}},
		{9.99, 9.99, Key{0, 0}},
		{10, 10, Key{1, 1}},
		{-0.01, -0.01, Key{-1, -1}},
		{-10, -10, Key{-1, -1}},
		{-10.01, 0, Key{-2, 0}},
	}
	for _, tc := range tests {
		if got := g.KeyAt(tc.x, tc.y); got != tc.want {
			t.Errorf("KeyAt(%g,%g) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestCellsPartitionPoints(t *testing.T) {
	r := rng.New(1)
	pts := randomPoints(r, 2000, -100, 100)
	g, err := Build(pts, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range g.NumCells() {
		c := g.ByIndex(int32(i))
		total += c.Len()
		rect := c.Rect(g.Side())
		for _, p := range c.XSorted {
			if g.KeyAt(p.X, p.Y) != c.Key {
				t.Fatalf("point %v in wrong cell %v", p, c.Key)
			}
			if !rect.Contains(p) {
				t.Fatalf("point %v outside cell rect %v", p, rect)
			}
		}
		if !sort.SliceIsSorted(c.XSorted, func(i, j int) bool { return c.XSorted[i].X < c.XSorted[j].X }) {
			t.Fatal("XSorted not sorted by x")
		}
		if ys := yRun(t, c); !sort.SliceIsSorted(ys, func(i, j int) bool { return ys[i].Y < ys[j].Y }) {
			t.Fatal("YOrder not in y order")
		}
	}
	if total != len(pts) {
		t.Fatalf("cells hold %d points, want %d", total, len(pts))
	}
}

func TestDirectionMetadata(t *testing.T) {
	if Center.Case() != 1 {
		t.Error("Center should be case 1")
	}
	for _, d := range []Direction{West, East, South, North} {
		if d.Case() != 2 {
			t.Errorf("%v should be case 2", d)
		}
	}
	for _, d := range []Direction{SouthWest, NorthWest, SouthEast, NorthEast} {
		if d.Case() != 3 {
			t.Errorf("%v should be case 3", d)
		}
	}
	if Direction(42).String() == "" || West.String() != "west" {
		t.Error("String() misbehaves")
	}
}

func TestNeighborOffsets(t *testing.T) {
	k := Key{CX: 10, CY: 20}
	if got := k.Neighbor(Center); got != k {
		t.Errorf("Center neighbor = %v", got)
	}
	if got := k.Neighbor(SouthWest); got != (Key{9, 19}) {
		t.Errorf("SouthWest = %v", got)
	}
	if got := k.Neighbor(NorthEast); got != (Key{11, 21}) {
		t.Errorf("NorthEast = %v", got)
	}
	if got := k.Neighbor(North); got != (Key{10, 21}) {
		t.Errorf("North = %v", got)
	}
	for d := Direction(0); d < NumDirections; d++ {
		if back := k.Neighbor(d).Neighbor(d.Opposite()); back != k {
			t.Errorf("%v then its opposite %v lands on %v", d, d.Opposite(), back)
		}
	}
}

// TestWindowCoveredByNeighborhood is the structural invariant the whole
// algorithm rests on: every point of S inside w(r) lies in the 3x3
// neighborhood of r's cell, and the center cell is fully covered.
func TestWindowCoveredByNeighborhood(t *testing.T) {
	r := rng.New(2)
	const l = 13.0
	pts := randomPoints(r, 3000, 0, 500)
	g, err := Build(pts, l)
	if err != nil {
		t.Fatal(err)
	}
	var nb [NumDirections]*Cell
	for trial := 0; trial < 200; trial++ {
		q := geom.Point{X: r.Range(0, 500), Y: r.Range(0, 500)}
		w := geom.Window(q, l)
		g.Neighborhood(q, &nb)
		inNeighborhood := make(map[int32]bool)
		for _, c := range nb {
			if c == nil {
				continue
			}
			for _, p := range c.XSorted {
				inNeighborhood[p.ID] = true
			}
		}
		for _, p := range pts {
			if w.Contains(p) && !inNeighborhood[p.ID] {
				t.Fatalf("point %v in window %v but outside 3x3 neighborhood of %v", p, w, q)
			}
		}
		// Case 1: center cell fully covered.
		if c := nb[Center]; c != nil {
			for _, p := range c.XSorted {
				if !w.Contains(p) {
					t.Fatalf("center-cell point %v not in window %v (q=%v)", p, w, q)
				}
			}
		}
	}
}

// TestCase2OneSided checks that for edge neighbors exactly one
// coordinate constraint is active: e.g. every point of the west cell
// already satisfies the window's y-range and x <= XMax.
func TestCase2OneSided(t *testing.T) {
	r := rng.New(3)
	const l = 9.0
	pts := randomPoints(r, 3000, 0, 300)
	g, err := Build(pts, l)
	if err != nil {
		t.Fatal(err)
	}
	var nb [NumDirections]*Cell
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{X: r.Range(0, 300), Y: r.Range(0, 300)}
		w := geom.Window(q, l)
		g.Neighborhood(q, &nb)
		check := func(c *Cell, free func(geom.Point) bool, name string) {
			if c == nil {
				return
			}
			for _, p := range c.XSorted {
				if !free(p) {
					t.Fatalf("%s cell point %v violates the supposedly-free constraint (w=%v)", name, p, w)
				}
			}
		}
		check(nb[West], func(p geom.Point) bool { return p.Y >= w.YMin && p.Y <= w.YMax && p.X <= w.XMax }, "west")
		check(nb[East], func(p geom.Point) bool { return p.Y >= w.YMin && p.Y <= w.YMax && p.X >= w.XMin }, "east")
		check(nb[South], func(p geom.Point) bool { return p.X >= w.XMin && p.X <= w.XMax && p.Y <= w.YMax }, "south")
		check(nb[North], func(p geom.Point) bool { return p.X >= w.XMin && p.X <= w.XMax && p.Y >= w.YMin }, "north")
	}
}

func TestCellBinarySearchHelpers(t *testing.T) {
	c := &Cell{
		XSorted: []geom.Point{{X: 1, Y: 5}, {X: 2, Y: 4}, {X: 2, Y: 3}, {X: 5, Y: 1}},
		YOrder:  []int32{3, 2, 1, 0},
	}
	if got := c.CountXAtLeast(2); got != 3 {
		t.Errorf("CountXAtLeast(2) = %d, want 3", got)
	}
	if got := c.CountXAtLeast(6); got != 0 {
		t.Errorf("CountXAtLeast(6) = %d, want 0", got)
	}
	if got := c.CountXAtMost(2); got != 3 {
		t.Errorf("CountXAtMost(2) = %d, want 3", got)
	}
	if got := c.CountXAtMost(0.5); got != 0 {
		t.Errorf("CountXAtMost(0.5) = %d, want 0", got)
	}
	if got := c.CountYAtLeast(3); got != 3 {
		t.Errorf("CountYAtLeast(3) = %d, want 3", got)
	}
	if got := c.CountYAtMost(4); got != 3 {
		t.Errorf("CountYAtMost(4) = %d, want 3", got)
	}
}

func TestQuickCountHelpersMatchBruteForce(t *testing.T) {
	r := rng.New(4)
	f := func(seed uint64, threshold float64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(50)
		pts := randomPoints(rr, n, 0, 10)
		// Duplicates stress the boundary handling.
		if n > 3 {
			pts[1].X = pts[0].X
			pts[2].X = pts[0].X
		}
		g, err := Build(pts, 10)
		if err != nil {
			return false
		}
		th := math.Mod(math.Abs(threshold), 10)
		ok := true
		for i := range g.NumCells() {
			c := g.ByIndex(int32(i))
			wantGE, wantLE := 0, 0
			for _, p := range c.XSorted {
				if p.X >= th {
					wantGE++
				}
				if p.X <= th {
					wantLE++
				}
			}
			if c.CountXAtLeast(th) != wantGE {
				ok = false
			}
			if c.CountXAtMost(th) != wantLE {
				ok = false
			}
			wantGE, wantLE = 0, 0
			for _, p := range yRun(t, c) {
				if p.Y >= th {
					wantGE++
				}
				if p.Y <= th {
					wantLE++
				}
			}
			if c.CountYAtLeast(th) != wantGE {
				ok = false
			}
			if c.CountYAtMost(th) != wantLE {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestSizeBytesGrows(t *testing.T) {
	r := rng.New(5)
	small, _ := Build(randomPoints(r, 100, 0, 100), 10)
	big, _ := Build(randomPoints(r, 10000, 0, 100), 10)
	if small.SizeBytes() <= 0 || big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("SizeBytes not monotone: small=%d big=%d", small.SizeBytes(), big.SizeBytes())
	}
}
