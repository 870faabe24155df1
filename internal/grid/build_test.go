package grid

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// refRuns is the map-based grouping Build's radix sort replaced: each
// cell's points in input order, then sorted by x and, from that order,
// by y, as Build sorts them.
func refRuns(pts []geom.Point, side float64) map[Key][2][]geom.Point {
	byCell := make(map[Key][]geom.Point)
	for _, p := range pts {
		k := KeyFor(p.X, p.Y, side)
		byCell[k] = append(byCell[k], p)
	}
	ref := make(map[Key][2][]geom.Point, len(byCell))
	for k, run := range byCell {
		xs := slices.Clone(run)
		slices.SortFunc(xs, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
		ys := slices.Clone(xs)
		slices.SortFunc(ys, func(a, b geom.Point) int { return cmp.Compare(a.Y, b.Y) })
		ref[k] = [2][]geom.Point{xs, ys}
	}
	return ref
}

// yRun returns c's points in y order, XSorted through YOrder, and fails
// unless YOrder is a permutation of XSorted's positions.
func yRun(t testing.TB, c *Cell) []geom.Point {
	t.Helper()
	if len(c.YOrder) != len(c.XSorted) {
		t.Fatalf("cell %v: YOrder lists %d positions for %d points", c.Key, len(c.YOrder), len(c.XSorted))
	}
	seen := make([]bool, len(c.XSorted))
	run := make([]geom.Point, len(c.YOrder))
	for i, o := range c.YOrder {
		if o < 0 || int(o) >= len(seen) || seen[o] {
			t.Fatalf("cell %v: YOrder[%d] = %d is out of range or repeated", c.Key, i, o)
		}
		seen[o] = true
		run[i] = c.XSorted[o]
	}
	return run
}

// sameBits reports whether a and b hold the same points bit for bit,
// in the same order: -0 and +0 differ.
func sameBits(a, b []geom.Point) bool {
	return slices.EqualFunc(a, b, func(p, q geom.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) &&
			math.Float64bits(p.Y) == math.Float64bits(q.Y) && p.ID == q.ID
	})
}

// buildInputs are point sets that stress the grouping: cells on both
// sides of 0, coordinates tied within and across cells (±0 among
// them), duplicate points with equal and with distinct IDs, and cells
// at both ends of int32, where a row's neighbours wrap around.
func buildInputs() []struct {
	name string
	pts  []geom.Point
	side float64
} {
	r := rng.New(11)
	mixed := make([]geom.Point, 3000)
	for i := range mixed {
		mixed[i] = geom.Point{X: r.Range(-60, 45), Y: r.Range(-45, 60), ID: int32(i)}
	}
	negZero := math.Copysign(0, -1)
	var ties []geom.Point
	for i := range 2000 {
		p := geom.Point{X: float64(r.Intn(17)-8) * 1.75, Y: float64(r.Intn(17)-8) * 1.75, ID: int32(i)}
		switch r.Intn(6) {
		case 0:
			p.X = negZero
		case 1:
			p.Y = negZero
		}
		ties = append(ties, p)
	}
	var dups []geom.Point
	for i := range 400 {
		p := geom.Point{X: r.Range(-20, 20), Y: r.Range(-20, 20), ID: int32(i)}
		dups = append(dups, p, p) // equal IDs
		p.ID += 1000
		dups = append(dups, p) // a distinct ID
	}
	r.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })
	lo, hi := float64(math.MinInt32), float64(math.MaxInt32)
	var wrap []geom.Point
	for i, c := range [][2]float64{
		{lo, 0}, {hi, 0}, {hi + 0.5, 0.5}, {lo + 1, 0}, {hi - 1, 0}, {0, 0},
		{lo, lo}, {hi, hi}, {lo, hi}, {hi, lo}, {hi, 1}, {lo, -1}, {lo + 0.5, 1},
	} {
		wrap = append(wrap, geom.Point{X: c[0], Y: c[1], ID: int32(i)})
	}
	return []struct {
		name string
		pts  []geom.Point
		side float64
	}{
		{"mixed-sign", mixed, 7},
		{"ties", ties, 3.5},
		{"duplicates", dups, 2.5},
		{"int32-ends", wrap, 1},
		{"one-point", mixed[:1], 7},
		{"empty", nil, 7},
	}
}

// TestBuildMatchesMapReference builds each input at GOMAXPROCS 1 and 4
// and holds the grid to the map-based reference grouping: the same
// cell keys, in row-major order, with Index their position; runs
// identical bit for bit; and the same Cell, Block and Neighborhood
// answers for every key within two cells of an occupied one.
func TestBuildMatchesMapReference(t *testing.T) {
	for _, in := range buildInputs() {
		ref := refRuns(in.pts, in.side)
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", in.name, procs), func(t *testing.T) {
				var g *Grid
				var err error
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					g, err = BuildWorkers(in.pts, in.side, 0)
				}()
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstRef(t, g, ref)
			})
		}
	}
}

// checkAgainstRef fails unless g holds exactly ref's cells and answers
// every lookup around them as ref does.
func checkAgainstRef(t *testing.T, g *Grid, ref map[Key][2][]geom.Point) {
	t.Helper()
	if g.NumCells() != len(ref) {
		t.Fatalf("%d cells, reference %d", g.NumCells(), len(ref))
	}
	for i := range g.NumCells() {
		c := g.ByIndex(int32(i))
		want, ok := ref[c.Key]
		switch {
		case c.Index != int32(i):
			t.Fatalf("cell %v at %d has Index %d", c.Key, i, c.Index)
		case !ok:
			t.Fatalf("cell %v is not in the reference", c.Key)
		case !sameBits(c.XSorted, want[0]) || !sameBits(yRun(t, c), want[1]):
			t.Fatalf("cell %v runs\n x %v\n y %v\nreference\n x %v\n y %v", c.Key, c.XSorted, yRun(t, c), want[0], want[1])
		}
		if i > 0 {
			p := g.ByIndex(int32(i - 1)).Key
			if cmp.Or(cmp.Compare(p.CY, c.Key.CY), cmp.Compare(p.CX, c.Key.CX)) >= 0 {
				t.Fatalf("cell %v follows %v: not row-major", c.Key, p)
			}
		}
	}
	lookup := func(k Key) *Cell {
		c := g.Cell(k)
		want, ok := ref[k]
		switch {
		case ok != (c != nil):
			t.Fatalf("Cell(%v) = %v, reference holds it: %v", k, c, ok)
		case c != nil && (c.Key != k || !sameBits(c.XSorted, want[0])):
			t.Fatalf("Cell(%v) finds cell %v", k, c.Key)
		}
		return c
	}
	for k := range ref {
		for dy := int32(-2); dy <= 2; dy++ {
			for dx := int32(-2); dx <= 2; dx++ {
				q := Key{CX: k.CX + dx, CY: k.CY + dy} // wraps as Neighbor does
				lookup(q)
				var idx [NumDirections]int32
				g.Block(q, &idx)
				var nb [NumDirections]*Cell
				g.Neighborhood(geom.Point{X: (float64(q.CX) + 0.5) * g.Side(), Y: (float64(q.CY) + 0.5) * g.Side()}, &nb)
				for d := Direction(0); d < NumDirections; d++ {
					want := lookup(q.Neighbor(d))
					var got *Cell
					if idx[d] >= 0 {
						got = g.ByIndex(idx[d])
					}
					if got != want || nb[d] != want {
						t.Fatalf("block of %v, %v: Block finds %d, Neighborhood %v, Cell %v", q, d, idx[d], nb[d], want)
					}
				}
			}
		}
	}
}

// FuzzBuildYOrder holds Build's YOrder to the y order it replaced: a
// copy of each cell's x-sorted run, sorted by y. Coordinates come from
// a few values, so ties in y (and in x) are common, and IDs are
// distinct, so every tie's order shows: XSorted through YOrder must be
// that copy bit for bit, ties included.
func FuzzBuildYOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 2, 2, 1, 1, 0})
	f.Add([]byte{3, 1, 3, 1, 3, 1, 3, 1, 7, 1, 7, 1, 0, 9, 5, 1, 2, 1, 4, 1, 6, 1, 8, 1, 1, 1, 9, 1})
	r := rng.New(7)
	seed := make([]byte, 400)
	for i := range seed {
		seed[i] = byte(r.Intn(6))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, in []byte) {
		pts := make([]geom.Point, len(in)/2)
		for i := range pts {
			// Values 0..15 in steps of 0.5, over cells of side 4.
			pts[i] = geom.Point{X: float64(in[2*i]%32) / 2, Y: float64(in[2*i+1]%32) / 2, ID: int32(i)}
		}
		g, err := Build(pts, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.NumCells() {
			c := g.ByIndex(int32(i))
			want := slices.Clone(c.XSorted)
			slices.SortFunc(want, func(a, b geom.Point) int { return cmp.Compare(a.Y, b.Y) })
			if got := yRun(t, c); !sameBits(got, want) {
				t.Fatalf("cell %v: y order\n %v\nsorted copy\n %v", c.Key, got, want)
			}
		}
	})
}

// TestBuildKeptCellPinsItsRunAndPositions: a cell kept from a dropped
// grid pins its own x run and the grid's one array of y positions, 4 B
// per point of the build, never the other cells' x runs (24 B per
// point), so a mutable version that still serves a few adopted cells
// holds at most 4·m bytes beyond them.
func TestBuildKeptCellPinsItsRunAndPositions(t *testing.T) {
	const n = 200_000 // 4.8 MB of x runs, 0.8 MB of positions
	r := rng.New(12)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 1000), Y: r.Range(0, 1000), ID: int32(i)}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := Build(pts, 10) // 10,000 cells of about 20 points
	if err != nil {
		t.Fatal(err)
	}
	keep := *g.ByIndex(0)
	g = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	runtime.KeepAlive(pts)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 4*n+256<<10 {
		t.Fatalf("one kept cell of %d points retains %d KB of a %d-point build", keep.Len(), retained>>10, n)
	}
}
