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
		t.Fatalf("YOrder lists %d positions for %d points", len(c.YOrder), len(c.XSorted))
	}
	seen := make([]bool, len(c.XSorted))
	run := make([]geom.Point, len(c.YOrder))
	for i, o := range c.YOrder {
		if o < 0 || int(o) >= len(seen) || seen[o] {
			t.Fatalf("YOrder[%d] = %d is out of range or repeated", i, o)
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
// identical bit for bit, CellLen their length; and the same Block
// answers for every key within two cells of an occupied one. NewCell
// over GroupByCell's grouping must give each cell the same runs, ties
// included, as the mutable index's build relies on.
func TestBuildMatchesMapReference(t *testing.T) {
	for _, in := range buildInputs() {
		ref := refRuns(in.pts, in.side)
		keys, starts, perm := GroupByCell(in.pts, in.side)
		for c, k := range keys {
			nc := NewCell(in.pts, perm[starts[c]:starts[c+1]])
			if want := ref[k]; !sameBits(nc.XSorted, want[0]) || !sameBits(yRun(t, nc), want[1]) {
				t.Fatalf("%s: NewCell of %v runs\n x %v\n y %v\nreference\n x %v\n y %v", in.name, k, nc.XSorted, yRun(t, nc), want[0], want[1])
			}
		}
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
	for i := range int32(g.NumCells()) {
		c, k := g.ByIndex(i), g.Key(i)
		want, ok := ref[k]
		switch {
		case !ok:
			t.Fatalf("cell %v is not in the reference", k)
		case !sameBits(c.XSorted, want[0]) || !sameBits(yRun(t, &c), want[1]):
			t.Fatalf("cell %v runs\n x %v\n y %v\nreference\n x %v\n y %v", k, c.XSorted, yRun(t, &c), want[0], want[1])
		case g.CellLen(i) != len(want[0]):
			t.Fatalf("cell %v: CellLen %d, reference %d points", k, g.CellLen(i), len(want[0]))
		}
		if i > 0 {
			p := g.Key(i - 1)
			if cmp.Or(cmp.Compare(p.CY, k.CY), cmp.Compare(p.CX, k.CX)) >= 0 {
				t.Fatalf("cell %v follows %v: not row-major", k, p)
			}
		}
	}
	for k := range ref {
		for dy := int32(-2); dy <= 2; dy++ {
			for dx := int32(-2); dx <= 2; dx++ {
				q := Key{CX: k.CX + dx, CY: k.CY + dy} // wraps as Neighbor does
				var idx [NumDirections]int32
				g.Block(q, &idx)
				for d := Direction(0); d < NumDirections; d++ {
					nk := q.Neighbor(d)
					want, ok := ref[nk]
					switch {
					case ok != (idx[d] >= 0):
						t.Fatalf("block of %v, %v: Block finds %d, reference holds %v: %v", q, d, idx[d], nk, ok)
					case ok && (g.Key(idx[d]) != nk || !sameBits(g.ByIndex(idx[d]).XSorted, want[0])):
						t.Fatalf("block of %v, %v: Block finds cell %v, want %v", q, d, g.Key(idx[d]), nk)
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
			if got := yRun(t, &c); !sameBits(got, want) {
				t.Fatalf("cell %v: y order\n %v\nsorted copy\n %v", g.Key(int32(i)), got, want)
			}
		}
	})
}

// TestBuildSizeBytesTracksHeap holds SizeBytes to between 0.8 and 1.25
// times the live heap a Build holds, as the core size tests hold the
// samplers, at about 1, 3 and 30 points per cell: the per-cell term
// weighs most at 1 point per cell, and the registry evicts by it.
func TestBuildSizeBytesTracksHeap(t *testing.T) {
	const n = 200_000
	r := rng.New(12)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 1000), Y: r.Range(0, 1000), ID: int32(i)}
	}
	var ms runtime.MemStats
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// 5 units² per point: a side-0.5 cell is rarely shared, a side-3.75
	// one holds about 3 points when occupied, a side-12.25 one about 30.
	for _, side := range []float64{0.5, 3.75, 12.25} {
		before := liveHeap()
		g, err := Build(pts, side)
		if err != nil {
			t.Fatal(err)
		}
		measured := liveHeap() - before
		est := g.SizeBytes()
		ratio := float64(est) / float64(measured)
		t.Logf("side %.3g: %d cells, %.1f points per cell: SizeBytes %d, live heap %d (%.2fx)",
			side, g.NumCells(), float64(n)/float64(g.NumCells()), est, measured, ratio)
		if ratio < 0.8 || ratio > 1.25 {
			t.Fatalf("side %g: SizeBytes %d vs live heap %d: ratio %.2f outside [0.8, 1.25]", side, est, measured, ratio)
		}
		runtime.KeepAlive(g)
	}
	runtime.KeepAlive(pts)
}
