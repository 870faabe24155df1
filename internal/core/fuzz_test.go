package core

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"testing"

	"repro/internal/bbst"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rng"
)

// fuzzSide is the half extent, and so the grid cell side, of the
// FuzzMutableOps index. Its points sit on the integer lattice
// [0, 16)², so every multiple of fuzzSide is a cell edge and identical
// points come up often.
const fuzzSide = 4

// applyMutOracle applies one batch to a plain point list the way
// ApplyOps defines it: every point carrying a deleted ID goes, then the
// inserts are appended. live is not modified.
func applyMutOracle(live []geom.Point, del []int32, ins []geom.Point) []geom.Point {
	var out []geom.Point
	for _, p := range live {
		if !slices.Contains(del, p.ID) {
			out = append(out, p)
		}
	}
	return append(out, ins...)
}

func comparePoints(a, b geom.Point) int {
	return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.ID, b.ID))
}

// checkLive fails unless the version holds exactly the oracle's point
// multisets and passes its own invariant sweep.
func checkLive(t *testing.T, m *Mutable, wantR, wantS []geom.Point) {
	t.Helper()
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	gotR, gotS := m.LivePoints()
	for _, side := range []struct {
		name      string
		got, want []geom.Point
	}{{"R", gotR, wantR}, {"S", gotS, wantS}} {
		got, want := slices.Clone(side.got), slices.Clone(side.want)
		slices.SortFunc(got, comparePoints)
		slices.SortFunc(want, comparePoints)
		if !slices.Equal(got, want) {
			t.Fatalf("%s holds %d live points, oracle %d, or they differ", side.name, len(got), len(want))
		}
	}
}

// FuzzMutableOps runs fuzzed MutOps scripts through ApplyOps and
// checks, after every batch, the new version and the one before it:
// each must pass CheckInvariants (every touched cell's rebuilt BBST
// pair, the cached counts against a recount, the reverse indexes) and
// hold exactly the point sets a plain-list oracle says it should. The
// script is a list of (op, arg) byte pairs; its op codes reach
// repeated IDs, identical points, deletes of absent IDs, cells drained
// to empty and refilled, and coordinates on cell edges.
func FuzzMutableOps(f *testing.F) {
	// Inserts at cell corners and edges, split over two batches.
	f.Add(uint64(1), uint8(0), []byte{0x00, 0x00, 0x01, 0x44, 0x08, 0x88, 0x09, 0xcc, 0x07, 0x00, 0x00, 0x40, 0x01, 0x04})
	// Drain the cell around (5,5), then refill it in the next batch.
	f.Add(uint64(2), uint8(3), []byte{0x00, 0x55, 0x08, 0x56, 0x07, 0x00, 0x04, 0x55, 0x07, 0x00, 0x00, 0x55, 0x00, 0x65})
	// Identical copies of live points on both sides, then their IDs deleted.
	f.Add(uint64(3), uint8(1), []byte{0x05, 0x00, 0x05, 0x00, 0x06, 0x01, 0x07, 0x00, 0x02, 0x00, 0x03, 0x01, 0x05, 0x02})
	// Deletes of IDs no point carries, beside real ones.
	f.Add(uint64(4), uint8(2), []byte{0x02, 0x2f, 0x03, 0x2e, 0x02, 0x05, 0x07, 0x00, 0x03, 0x21, 0x00, 0x9a})
	// One ID reused across cells and sides, deleted and reinserted in one batch.
	f.Add(uint64(5), uint8(4), []byte{0x18, 0x11, 0x18, 0xee, 0x19, 0x3c, 0x07, 0x00, 0x02, 0x03, 0x18, 0x22, 0x03, 0x03})
	// Fill the R cell around (5,5), then drain it and refill it in one
	// batch, so the slots the drain frees are reused by the refill.
	f.Add(uint64(6), uint8(0), []byte{0x01, 0x55, 0x09, 0x56, 0x11, 0x66, 0x07, 0x00, 0x04, 0x55, 0x19, 0x55, 0x21, 0x77, 0x29, 0x45})
	// Grow the S cell around (5,5) past the scan threshold T (about 10
	// for this many points) in one batch, drain it, refill it and
	// delete its points one batch at a time back under T.
	grow := []byte{}
	for id := byte(20); id < 32; id++ {
		grow = append(grow, id<<3, 0x44+(id%4)+(id%3)<<4)
	}
	cross := append(slices.Clone(grow), 0x07, 0x00, 0x04, 0x55, 0x07, 0x00)
	cross = append(cross, grow...)
	for id := byte(20); id < 32; id += 3 {
		cross = append(cross, 0x07, 0x00, 0x02, id, 0x02, id+1, 0x02, id+2)
	}
	f.Add(uint64(7), uint8(0), cross)
	// Delete more than half of R in one batch, so ApplyOps repacks the R
	// side, then refill it, and delete and insert fewer than half, which
	// reuses the freed slots.
	shrink := []byte{0xf1, 0x3c, 0xf9, 0xc3}
	for id := byte(0); id < 10; id++ {
		shrink = append(shrink, id<<3|1, id*7)
	}
	shrink = append(shrink, 0x07, 0x00)
	for id := byte(0); id < 24; id++ {
		shrink = append(shrink, 0x03, id)
	}
	shrink = append(shrink, 0x00, 0x99, 0x07, 0x00)
	for id := byte(0); id < 12; id++ {
		shrink = append(shrink, id<<3|1, id*11)
	}
	shrink = append(shrink, 0x06, 0x01, 0x0e, 0x05, 0x07, 0x00, 0x03, 24, 0x03, 25, 0x03, 26, 0x61, 0x3a, 0x69, 0xc4)
	f.Add(uint64(26), uint8(2), shrink)
	f.Fuzz(func(t *testing.T, seed uint64, capRaw uint8, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		r := rng.New(seed)
		initial := func() []geom.Point {
			pts := make([]geom.Point, r.Intn(24))
			for i := range pts {
				pts[i] = geom.Point{X: float64(r.Intn(16)), Y: float64(r.Intn(16)), ID: int32(r.Intn(32))}
			}
			return pts
		}
		R, S := initial(), initial()
		m, err := NewMutable(R, S, Config{HalfExtent: fuzzSide, Seed: seed, BucketCap: int(capRaw % 5)})
		if err != nil {
			t.Fatal(err)
		}
		liveR, liveS := slices.Clone(R), slices.Clone(S)
		checkLive(t, m, liveR, liveS)
		var ops MutOps
		apply := func() {
			next, err := m.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			nextR := applyMutOracle(liveR, ops.DelR, ops.InsR)
			nextS := applyMutOracle(liveS, ops.DelS, ops.InsS)
			checkLive(t, next, nextR, nextS)
			checkLive(t, m, liveR, liveS)
			m, liveR, liveS, ops = next, nextR, nextS, MutOps{}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			// Op IDs are 0..31, the initial points' range; IDs 32..47
			// are deleted but never carried by any point.
			pt := geom.Point{X: float64(arg & 0x0f), Y: float64(arg >> 4), ID: int32(op >> 3)}
			switch op & 7 {
			case 0:
				ops.InsS = append(ops.InsS, pt)
			case 1:
				ops.InsR = append(ops.InsR, pt)
			case 2:
				ops.DelS = append(ops.DelS, int32(arg%48))
			case 3:
				ops.DelR = append(ops.DelR, int32(arg%48))
			case 4:
				// Drain pt's S and R cells: delete every ID live in them.
				k := grid.KeyFor(pt.X, pt.Y, fuzzSide)
				for _, q := range liveS {
					if grid.KeyFor(q.X, q.Y, fuzzSide) == k {
						ops.DelS = append(ops.DelS, q.ID)
					}
				}
				for _, q := range liveR {
					if grid.KeyFor(q.X, q.Y, fuzzSide) == k {
						ops.DelR = append(ops.DelR, q.ID)
					}
				}
			case 5:
				if len(liveS) > 0 {
					ops.InsS = append(ops.InsS, liveS[int(arg)%len(liveS)])
				}
			case 6:
				if len(liveR) > 0 {
					ops.InsR = append(ops.InsR, liveR[int(arg)%len(liveR)])
				}
			case 7:
				apply()
			}
		}
		apply()
	})
}

// FuzzCornerScan holds the corner scan of a small cell to brute force.
// The cell is the grid cell [0, 16)² at l = 16 with up to 64 points on
// the half-step lattice, so ties in both coordinates are common; the
// window's centre ranges over the 3×3 block around the cell and
// beyond, so the cell is a corner of the window, an edge of it, or
// apart from it. For each corner query it checks that the scan count
// equals the number of points inside the window, that picks 0..k-1
// enumerate exactly those points, and that the BBST over the same cell
// passes CheckInvariants, has a Mu of at least the count, and counts
// and reports exactly the buckets whose summaries match the corner.
func FuzzCornerScan(f *testing.F) {
	f.Add(uint8(0), uint8(2), int8(-7), int8(-7), []byte{0x00, 0x11, 0x12, 0x21, 0xff, 0x0f, 0xf0, 0x88})
	f.Add(uint8(3), uint8(1), int8(40), int8(40), []byte{0x55, 0x55, 0x56, 0x65, 0x00})
	f.Add(uint8(1), uint8(4), int8(-1), int8(33), []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60})
	f.Add(uint8(2), uint8(0), int8(32), int8(0), []byte{0xaa, 0xab, 0xba, 0xbb, 0x0a, 0xa0})
	f.Fuzz(func(t *testing.T, cornerRaw, capRaw uint8, rx, ry int8, coords []byte) {
		const l = 16
		if len(coords) > 64 {
			coords = coords[:64]
		}
		pts := make([]geom.Point, len(coords))
		for i, b := range coords {
			pts[i] = geom.Point{X: float64(b&0x0f) + float64(b>>7)/2, Y: float64(b>>4&7) * 2, ID: int32(i)}
		}
		slices.SortStableFunc(pts, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
		w := geom.Window(geom.Point{X: float64(rx) / 2, Y: float64(ry) / 2}, l)
		q := cornerFor(grid.SouthWest + grid.Direction(cornerRaw%4))

		var inside []geom.Point
		for _, p := range pts {
			if w.Contains(p) {
				inside = append(inside, p)
			}
		}
		k, _, _ := scanRun(pts, q, w, -1)
		if k != len(inside) {
			t.Fatalf("%v: scan counts %d, %d points inside %+v", q, k, len(inside), w)
		}
		var picked []geom.Point
		for j := range k {
			_, p, ok := scanRun(pts, q, w, j)
			if !ok {
				t.Fatalf("%v: pick %d of %d failed", q, j, k)
			}
			picked = append(picked, p)
		}
		if _, _, ok := scanRun(pts, q, w, k); ok {
			t.Fatalf("%v: pick %d succeeded past the count", q, k)
		}
		slices.SortFunc(picked, comparePoints)
		slices.SortFunc(inside, comparePoints)
		if !slices.Equal(picked, inside) {
			t.Fatalf("%v: picks %v, points inside %v", q, picked, inside)
		}
		if len(pts) == 0 {
			return
		}
		pair, err := bbst.Build(pts, 1+int(capRaw%6))
		if err != nil {
			t.Fatal(err)
		}
		if err := pair.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if mu := pair.Mu(q, w, nil); mu < k {
			t.Fatalf("%v: BBST Mu %d below the exact count %d", q, mu, k)
		}
		// A bucket matches when its summary meets the corner's two
		// sides; buckets are told apart by their first point's ID.
		want := map[int32]bool{}
		for _, b := range pair.Buckets() {
			xOK := b.MinX <= w.XMax
			if q == bbst.SouthWest || q == bbst.NorthWest {
				xOK = b.MaxX >= w.XMin
			}
			yOK := b.MinY <= w.YMax
			if q == bbst.SouthWest || q == bbst.SouthEast {
				yOK = b.MaxY >= w.YMin
			}
			if xOK && yOK {
				want[b.Pts[0].ID] = true
			}
		}
		if n := pair.CountBuckets(q, w, nil); n != len(want) {
			t.Fatalf("%v: BBST counts %d buckets, %d match %+v", q, n, len(want), w)
		}
		reported := map[int32]bool{}
		pair.ReportBuckets(q, w, nil, func(b bbst.Bucket) bool {
			if !want[b.Pts[0].ID] || reported[b.Pts[0].ID] {
				t.Fatalf("%v: BBST reports bucket %v, not a new match of %+v", q, b.Pts, w)
			}
			reported[b.Pts[0].ID] = true
			return true
		})
		if len(reported) != len(want) {
			t.Fatalf("%v: BBST reports %d buckets, %d match %+v", q, len(reported), len(want), w)
		}
	})
}

// chunkFixture is FuzzChunkedDraws' two handles' sources, built once
// per process: a frozen BBST sampler over nyc-shaped points, and a
// Mutable over the same points after 20 churn batches.
var chunkFixture = sync.OnceValues(func() (*BBSTSampler, *Mutable) {
	R, S := dataset.SplitRS(dataset.NYC(6000, 1), 0.5, 2)
	cfg := Config{HalfExtent: 100, Seed: 3}
	s, err := NewBBST(R, S, cfg)
	if err != nil {
		panic(err)
	}
	m, err := NewMutable(R, S, cfg)
	if err != nil {
		panic(err)
	}
	gen := newChurnGen(R, S, dataset.NYC(2000, 7), 5)
	for range 20 {
		if m, err = m.Apply(gen.batch(4)); err != nil {
			panic(err)
		}
	}
	return s, m
})

// FuzzChunkedDraws holds a seeded stream independent of how it is cut
// into calls: for a BBST clone and a churned Mutable reseeded with
// seed, SampleInto calls of the fuzzed chunk sizes (each byte mod 41,
// so 0–40 pairs) must return, concatenated, exactly what one SampleInto
// of the total and a Next loop return, with equal Iterations and
// Samples, although the lane groups leave pairs in the carry at
// different points of each; and one more pair must count at least one
// more trial.
func FuzzChunkedDraws(f *testing.F) {
	f.Add(uint64(1), []byte{1, 7, 8, 9})
	f.Add(uint64(2), bytes.Repeat([]byte{40}, 10))
	f.Add(uint64(3), []byte{0, 1, 0, 7, 9, 8, 8, 40, 3})
	f.Add(uint64(4), bytes.Repeat([]byte{1}, 17))
	f.Fuzz(func(t *testing.T, seed uint64, chunks []byte) {
		if len(chunks) > 64 {
			chunks = chunks[:64]
		}
		total := 0
		for _, c := range chunks {
			total += int(c % 41)
		}
		frozen, mut := chunkFixture()
		for _, src := range []Cloner{frozen, mut} {
			var h [3]Sampler
			for i := range h {
				c, err := src.Clone()
				if err != nil {
					t.Fatal(err)
				}
				c.(Reseeder).Reseed(seed)
				h[i] = c
			}
			var chunked []geom.Pair
			for _, c := range chunks {
				buf := make([]geom.Pair, c%41)
				if n, err := SampleInto(h[0], buf); err != nil || n != len(buf) {
					t.Fatalf("%s: chunk of %d: %d, %v", src.Name(), len(buf), n, err)
				}
				chunked = append(chunked, buf...)
			}
			whole := make([]geom.Pair, total)
			if n, err := SampleInto(h[1], whole); err != nil || n != total {
				t.Fatalf("%s: SampleInto of %d: %d, %v", src.Name(), total, n, err)
			}
			loop := make([]geom.Pair, total)
			for i := range loop {
				p, err := h[2].Next()
				if err != nil {
					t.Fatal(err)
				}
				loop[i] = p
			}
			if !slices.Equal(chunked, whole) || !slices.Equal(loop, whole) {
				t.Fatalf("%s: chunks %v draw a stream other than SampleInto of %d or a Next loop", src.Name(), chunks, total)
			}
			for i, s := range h[1:] {
				a, b := h[0].Stats(), s.Stats()
				if a.Iterations != b.Iterations || a.Samples != b.Samples {
					t.Fatalf("%s: chunked stats %d trials / %d samples, handle %d %d / %d",
						src.Name(), a.Iterations, a.Samples, i+1, b.Iterations, b.Samples)
				}
			}
			// Iterations counts the trials up to the last delivered pair,
			// so the next pair adds its own trials, carried or not.
			before := h[2].Stats().Iterations
			if _, err := h[2].Next(); err != nil {
				t.Fatal(err)
			}
			if h[2].Stats().Iterations <= before {
				t.Fatalf("%s: a pair delivered after %d counted no trial", src.Name(), total)
			}
		}
	})
}
