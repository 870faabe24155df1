package bbst

import (
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// FuzzBucketOps drives random insert/delete sequences against the
// in-place maintenance path and checks, after every operation, the
// full structural invariants plus agreement with a plain point-list
// oracle; at the end, exact corner queries are cross-checked against a
// from-scratch bulk build of the surviving points. Each op byte picks
// insert vs delete (and which victim); coordinates come from a PCG
// stream seeded by the fuzzed seed, so the corpus stays tiny while
// covering splits, merges, steals, bucket death, and the depth hatch.
func FuzzBucketOps(f *testing.F) {
	f.Add(uint64(1), uint8(4), []byte{0x00})
	f.Add(uint64(2), uint8(1), []byte{0x10, 0x91, 0x22, 0xb3, 0x44, 0xd5})
	f.Add(uint64(3), uint8(5), []byte("insert-delete-insert-delete-churn"))
	f.Add(uint64(4), uint8(7), []byte{
		0x01, 0x81, 0x02, 0x82, 0x03, 0x83, 0x04, 0x84,
		0x05, 0x85, 0x06, 0x86, 0x07, 0x87, 0x08, 0x88,
	})
	f.Add(uint64(42), uint8(3), []byte{0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, seed uint64, capRaw uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		bucketCap := int(capRaw)%12 + 1
		r := rng.New(seed)
		// Seed population: a bulk build over 0..n points.
		n := r.Intn(64)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: r.Range(0, 16), Y: r.Range(0, 16), ID: int32(i)}
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		p, err := Build(pts, bucketCap)
		if err != nil {
			t.Fatal(err)
		}
		live := append([]geom.Point(nil), pts...)
		nextID := int32(1000)
		for step, op := range ops {
			if op&0x80 != 0 && len(live) > 0 {
				i := int(op&0x7f) % len(live)
				if !p.Delete(live[i]) {
					t.Fatalf("step %d: live point %v not found", step, live[i])
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				// Low bits shape the coordinate distribution so equal and
				// boundary values (duplicate keys, equal-y runs) come up.
				var pt geom.Point
				switch op & 0x03 {
				case 0:
					pt = geom.Point{X: r.Range(0, 16), Y: r.Range(0, 16)}
				case 1:
					pt = geom.Point{X: float64(int(op>>2) % 8), Y: r.Range(0, 16)}
				case 2:
					pt = geom.Point{X: r.Range(0, 16), Y: float64(int(op>>2) % 8)}
				default:
					pt = geom.Point{X: float64(int(op>>4) % 4), Y: float64(int(op>>2) % 4)}
				}
				pt.ID = nextID
				nextID++
				p.Insert(pt)
				live = append(live, pt)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if p.NumPoints() != len(live) {
				t.Fatalf("step %d: NumPoints %d, oracle %d", step, p.NumPoints(), len(live))
			}
		}
		// Final oracle sweep: exact queries vs a from-scratch build.
		sorted := append([]geom.Point(nil), live...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
		fresh, err := Build(sorted, bucketCap)
		if err != nil {
			t.Fatal(err)
		}
		var s1, s2 Scratch
		for trial := 0; trial < 8; trial++ {
			w := geom.Window(geom.Point{X: r.Range(0, 16), Y: r.Range(0, 16)}, r.Range(0.2, 8))
			for _, c := range allCorners {
				got := map[int32]bool{}
				p.ReportPoints(c, w, &s1, func(pt geom.Point) bool { got[pt.ID] = true; return true })
				want := map[int32]bool{}
				fresh.ReportPoints(c, w, &s2, func(pt geom.Point) bool { want[pt.ID] = true; return true })
				if len(got) != len(want) {
					t.Fatalf("%v: churned %d points, fresh %d", c, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("%v: missing point %d", c, id)
					}
				}
				exact := 0
				for _, pt := range live {
					if cornerPredicate(c, w)(pt) {
						exact++
					}
				}
				if mu := p.Mu(c, w, &s1); exact > mu {
					t.Fatalf("%v: exact %d > µ %d", c, exact, mu)
				}
			}
		}
	})
}
