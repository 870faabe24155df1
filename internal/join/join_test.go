package join

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func randomPoints(r *rng.RNG, n int, extent float64, base int32) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, extent), Y: r.Range(0, extent), ID: base + int32(i)}
	}
	return pts
}

// pairKey canonicalizes a pair for set comparison.
func pairKey(r, s geom.Point) string { return fmt.Sprintf("%d|%d", r.ID, s.ID) }

func collect(run func(Emit)) map[string]int {
	out := map[string]int{}
	run(func(r, s geom.Point) bool {
		out[pairKey(r, s)]++
		return true
	})
	return out
}

func sameJoin(t *testing.T, name string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: pair %s count %d, want %d", name, k, got[k], c)
		}
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	r := rng.New(1)
	for _, tc := range []struct {
		n, m int
		l    float64
	}{
		{0, 10, 5}, {10, 0, 5}, {1, 1, 100}, {50, 80, 3}, {200, 150, 8}, {300, 300, 0.5},
	} {
		t.Run(fmt.Sprintf("n=%d,m=%d,l=%g", tc.n, tc.m, tc.l), func(t *testing.T) {
			R := randomPoints(r, tc.n, 50, 0)
			S := randomPoints(r, tc.m, 50, 10000)
			want := collect(func(e Emit) { BruteForce(R, S, tc.l, e) })
			sameJoin(t, "planesweep", collect(func(e Emit) { PlaneSweep(R, S, tc.l, e) }), want)
			if got := Size(R, S, tc.l); got != uint64(len(want)) {
				t.Fatalf("Size = %d, want %d", got, len(want))
			}
		})
	}
}

func TestBoundaryInclusive(t *testing.T) {
	// Points exactly on the window edge must join (closed predicate).
	R := []geom.Point{{X: 10, Y: 10, ID: 1}}
	S := []geom.Point{
		{X: 15, Y: 10, ID: 2},      // on right edge (l=5)
		{X: 5, Y: 5, ID: 3},        // on corner
		{X: 10, Y: 15.0001, ID: 4}, // just outside
	}
	for _, algo := range []struct {
		name string
		run  func(Emit)
	}{
		{"brute", func(e Emit) { BruteForce(R, S, 5, e) }},
		{"sweep", func(e Emit) { PlaneSweep(R, S, 5, e) }},
	} {
		got := collect(algo.run)
		if len(got) != 2 || got[pairKey(R[0], S[0])] != 1 || got[pairKey(R[0], S[1])] != 1 {
			t.Fatalf("%s: got %v", algo.name, got)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	r := rng.New(2)
	R := randomPoints(r, 50, 10, 0)
	S := randomPoints(r, 50, 10, 1000)
	for _, algo := range []struct {
		name string
		run  func(Emit)
	}{
		{"brute", func(e Emit) { BruteForce(R, S, 5, e) }},
		{"sweep", func(e Emit) { PlaneSweep(R, S, 5, e) }},
	} {
		count := 0
		algo.run(func(r, s geom.Point) bool {
			count++
			return count < 7
		})
		if count != 7 {
			t.Fatalf("%s: early stop emitted %d, want 7", algo.name, count)
		}
	}
}

func TestMaterialize(t *testing.T) {
	r := rng.New(4)
	R := randomPoints(r, 40, 20, 0)
	S := randomPoints(r, 40, 20, 1000)
	pairs := Materialize(R, S, 5)
	if uint64(len(pairs)) != Size(R, S, 5) {
		t.Fatalf("Materialize %d pairs, Size %d", len(pairs), Size(R, S, 5))
	}
	for _, p := range pairs {
		if !geom.InWindow(p.R, p.S, 5) {
			t.Fatalf("materialized invalid pair %v", p)
		}
	}
}

func TestQuickSweepEqualsBrute(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n, m := 1+rr.Intn(60), 1+rr.Intn(60)
		l := rr.Range(0.1, 10)
		R := randomPoints(rr, n, 20, 0)
		S := randomPoints(rr, m, 20, 1000)
		want := collect(func(e Emit) { BruteForce(R, S, l, e) })
		got := collect(func(e Emit) { PlaneSweep(R, S, l, e) })
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if got[k] != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetry(t *testing.T) {
	// |R join S| == |S join R| because the window size is shared.
	r := rng.New(7)
	R := randomPoints(r, 80, 15, 0)
	S := randomPoints(r, 90, 15, 1000)
	if a, b := Size(R, S, 3), Size(S, R, 3); a != b {
		t.Fatalf("join size not symmetric: %d vs %d", a, b)
	}
}

func TestInputsNotMutated(t *testing.T) {
	r := rng.New(8)
	R := randomPoints(r, 50, 10, 0)
	S := randomPoints(r, 50, 10, 1000)
	rCopy := append([]geom.Point(nil), R...)
	sCopy := append([]geom.Point(nil), S...)
	PlaneSweep(R, S, 2, func(geom.Point, geom.Point) bool { return true })
	_ = Size(R, S, 2)
	for i := range R {
		if R[i] != rCopy[i] {
			t.Fatal("R was mutated")
		}
	}
	for i := range S {
		if S[i] != sCopy[i] {
			t.Fatal("S was mutated")
		}
	}
	// Also verify points stay sorted-agnostic: sorting inside must be on copies.
	if sort.SliceIsSorted(R, func(i, j int) bool { return R[i].X < R[j].X }) != sort.SliceIsSorted(rCopy, func(i, j int) bool { return rCopy[i].X < rCopy[j].X }) {
		t.Fatal("R order changed")
	}
}

func BenchmarkPlaneSweep(b *testing.B) {
	r := rng.New(9)
	R := randomPoints(r, 20000, 10000, 0)
	S := randomPoints(r, 20000, 10000, 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Size(R, S, 100)
	}
}
