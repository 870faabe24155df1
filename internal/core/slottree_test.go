package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// randomRec returns a live slot with small random counts (zero with
// probability ~1/3 per direction, all-zero now and then).
func randomRec(r *rng.RNG, id int32) slotRec {
	var cnt dirCounts
	if r.Intn(5) > 0 {
		for d := range cnt {
			if r.Intn(3) > 0 {
				cnt[d] = int32(r.Intn(6))
			}
		}
	}
	return newSlotRec(geom.Point{X: float64(id), Y: r.Float64(), ID: id}, cnt)
}

// sameRec compares slots bit-for-bit (a free marker's X is NaN).
func sameRec(a, b slotRec) bool {
	return math.Float64bits(a.pt.X) == math.Float64bits(b.pt.X) && a.pt.Y == b.pt.Y &&
		a.pt.ID == b.pt.ID && a.cnt == b.cnt && a.mu == b.mu
}

// checkTree compares a version against its flat oracle: every slot,
// Len, Total and the sum invariants.
func checkTree(t *testing.T, tr *slotTree, want []slotRec) {
	t.Helper()
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	total := 0.0
	for i := range want {
		if got := *tr.get(i); !sameRec(got, want[i]) {
			t.Fatalf("slot %d = %+v, want %+v", i, got, want[i])
		}
		total += want[i].mu
	}
	if tr.Total() != total {
		t.Fatalf("Total = %g, want %g", tr.Total(), total)
	}
	if err := tr.checkSums(); err != nil {
		t.Fatal(err)
	}
}

func TestSlotTreeBasics(t *testing.T) {
	r := rng.New(1)
	want := make([]slotRec, 21)
	for i := range want {
		want[i] = randomRec(r, int32(i))
	}
	checkTree(t, buildSlotTree(want), want)
}

func TestSlotTreeEmpty(t *testing.T) {
	empty := buildSlotTree(nil)
	checkTree(t, empty, nil)
	rec := newSlotRec(geom.Point{X: 1, ID: 7}, dirCounts{2, 0, 3})
	one := empty.setMany([]int32{0}, []slotRec{rec})
	checkTree(t, one, []slotRec{rec})
	checkTree(t, empty, nil) // the receiver is untouched
}

func TestSlotTreeGetOutOfRangePanics(t *testing.T) {
	tr := buildSlotTree(make([]slotRec, 3))
	for _, i := range []int{-1, 3, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("get(%d) on a 3-slot tree did not panic", i)
				}
			}()
			tr.get(i)
		}()
	}
}

// TestSlotTreeSetAppend drives single and batched writes and appends
// through slotEdits against the flat oracle.
func TestSlotTreeSetAppend(t *testing.T) {
	r := rng.New(2)
	var want []slotRec
	tr := buildSlotTree(nil)
	for step := 0; step < 300; step++ {
		e := newSlotEdits(tr)
		for k := r.Intn(6); k >= 0; k-- {
			if len(want) > 0 && r.Intn(3) > 0 {
				i := r.Intn(len(want))
				rec := randomRec(r, int32(1000*step+k))
				e.set(int32(i), rec)
				want[i] = rec
			} else {
				rec := randomRec(r, int32(1000*step+k))
				if got := e.push(rec); int(got) != len(want) {
					t.Fatalf("push returned slot %d, want %d", got, len(want))
				}
				want = append(want, rec)
			}
		}
		tr = e.commit()
	}
	checkTree(t, tr, want)
	checkTree(t, buildSlotTree(want), want)
}

// TestSlotTreeVersionIsolation keeps every intermediate version and
// checks each still reads its own slots after later edits.
func TestSlotTreeVersionIsolation(t *testing.T) {
	r := rng.New(3)
	base := make([]slotRec, 40)
	for i := range base {
		base[i] = randomRec(r, int32(i))
	}
	tr := buildSlotTree(base)
	versions := []*slotTree{tr}
	oracles := [][]slotRec{append([]slotRec(nil), base...)}
	cur := append([]slotRec(nil), base...)
	for step := 0; step < 200; step++ {
		e := newSlotEdits(tr)
		if r.Bool(0.5) {
			i := r.Intn(len(cur))
			rec := randomRec(r, int32(100+step))
			e.set(int32(i), rec)
			cur[i] = rec
		} else {
			rec := randomRec(r, int32(100+step))
			e.push(rec)
			cur = append(cur, rec)
		}
		tr = e.commit()
		versions = append(versions, tr)
		oracles = append(oracles, append([]slotRec(nil), cur...))
	}
	for i, v := range versions {
		checkTree(t, v, oracles[i])
	}
}

func TestSlotTreeAppendGrowth(t *testing.T) {
	r := rng.New(4)
	tr := buildSlotTree(nil)
	var want []slotRec
	for i := 0; i < 300; i++ {
		e := newSlotEdits(tr)
		rec := randomRec(r, int32(i))
		e.push(rec)
		want = append(want, rec)
		tr = e.commit()
		if tr.Len() != i+1 {
			t.Fatalf("Len = %d after %d appends", tr.Len(), i+1)
		}
	}
	checkTree(t, tr, want)
}

// oracleSample is the selection rule on the flat slice: the slot with
// positive µ whose prefix-sum interval holds u, else the last slot
// with positive µ.
func oracleSample(recs []slotRec, u float64) int {
	acc, last := 0.0, -1
	for i, rec := range recs {
		if rec.mu == 0 {
			continue
		}
		acc += rec.mu
		last = i
		if u < acc {
			return i
		}
	}
	return last
}

// TestSlotTreeSampleMatchesPrefixSums pins sample to the flat rule for
// every integer boundary, points just inside them, and u at or past
// the total.
func TestSlotTreeSampleMatchesPrefixSums(t *testing.T) {
	r := rng.New(5)
	recs := make([]slotRec, 75)
	for i := range recs {
		recs[i] = randomRec(r, int32(i))
	}
	tr := buildSlotTree(recs)
	total := tr.Total()
	for u := 0.0; u <= total+1; u += 0.5 {
		for _, v := range []float64{u, math.Nextafter(u, -1)} {
			if v < 0 {
				continue
			}
			want := oracleSample(recs, v)
			if got := tr.sample(v); !sameRec(*got, recs[want]) {
				t.Fatalf("sample(%g) = slot ID %d, want slot %d", v, got.pt.ID, want)
			}
		}
	}
}

// chiSquareSlots draws from tr and chi-squares the slot frequencies
// against µ, failing if a zero-µ slot is ever drawn.
func chiSquareSlots(t *testing.T, tr *slotTree, want []slotRec, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	const draws = 200000
	counts := make(map[int32]int)
	for i := 0; i < draws; i++ {
		counts[tr.sample(r.Float64()*tr.Total()).pt.ID]++
	}
	chi2, dof := 0.0, -1
	for _, rec := range want {
		if rec.mu == 0 {
			if counts[rec.pt.ID] != 0 {
				t.Fatalf("zero-µ slot ID %d drawn %d times", rec.pt.ID, counts[rec.pt.ID])
			}
			continue
		}
		exp := draws * rec.mu / tr.Total()
		d := float64(counts[rec.pt.ID]) - exp
		chi2 += d * d / exp
		dof++
	}
	if limit := float64(dof) + 5*math.Sqrt(2*float64(dof)) + 10; chi2 > limit {
		t.Fatalf("chi-square %.1f over %d dof (limit %.1f)", chi2, dof, limit)
	}
}

func TestSlotTreeSampleDistribution(t *testing.T) {
	r := rng.New(6)
	recs := make([]slotRec, 50)
	for i := range recs {
		recs[i] = randomRec(r, int32(i))
	}
	chiSquareSlots(t, buildSlotTree(recs), recs, 7)
}

// TestSlotTreeSampleZeroTotalPanics checks that sample refuses a tree
// with nothing to draw: empty, all slots zero-µ, and all slots freed.
func TestSlotTreeSampleZeroTotalPanics(t *testing.T) {
	zero := buildSlotTree([]slotRec{
		newSlotRec(geom.Point{ID: 0}, dirCounts{}),
		newSlotRec(geom.Point{ID: 1}, dirCounts{}),
	})
	e := newSlotEdits(buildSlotTree([]slotRec{newSlotRec(geom.Point{ID: 0}, dirCounts{1})}))
	e.set(0, slotRec{pt: freeMarker(-1)})
	freed := e.commit()
	for name, tr := range map[string]*slotTree{"empty": buildSlotTree(nil), "zero": zero, "freed": freed} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("sample on the %s tree did not panic", name)
				}
			}()
			tr.sample(0)
		}()
	}
}

// TestSlotTreeSampleAfterMutation kills the original slots, appends
// zero slots and revives a few, then checks the distribution tracks
// the tip.
func TestSlotTreeSampleAfterMutation(t *testing.T) {
	r := rng.New(8)
	recs := make([]slotRec, 4)
	for i := range recs {
		recs[i] = newSlotRec(geom.Point{ID: int32(i)}, dirCounts{1})
	}
	tr := buildSlotTree(recs)
	e := newSlotEdits(tr)
	for i := 4; i < 64; i++ {
		rec := newSlotRec(geom.Point{ID: int32(i)}, dirCounts{})
		e.push(rec)
		recs = append(recs, rec)
	}
	for i := 0; i < 4; i++ {
		recs[i] = slotRec{pt: freeMarker(-1)}
		e.set(int32(i), recs[i])
	}
	for _, i := range []int{17, 40, 63} {
		recs[i] = randomRec(r, int32(i))
		recs[i].cnt[0]++
		recs[i] = newSlotRec(recs[i].pt, recs[i].cnt)
		e.set(int32(i), recs[i])
	}
	tr = e.commit()
	checkTree(t, tr, recs)
	chiSquareSlots(t, tr, recs, 9)
}
