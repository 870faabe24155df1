package core

import (
	"math"
	"slices"
	"sort"
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
	return slotRec{pt: geom.Point{X: float64(id), Y: r.Float64(), ID: id}, cnt: cnt}
}

// Trees past stChunk·stFan² slots need three internal levels.
const (
	twoLevelSlots = stChunk * stFan * stFan
	deepSlots     = 2*twoLevelSlots + 5
)

func randomRecs(seed uint64, n int) []slotRec {
	r := rng.New(seed)
	recs := make([]slotRec, n)
	for i := range recs {
		recs[i] = randomRec(r, int32(i))
	}
	return recs
}

// sameRec compares slots bit-for-bit (a free marker's X is NaN).
func sameRec(a, b slotRec) bool {
	return math.Float64bits(a.pt.X) == math.Float64bits(b.pt.X) && a.pt.Y == b.pt.Y &&
		a.pt.ID == b.pt.ID && a.cnt == b.cnt && a.mu() == b.mu()
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
		total += want[i].mu()
	}
	if tr.Total() != total {
		t.Fatalf("Total = %g, want %g", tr.Total(), total)
	}
	if err := tr.checkSums(); err != nil {
		t.Fatal(err)
	}
}

func TestSlotTreeBasics(t *testing.T) {
	for _, n := range []int{21, deepSlots} {
		want := randomRecs(1, n)
		tr := buildSlotTree(want)
		if n > twoLevelSlots && tr.height < 3 {
			t.Fatalf("%d slots built %d internal levels, want at least 3", n, tr.height)
		}
		checkTree(t, tr, want)
	}
}

func TestSlotTreeEmpty(t *testing.T) {
	empty := buildSlotTree(nil)
	checkTree(t, empty, nil)
	rec := slotRec{pt: geom.Point{X: 1, ID: 7}, cnt: dirCounts{2, 0, 3}}
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
		e := newSlotEdits(tr, 0)
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
		e := newSlotEdits(tr, 0)
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

// TestSlotTreeAppendGrowth appends one slot per version (and writes
// the same record to the middle slot) from empty past the two-level
// capacity, keeps the versions on both sides of each height change,
// and checks each still reads its own slots once the tip has grown
// taller.
func TestSlotTreeAppendGrowth(t *testing.T) {
	recs := randomRecs(11, twoLevelSlots+3)
	type version struct {
		tr   *slotTree
		want []slotRec
	}
	var kept []version
	var want []slotRec
	tr := buildSlotTree(nil)
	for _, rec := range recs {
		prev, n := tr, len(want)
		i := n / 2
		e := newSlotEdits(tr, 0)
		e.push(rec)
		e.set(int32(i), rec)
		want = append(want, rec)
		old := want[i]
		want[i] = rec
		tr = e.commit()
		if tr.Len() != n+1 {
			t.Fatalf("Len = %d after %d appends", tr.Len(), n+1)
		}
		if tr.height != prev.height {
			prevWant := slices.Clone(want[:n])
			if i < n {
				prevWant[i] = old
			}
			kept = append(kept, version{prev, prevWant}, version{tr, slices.Clone(want)})
		}
	}
	if tr.height != 3 || len(kept) != 6 {
		t.Fatalf("height %d after %d appends, %d versions kept; want 3 and 6", tr.height, tr.Len(), len(kept))
	}
	for _, v := range kept {
		checkTree(t, v.tr, v.want)
	}
	checkTree(t, tr, want)
}

// oracleSample is the selection rule on the flat slice: the first
// slot whose prefix sum exceeds u (it has positive µ), else the last
// slot with positive µ.
func oracleSample(recs []slotRec) func(u float64) int {
	prefix := make([]float64, len(recs))
	acc, last := 0.0, -1
	for i, rec := range recs {
		acc += rec.mu()
		prefix[i] = acc
		if rec.mu() > 0 {
			last = i
		}
	}
	return func(u float64) int {
		if i := sort.SearchFloat64s(prefix, math.Nextafter(u, math.Inf(1))); i < len(recs) {
			return i
		}
		return last
	}
}

// sampleVariates returns every multiple of 0.5 in [0, total+1] — each
// integer prefix-sum boundary, the points between them, and u at or
// past the total — and the float just below each.
func sampleVariates(total float64) []float64 {
	var us []float64
	for u := 0.0; u <= total+1; u += 0.5 {
		us = append(us, u)
		if u > 0 {
			us = append(us, math.Nextafter(u, -1))
		}
	}
	return us
}

// TestSlotTreeSampleMatchesPrefixSums pins sample to the flat rule at
// every sampleVariates point, on a one-level and a three-level tree.
func TestSlotTreeSampleMatchesPrefixSums(t *testing.T) {
	for _, n := range []int{75, deepSlots} {
		recs := randomRecs(5, n)
		tr := buildSlotTree(recs)
		oracle := oracleSample(recs)
		for _, u := range sampleVariates(tr.Total()) {
			want := oracle(u)
			if got := tr.sample(u); !sameRec(*got, recs[want]) {
				t.Fatalf("%d slots: sample(%g) = slot ID %d, want slot %d", n, u, got.pt.ID, want)
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
		if rec.mu() == 0 {
			if counts[rec.pt.ID] != 0 {
				t.Fatalf("zero-µ slot ID %d drawn %d times", rec.pt.ID, counts[rec.pt.ID])
			}
			continue
		}
		exp := draws * rec.mu() / tr.Total()
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
		{pt: geom.Point{ID: 0}},
		{pt: geom.Point{ID: 1}},
	})
	e := newSlotEdits(buildSlotTree([]slotRec{{pt: geom.Point{ID: 0}, cnt: dirCounts{1}}}), 0)
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
		recs[i] = slotRec{pt: geom.Point{ID: int32(i)}, cnt: dirCounts{1}}
	}
	tr := buildSlotTree(recs)
	e := newSlotEdits(tr, 0)
	for i := 4; i < 64; i++ {
		rec := slotRec{pt: geom.Point{ID: int32(i)}, cnt: dirCounts{}}
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
		e.set(int32(i), recs[i])
	}
	tr = e.commit()
	checkTree(t, tr, recs)
	chiSquareSlots(t, tr, recs, 9)
}

// TestSlotTreeCheckSumsRejectsCorruption corrupts one internal child
// sum at each level, the total, and one leaf µ, and expects checkSums
// to notice each.
func TestSlotTreeCheckSumsRejectsCorruption(t *testing.T) {
	tr := buildSlotTree(randomRecs(12, deepSlots))
	mid := tr.root.kids[0]
	bottom := mid.kids[1]
	corrupt := map[string]*float64{
		"root sum":   &tr.root.sums[1],
		"mid sum":    &mid.sums[2],
		"bottom sum": &bottom.sums[3],
		"total":      &tr.total,
		"leaf µ":     &bottom.leaves[4].mu[5],
	}
	for name, p := range corrupt {
		*p++
		if err := tr.checkSums(); err == nil {
			t.Errorf("checkSums accepted a corrupted %s", name)
		}
		*p--
		if err := tr.checkSums(); err != nil {
			t.Fatalf("after restoring the %s: %v", name, err)
		}
	}
}

// TestSlotTreeSampleShapeIndependent reaches the same records three
// ways — a bulk build, one push per version, and one random-order
// slotEdits batch over a taller tree whose extra slots it frees — and
// checks all three draw the same slot at every sampleVariates point.
func TestSlotTreeSampleShapeIndependent(t *testing.T) {
	const n = twoLevelSlots - 100
	recs := randomRecs(13, n)
	bulk := buildSlotTree(recs)

	pushed := buildSlotTree(nil)
	for _, rec := range recs {
		e := newSlotEdits(pushed, 0)
		e.push(rec)
		pushed = e.commit()
	}

	edited := buildSlotTree(randomRecs(14, deepSlots))
	r := rng.New(15)
	e := newSlotEdits(edited, 0)
	for _, i := range r.Perm(deepSlots) {
		rec := slotRec{pt: freeMarker(-1)}
		if i < n {
			rec = recs[i]
		}
		e.set(int32(i), rec)
	}
	edited = e.commit()

	if bulk.height == edited.height {
		t.Fatalf("the bulk and edited trees share height %d", bulk.height)
	}
	for _, tr := range []*slotTree{bulk, pushed, edited} {
		if err := tr.checkSums(); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range sampleVariates(bulk.Total()) {
		a, b, c := bulk.sample(u), pushed.sample(u), edited.sample(u)
		if !sameRec(*a, *b) || !sameRec(*a, *c) {
			t.Fatalf("sample(%g): bulk slot ID %d, pushed %d, edited %d", u, a.pt.ID, b.pt.ID, c.pt.ID)
		}
	}
}
