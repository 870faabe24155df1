package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/rng"
)

func mustUnfreeze(t *testing.T, R, S []geom.Point, cfg Config) *Mutable {
	t.Helper()
	s, err := NewBBST(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Count(); err != nil {
		t.Fatal(err)
	}
	m, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenMutableDigest pins the seeded draw stream of the mutable index:
// FNV-64a over every draw and the live point order of the script in
// mutableScriptDigest, as produced by an implementation with a separate
// point vector and weight tree, over balanced BBST buckets in cells of
// more than T = 2⌈log₂ m⌉ points and an exact scan of smaller cells,
// with every touched cell's structure rebuilt from its new run, trials
// run in lane groups of laneN = 8 with a carry, and the slots laid out
// cell by cell at Unfreeze (slot order is part of the descent's map
// from variate to slot, and of LivePoints' order, so that layout moved
// it). Any change to the maintained µ, the bucket boundaries, the scan
// threshold, the slot order, the directory order or the trial's use of
// the random stream (laneN and the phase order included) moves it.
const goldenMutableDigest uint64 = 0x53594492d98dc736

// churnGen deals out fixed-shape churn batches: per side, k deletes of
// random live IDs and k inserts of fresh IDs at points drawn from a
// pool.
type churnGen struct {
	r            *rng.RNG
	liveR, liveS []int32
	pool         []geom.Point
	nextID       int32
}

func newChurnGen(R, S, pool []geom.Point, seed uint64) *churnGen {
	g := &churnGen{r: rng.New(seed), pool: pool, nextID: 1 << 20}
	for _, p := range R {
		g.liveR = append(g.liveR, p.ID)
	}
	for _, p := range S {
		g.liveS = append(g.liveS, p.ID)
	}
	return g
}

func (g *churnGen) pick(live *[]int32) int32 {
	i := g.r.Intn(len(*live))
	id := (*live)[i]
	(*live)[i] = (*live)[len(*live)-1]
	*live = (*live)[:len(*live)-1]
	return id
}

func (g *churnGen) fresh() geom.Point {
	p := g.pool[g.r.Intn(len(g.pool))]
	p.ID = g.nextID
	g.nextID++
	return p
}

func (g *churnGen) batch(k int) MutOps {
	var ops MutOps
	for i := 0; i < k; i++ {
		ops.DelR = append(ops.DelR, g.pick(&g.liveR))
		ops.DelS = append(ops.DelS, g.pick(&g.liveS))
	}
	for i := 0; i < k; i++ {
		pR, pS := g.fresh(), g.fresh()
		ops.InsR = append(ops.InsR, pR)
		ops.InsS = append(ops.InsS, pS)
		g.liveR = append(g.liveR, pR.ID)
		g.liveS = append(g.liveS, pS.ID)
	}
	return ops
}

// mutableScriptDigest unfreezes nyc-shaped points, applies a fixed
// 200-batch churn script and hashes seeded draws from several versions
// (including one superseded version) plus LivePoints order.
func mutableScriptDigest(t *testing.T) uint64 {
	R, S := dataset.SplitRS(dataset.NYC(20000, 1), 0.5, 2)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 100, Seed: 17})
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putPt := func(p geom.Point) {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
		put(uint64(uint32(p.ID)))
	}
	draw := func(m *Mutable, seed uint64) {
		m.Reseed(seed)
		pairs, err := m.Sample(500)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			putPt(p.R)
			putPt(p.S)
		}
		put(math.Float64bits(m.Stats().MuSum))
	}
	gen := newChurnGen(R, S, dataset.NYC(4000, 7), 3)
	old := m
	for batch := 0; batch < 200; batch++ {
		nm, err := m.Apply(gen.batch(4))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		m = nm
		if batch%50 == 49 {
			draw(m, uint64(batch))
		}
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	draw(old, 1)
	gotR, gotS := m.LivePoints()
	for _, p := range gotR {
		putPt(p)
	}
	for _, p := range gotS {
		putPt(p)
	}
	return h.Sum64()
}

// TestMutableGoldenDigest holds seeded mutable draws byte-identical
// across rewrites of the index's internals.
func TestMutableGoldenDigest(t *testing.T) {
	if got := mutableScriptDigest(t); got != goldenMutableDigest {
		t.Fatalf("draw digest %#x, golden %#x — seeded mutable draws changed", got, goldenMutableDigest)
	}
}

func TestUnfreezeMatchesFrozen(t *testing.T) {
	r := rng.New(1)
	l := 6.0
	R := randomPoints(r, 120, 100, 0)
	S := randomPoints(r, 150, 100, 10000)
	s, err := NewBBST(R, S, Config{HalfExtent: l, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Count(); err != nil {
		t.Fatal(err)
	}
	m, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Stats().MuSum, s.Stats().MuSum; got != want {
		t.Fatalf("MuSum after unfreeze %g, frozen %g", got, want)
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatalf("invariants after unfreeze: %v", err)
	}
	// The frozen sampler must keep answering after mutations of the
	// unfrozen line (cells are cloned copy-on-write before edits).
	nm, err := m.Apply(MutOps{DelS: []int32{S[0].ID, S[1].ID}, InsS: randomPoints(r, 5, 100, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Index().CheckInvariants(); err != nil {
		t.Fatalf("invariants after apply: %v", err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("frozen sampler broken by unfrozen mutations: %v", err)
	}
}

// drawLive verifies n draws all land in the exact live join and
// returns the per-pair counts.
func drawLive(t *testing.T, m *Mutable, R, S []geom.Point, l float64, n int) map[string]int {
	t.Helper()
	livePairs := make(map[string]bool)
	join.BruteForce(R, S, l, func(r, s geom.Point) bool {
		livePairs[pairID(geom.Pair{R: r, S: s})] = true
		return true
	})
	if len(livePairs) == 0 {
		t.Fatal("test setup: empty live join")
	}
	counts := make(map[string]int, len(livePairs))
	for i := 0; i < n; i++ {
		p, err := m.Next()
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		id := pairID(p)
		if !livePairs[id] {
			t.Fatalf("draw %d: pair %s is not in the live join", i, id)
		}
		counts[id]++
	}
	return counts
}

func TestMutableChurnVsOracle(t *testing.T) {
	r := rng.New(2)
	l := 7.0
	R := randomPoints(r, 100, 100, 0)
	S := randomPoints(r, 120, 100, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: l, Seed: 3})

	liveR := append([]geom.Point(nil), R...)
	liveS := append([]geom.Point(nil), S...)
	nextID := int32(50000)
	for batch := 0; batch < 60; batch++ {
		var ops MutOps
		// Deletes: up to 3 per side, drawn from the live sets.
		for k := 0; k < 3 && len(liveR) > 20; k++ {
			i := r.Intn(len(liveR))
			ops.DelR = append(ops.DelR, liveR[i].ID)
			liveR = append(liveR[:i], liveR[i+1:]...)
		}
		for k := 0; k < 3 && len(liveS) > 20; k++ {
			i := r.Intn(len(liveS))
			ops.DelS = append(ops.DelS, liveS[i].ID)
			liveS = append(liveS[:i], liveS[i+1:]...)
		}
		// Inserts: up to 4 per side.
		for k := 0; k < 2+r.Intn(3); k++ {
			p := geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100), ID: nextID}
			nextID++
			ops.InsR = append(ops.InsR, p)
			liveR = append(liveR, p)
		}
		for k := 0; k < 2+r.Intn(3); k++ {
			p := geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100), ID: nextID}
			nextID++
			ops.InsS = append(ops.InsS, p)
			liveS = append(liveS, p)
		}
		nm, err := m.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		m = nm
		if batch%10 == 0 {
			if err := m.Index().CheckInvariants(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nr, ns := m.Index().NumR(), m.Index().NumS(); nr != len(liveR) || ns != len(liveS) {
		t.Fatalf("live counts (%d,%d), oracle (%d,%d)", nr, ns, len(liveR), len(liveS))
	}
	// Materialized sets must match the oracle as multisets.
	gotR, gotS := m.LivePoints()
	if len(gotR) != len(liveR) || len(gotS) != len(liveS) {
		t.Fatalf("LivePoints (%d,%d), oracle (%d,%d)", len(gotR), len(gotS), len(liveR), len(liveS))
	}
	wantR := make(map[geom.Point]int)
	for _, p := range liveR {
		wantR[p]++
	}
	for _, p := range gotR {
		wantR[p]--
		if wantR[p] < 0 {
			t.Fatalf("unexpected live R point %+v", p)
		}
	}
	// MuSum must upper-bound the exact live join size.
	jsize := float64(join.Size(liveR, liveS, l))
	if m.Stats().MuSum < jsize {
		t.Fatalf("MuSum %g below exact join size %g", m.Stats().MuSum, jsize)
	}
	// Every draw lands in the live join, and coverage is broad.
	m.Reseed(77)
	counts := drawLive(t, m, liveR, liveS, l, 30000)
	jint := int(jsize)
	if len(counts) < jint*7/10 {
		t.Fatalf("draws covered %d of %d live pairs", len(counts), jint)
	}
}

// TestMutableUniformityAfterChurn checks pair-level uniformity over
// the live join after 40 churn batches, at every scanSettings T; a
// non-default T must leave the churned index at least one BBST cell.
func TestMutableUniformityAfterChurn(t *testing.T) {
	for _, set := range scanSettings {
		t.Run(set.name, func(t *testing.T) { mutableUniformityAfterChurn(t, set.name, set.mk) })
	}
}

func mutableUniformityAfterChurn(t *testing.T, setting string, mk func(R, S []geom.Point, cfg Config) (*BBSTSampler, error)) {
	r := rng.New(4)
	l := 10.0
	R := randomPoints(r, 40, 60, 0)
	S := randomPoints(r, 50, 60, 10000)
	s, err := mk(R, S, Config{HalfExtent: l, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	liveR, liveS := append([]geom.Point(nil), R...), append([]geom.Point(nil), S...)
	nextID := int32(90000)
	for batch := 0; batch < 40; batch++ {
		var ops MutOps
		if len(liveS) > 15 {
			i := r.Intn(len(liveS))
			ops.DelS = append(ops.DelS, liveS[i].ID)
			liveS = append(liveS[:i], liveS[i+1:]...)
		}
		if len(liveR) > 15 {
			i := r.Intn(len(liveR))
			ops.DelR = append(ops.DelR, liveR[i].ID)
			liveR = append(liveR[:i], liveR[i+1:]...)
		}
		pR := geom.Point{X: r.Range(0, 60), Y: r.Range(0, 60), ID: nextID}
		pS := geom.Point{X: r.Range(0, 60), Y: r.Range(0, 60), ID: nextID + 1}
		nextID += 2
		ops.InsR = append(ops.InsR, pR)
		ops.InsS = append(ops.InsS, pS)
		liveR = append(liveR, pR)
		liveS = append(liveS, pS)
		m, err = m.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if n := mutableBBSTCells(m.Index()); setting != "default" && n == 0 {
		t.Fatal("test setup: no S cell has a BBST pair after the churn")
	}
	jsize := int(join.Size(liveR, liveS, l))
	if jsize < 50 {
		t.Skipf("join too small for a chi-square (%d pairs)", jsize)
	}
	draws := 200 * jsize
	if draws > 400000 {
		draws = 400000
	}
	m.Reseed(123)
	counts := drawLive(t, m, liveR, liveS, l, draws)
	expected := float64(draws) / float64(jsize)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// Pairs never drawn contribute expected each.
	chi2 += float64(jsize-len(counts)) * expected
	dof := float64(jsize - 1)
	if chi2 > 2*dof+100 {
		t.Fatalf("chi2 %.1f over %0.f dof — draws not uniform after churn", chi2, dof)
	}
}

func TestMutableEqualSeedDeterminism(t *testing.T) {
	build := func() *Mutable {
		r := rng.New(5)
		R := randomPoints(r, 80, 80, 0)
		S := randomPoints(r, 90, 80, 10000)
		m := mustUnfreeze(t, R, S, Config{HalfExtent: 8, Seed: 21})
		for batch := 0; batch < 20; batch++ {
			ops := MutOps{
				InsR: randomPoints(r, 2, 80, 20000+int32(batch)*10),
				InsS: randomPoints(r, 2, 80, 30000+int32(batch)*10),
				DelR: []int32{int32(batch)},
				DelS: []int32{10000 + int32(batch)},
			}
			var err error
			m, err = m.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
		}
		m.Reseed(99)
		return m
	}
	a, b := build(), build()
	for i := 0; i < 500; i++ {
		pa, errA := a.Next()
		pb, errB := b.Next()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("draw %d: error mismatch %v vs %v", i, errA, errB)
		}
		if pa != pb {
			t.Fatalf("draw %d: %+v vs %+v — equal seeds diverged", i, pa, pb)
		}
	}
}

func TestMutableVersionIsolation(t *testing.T) {
	r := rng.New(6)
	l := 8.0
	R := randomPoints(r, 70, 70, 0)
	S := randomPoints(r, 80, 70, 10000)
	old := mustUnfreeze(t, R, S, Config{HalfExtent: l, Seed: 31})
	oldMu := old.Stats().MuSum

	cur := old
	for batch := 0; batch < 30; batch++ {
		var err error
		cur, err = cur.Apply(MutOps{
			InsS: randomPoints(r, 3, 70, 40000+int32(batch)*10),
			DelS: []int32{10000 + int32(batch)},
			InsR: randomPoints(r, 2, 70, 50000+int32(batch)*10),
			DelR: []int32{int32(batch)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The old version still validates and still answers only from the
	// ORIGINAL point sets.
	if err := old.Index().CheckInvariants(); err != nil {
		t.Fatalf("old version corrupted by later applies: %v", err)
	}
	if got := old.Stats().MuSum; got != oldMu {
		t.Fatalf("old version MuSum drifted: %g vs %g", got, oldMu)
	}
	old.Reseed(7)
	drawLive(t, old, R, S, l, 3000)
}

func TestMutableDrainAndRefill(t *testing.T) {
	r := rng.New(7)
	R := randomPoints(r, 30, 40, 0)
	S := randomPoints(r, 30, 40, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 20, Seed: 1})
	// Drain R entirely.
	var ops MutOps
	for _, p := range R {
		ops.DelR = append(ops.DelR, p.ID)
	}
	m, err := m.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().MuSum != 0 {
		t.Fatalf("MuSum %g after draining R", m.Stats().MuSum)
	}
	if _, err := m.Next(); !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("Next on drained index: %v", err)
	}
	// A drained index keeps no dead slots: the batch that left more dead
	// slots than live ones repacked the slot array down to nothing.
	if got := m.Index().slots.Len(); got != 0 {
		t.Fatalf("slot array holds %d slots after draining R", got)
	}
	refill := randomPoints(r, len(R), 40, 60000)
	m, err = m.Apply(MutOps{InsR: refill})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Index().slots.Len(); got != len(refill) {
		t.Fatalf("slot array holds %d slots after refilling %d points", got, len(refill))
	}
	// Deleting fewer than half the points keeps their slots on the free
	// list, and a refill reuses them rather than appending.
	ops = MutOps{}
	for _, p := range refill[:len(refill)/3] {
		ops.DelR = append(ops.DelR, p.ID)
	}
	if m, err = m.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Index().nFree, len(ops.DelR); got != want {
		t.Fatalf("%d free slots after deleting %d of %d points", got, want, len(refill))
	}
	m, err = m.Apply(MutOps{InsR: randomPoints(r, len(ops.DelR), 40, 70000)})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Index().slots.Len(); got != len(refill) {
		t.Fatalf("slot array grew %d -> %d despite %d free slots", len(refill), got, len(ops.DelR))
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Reseed(5)
	if _, err := m.Next(); err != nil {
		t.Fatalf("draw after refill: %v", err)
	}
}

// TestMutableBucketCapTracksLiveCount: a batch that grows S 17× sizes
// the buckets of every cell it rebuilds from the new live count, so
// Σµ equals that of a fresh bulk build over the same live points.
func TestMutableBucketCapTracksLiveCount(t *testing.T) {
	r := rng.New(14)
	R := randomPoints(r, 300, 60, 0)
	S := randomPoints(r, 100, 60, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 2})
	m, err := m.Apply(MutOps{InsS: randomPoints(r, 1600, 60, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	liveR, liveS := m.LivePoints()
	fresh, err := NewBBST(liveR, liveS, Config{HalfExtent: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Count(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Stats().MuSum, fresh.Stats().MuSum; got != want {
		t.Fatalf("Σµ after 17x S growth %g, fresh build %g", got, want)
	}
}

func TestMutableCloneIndependence(t *testing.T) {
	r := rng.New(9)
	R := randomPoints(r, 60, 60, 0)
	S := randomPoints(r, 60, 60, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 13})
	c1, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Clones share structures but draw independent streams.
	p1, err1 := c1.Next()
	p2, err2 := c2.Next()
	if err1 != nil || err2 != nil {
		t.Fatalf("clone draws: %v, %v", err1, err2)
	}
	_ = p1
	_ = p2
	// Reseeding both identically makes them agree.
	c1.(*Mutable).Reseed(42)
	c2.(*Mutable).Reseed(42)
	for i := 0; i < 100; i++ {
		q1, e1 := c1.Next()
		q2, e2 := c2.Next()
		if e1 != nil || e2 != nil || q1 != q2 {
			t.Fatalf("reseeded clones diverged at %d", i)
		}
	}
}

// TestMutableDeleteMissingPointFails: a delete of a point that sids
// lists but its cell lacks fails the batch instead of publishing a
// version whose ID index and cells disagree.
func TestMutableDeleteMissingPointFails(t *testing.T) {
	r := rng.New(12)
	R := randomPoints(r, 40, 50, 0)
	S := randomPoints(r, 40, 50, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 2})
	ix := *m.Index()
	ghost := geom.Point{X: S[0].X, Y: S[0].Y, ID: 99999}
	ix.sids = ix.sids.With(ghost.ID, grid.KeyFor(ghost.X, ghost.Y, ix.side))
	if _, err := ix.ApplyOps(MutOps{DelS: []int32{ghost.ID}}); err == nil {
		t.Fatal("deleting a point missing from its cell succeeded")
	}
}

// TestMutableRCellListsChecked: CheckInvariants rejects an R cell list
// entry that is free, of another cell or listed twice, and a delete of
// a slot its cell does not list fails the batch.
func TestMutableRCellListsChecked(t *testing.T) {
	r := rng.New(13)
	R := randomPoints(r, 40, 50, 0)
	S := randomPoints(r, 40, 50, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 2})
	m, err := m.Apply(MutOps{DelR: []int32{R[0].ID}}) // frees slot 0
	if err != nil {
		t.Fatal(err)
	}
	base := m.Index()
	if err := base.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var k grid.Key
	var list []int32
	base.rcells.Range(func(ck grid.Key, slots []int32) bool {
		k, list = ck, slots
		return len(slots) < 3
	})
	if len(list) < 3 {
		t.Fatal("no R cell lists three slots")
	}
	// A slot of another cell that lists at least two, moved into list.
	var fk grid.Key
	var fl []int32
	foreign := int32(-1)
	for i := 1; i < len(R) && foreign < 0; i++ {
		fk = grid.KeyFor(R[i].X, R[i].Y, base.side)
		if fl, _ = base.rcells.Get(fk); fk != k && len(fl) >= 2 {
			foreign = int32(i)
		}
	}
	if foreign < 0 {
		t.Fatal("no other R cell lists two slots")
	}
	for _, tc := range []struct {
		name  string
		edits map[grid.Key][]int32
	}{
		{"free", map[grid.Key][]int32{k: append([]int32{0}, list[1:]...)}},
		{"foreign", map[grid.Key][]int32{
			k:  append(slices.Clone(list), foreign),
			fk: slices.DeleteFunc(slices.Clone(fl), func(s int32) bool { return s == foreign }),
		}},
		{"duplicate", map[grid.Key][]int32{k: append(slices.Clone(list), list[0])}},
	} {
		ix := *base
		for ek, el := range tc.edits {
			ix.rcells = ix.rcells.With(ek, el)
		}
		if err := ix.CheckInvariants(); err == nil {
			t.Errorf("%s entry: CheckInvariants passed", tc.name)
		}
	}
	ix := *base
	ix.rcells = ix.rcells.With(k, slices.Delete(slices.Clone(list), 1, 2))
	victim := base.slots.get(int(list[1])).pt
	if _, err := ix.ApplyOps(MutOps{DelR: []int32{victim.ID}}); err == nil {
		t.Fatal("deleting a slot its cell does not list succeeded")
	}
}

// TestMutableSIDsChecked: CheckInvariants rejects an S ID directory
// that misses a live point's entry, lists one twice, or files it under
// another cell.
func TestMutableSIDsChecked(t *testing.T) {
	r := rng.New(14)
	R := randomPoints(r, 40, 50, 0)
	S := randomPoints(r, 40, 50, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 2})
	m, err := m.Apply(MutOps{InsS: []geom.Point{{X: S[1].X, Y: S[1].Y, ID: S[0].ID}}}) // a repeated ID
	if err != nil {
		t.Fatal(err)
	}
	base := m.Index()
	if err := base.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	id := S[0].ID
	keys := base.sids.Get(id)
	if len(keys) != 2 {
		t.Fatalf("ID %d lists %d cells, want 2", id, len(keys))
	}
	var other grid.Key
	for _, p := range S {
		if other = grid.KeyFor(p.X, p.Y, base.side); other != keys[0] && other != keys[1] {
			break
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*grid.IDDir[grid.Key]) *grid.IDDir[grid.Key]
	}{
		{"missing", func(d *grid.IDDir[grid.Key]) *grid.IDDir[grid.Key] { return d.Without(id).With(id, keys[0]) }},
		{"extra", func(d *grid.IDDir[grid.Key]) *grid.IDDir[grid.Key] { return d.With(id, keys[1]) }},
		{"misplaced", func(d *grid.IDDir[grid.Key]) *grid.IDDir[grid.Key] {
			return d.Without(id).With(id, keys[0]).With(id, other)
		}},
		{"ID dropped", func(d *grid.IDDir[grid.Key]) *grid.IDDir[grid.Key] { return d.Without(S[2].ID) }},
	} {
		ix := *base
		ix.sids = tc.edit(ix.sids)
		if err := ix.CheckInvariants(); err == nil {
			t.Errorf("%s entry: CheckInvariants passed", tc.name)
		}
	}
}

// TestMutableReuseSlotInSameCell covers a batch whose R insert reuses
// the slot its R delete just freed, in the same cell: the slot must be
// listed once in the cell's reverse list, not twice.
func TestMutableReuseSlotInSameCell(t *testing.T) {
	r := rng.New(11)
	R := randomPoints(r, 40, 50, 0)
	S := randomPoints(r, 40, 50, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 2})
	for i, p := range R[:5] {
		q := geom.Point{X: p.X, Y: p.Y, ID: int32(900 + i)}
		var err error
		m, err = m.Apply(MutOps{DelR: []int32{p.ID}, InsR: []geom.Point{q}})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Index().CheckInvariants(); err != nil {
			t.Fatalf("after reusing slot %d: %v", i, err)
		}
	}
}

// TestMutableSizeBytesTracksHeap holds the SizeBytes estimate to
// between 0.8 and 1.25 times the live heap a sampler holds on its own:
// the frozen sampler after Count, the index freshly unfrozen from it
// (the frozen sampler dropped) and after 100 churn batches (every
// superseded version dropped). The input points belong to the caller
// and stay alive throughout, so they are not measured. The registry
// charges engines and stores these estimates against its budget.
func TestMutableSizeBytesTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50k x 50k index")
	}
	R, S := dataset.SplitRS(dataset.NYC(100000, 1), 0.5, 2)
	gen := newChurnGen(R, S, dataset.NYC(4000, 7), 3)
	check := sizeChecker(t)
	s, err := NewBBST(R, S, Config{HalfExtent: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Count(); err != nil {
		t.Fatal(err)
	}
	check("frozen", s)
	m, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	check("unfrozen", m)
	for batch := 0; batch < 100; batch++ {
		if m, err = m.Apply(gen.batch(16)); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	check("after 100 churn batches", m)
	runtime.KeepAlive(R)
	runtime.KeepAlive(S)
	// The churn generator's ID lists were allocated before the
	// baseline. Kept live to the end, they cancel out of every reading,
	// instead of leaving the churned one once the last batch is drawn.
	runtime.KeepAlive(gen)
}

// TestScanCellsHaveNoCorner builds S cells of T-1, T, T+1 and T+2
// points around the scan threshold T: exactly the cells of at most T
// points must have no corner structure (nil), in the frozen sampler
// and in the index unfrozen from it, whose CheckInvariants holds the
// same rule.
func TestScanCellsHaveNoCorner(t *testing.T) {
	const m, l = 100, 10.0
	T := scanMax(defaultScanC, m)
	r := rng.New(31)
	var S []geom.Point
	for c, n := range []int{T - 1, T, T + 1, T + 2} {
		for range n {
			S = append(S, geom.Point{X: r.Range(0, l) + float64(2*c)*l, Y: r.Range(0, l), ID: int32(len(S))})
		}
	}
	for len(S) < m { // one-point cells, far from the rest
		S = append(S, geom.Point{X: float64(2*len(S)) * l, Y: 50 * l, ID: int32(len(S))})
	}
	R := randomPoints(r, 60, 8*l, 1000)
	s, err := NewBBST(R, S, Config{HalfExtent: l, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Count(); err != nil {
		t.Fatal(err)
	}
	for i, ci := range s.corners {
		if n := s.g.CellLen(int32(i)); (ci == nil) != (n <= T) {
			t.Errorf("cell of %d points, T = %d: corner structure %T", n, T, ci)
		}
	}
	mu, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	if err := mu.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenSizeBytesTracksHeap holds the frozen sampler's SizeBytes to
// between 0.8 and 1.25 times its live heap at the keyspread workload's
// shape, nyc with 25k points per side, at both ends of its l range: at
// l = 50 the average cell holds under three points and at l = 200
// about thirteen, so the per-cell and the per-point charges both
// count. The registry evicts engines by these estimates.
func TestFrozenSizeBytesTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 25k x 25k samplers")
	}
	R, S := dataset.SplitRS(dataset.NYC(50000, 1), 0.5, 2)
	for _, l := range []float64{50, 200} {
		check := sizeChecker(t)
		s, err := NewBBST(R, S, Config{HalfExtent: l, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Count(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("l=%g", l), s)
	}
	runtime.KeepAlive(R)
	runtime.KeepAlive(S)
}

// TestUnfreezeKeptCellOwnsItsRuns: an S cell kept from a mutable
// version, after the version and the frozen sampler it was unfrozen
// from are dropped, retains its own two runs, header and corner
// structure, never the frozen grid's arrays (28 B per frozen S point)
// or the frozen pair's buckets: Unfreeze copies each cell's runs into
// arrays of its own and moves its BBST pair over the copy. The bound
// is the kept cell's own bytes plus 64 KB; the grid's arrays alone are
// 5.6 MB here.
func TestUnfreezeKeptCellOwnsItsRuns(t *testing.T) {
	const n = 200_000
	r := rng.New(12)
	S := randomPoints(r, n, 1000, 0)
	R := randomPoints(r, 1000, 1000, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// Cells of side 16 hold about 51 points, above T = 2⌈log₂ n⌉ = 36,
	// so the largest has a BBST pair.
	s, err := NewBBST(R, S, Config{HalfExtent: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	keep := dirCell{cell: &grid.Cell{}}
	m.Index().scells.Range(func(_ grid.Key, c dirCell) bool {
		if c.cell.Len() > keep.cell.Len() {
			keep = c
		}
		return true
	})
	if _, ok := keep.corner.(bbstCorner); !ok {
		t.Fatalf("largest cell of %d points has no BBST pair", keep.cell.Len())
	}
	own := int64(28*keep.cell.Len() + cornerBytes(keep.corner) + 64)
	s, m = nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	runtime.KeepAlive(R)
	runtime.KeepAlive(S)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("kept cell of %d points: own %d B, retained %d B", keep.cell.Len(), own, retained)
	if retained > own+64<<10 {
		t.Fatalf("one kept cell of %d points (%d B of its own) retains %d KB of a %d-point build", keep.cell.Len(), own, retained>>10, n)
	}
}

// sizeChecker takes a live-heap baseline and returns a check that holds
// a structure's SizeBytes to between 0.8 and 1.25 times the live heap
// allocated since, which the structure must hold on its own.
func sizeChecker(t *testing.T) func(name string, s interface{ SizeBytes() int }) {
	var ms runtime.MemStats
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	return func(name string, s interface{ SizeBytes() int }) {
		t.Helper()
		measured := liveHeap() - before
		est := int64(s.SizeBytes())
		runtime.KeepAlive(s)
		ratio := float64(est) / float64(measured)
		t.Logf("%s: SizeBytes %d, live heap %d (%.2fx)", name, est, measured, ratio)
		if ratio < 0.8 || ratio > 1.25 {
			t.Fatalf("%s: SizeBytes %d vs live heap %d: ratio %.2f outside [0.8, 1.25]", name, est, measured, ratio)
		}
	}
}

// TestMutableScanCellCrossesThreshold grows one S cell past the scan
// threshold T by inserts, then drains it back under T, over several
// batches. Every batch must leave a version that passes
// CheckInvariants, gives the cell a BBST pair exactly while it holds
// more than T points, and has the Σµ of a fresh NewBBST over its live
// points. Draws at the peak and at the end must be uniform over the
// live join.
func TestMutableScanCellCrossesThreshold(t *testing.T) {
	r := rng.New(25)
	const l = 10.0
	cfg := Config{HalfExtent: l, Seed: 6}
	R := randomPoints(r, 150, 60, 0)
	S := randomPoints(r, 150, 60, 10000)
	m := mustUnfreeze(t, R, S, cfg)
	key := grid.Key{CX: 2, CY: 2} // the cell [20, 30)²
	var grown []int32
	nextID := int32(50000)
	chi2 := func(when string) {
		t.Helper()
		liveR, liveS := m.LivePoints()
		jsize := int(join.Size(liveR, liveS, l))
		draws := min(200*jsize, 400000)
		m.Reseed(7)
		counts := drawLive(t, m, liveR, liveS, l, draws)
		expected := float64(draws) / float64(jsize)
		x := float64(jsize-len(counts)) * expected // never-drawn pairs
		for _, c := range counts {
			d := float64(c) - expected
			x += d * d / expected
		}
		if dof := float64(jsize - 1); x > 2*dof+100 {
			t.Fatalf("%s: chi2 %.1f over %.0f dof — draws not uniform", when, x, dof)
		}
	}
	sawPair, sawScan := false, false
	for batch := 0; batch < 12; batch++ {
		var ops MutOps
		if batch < 6 {
			for range 5 {
				p := geom.Point{X: r.Range(20, 30), Y: r.Range(20, 30), ID: nextID}
				ops.InsS = append(ops.InsS, p)
				grown = append(grown, nextID)
				nextID++
			}
		} else {
			ops.DelS, grown = grown[:5], grown[5:]
		}
		// Move one R point per batch too, so R slots churn beside it.
		ops.DelR = []int32{R[batch].ID}
		ops.InsR = []geom.Point{{X: r.Range(15, 35), Y: r.Range(15, 35), ID: nextID}}
		nextID++
		var err error
		if m, err = m.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		ix := m.Index()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		mc, ok := ix.scells.Get(key)
		if !ok {
			t.Fatalf("batch %d: cell %v empty", batch, key)
		}
		T := scanMax(ix.scanC, ix.sCount)
		_, hasPair := mc.corner.(bbstCorner)
		if hasPair != (mc.cell.Len() > T) {
			t.Fatalf("batch %d: cell of %d points, T = %d, has a BBST pair: %v", batch, mc.cell.Len(), T, hasPair)
		}
		sawPair = sawPair || hasPair
		sawScan = sawScan || !hasPair
		liveR, liveS := m.LivePoints()
		fresh, err := NewBBST(liveR, liveS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Count(); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Stats().MuSum, fresh.Stats().MuSum; got != want {
			t.Fatalf("batch %d: Σµ %g, fresh build over the live points %g", batch, got, want)
		}
		if batch == 5 {
			chi2("at the peak")
		}
	}
	if !sawPair || !sawScan {
		t.Fatalf("cell never crossed T: saw a pair %v, saw a scan %v", sawPair, sawScan)
	}
	chi2("after the drain")
}
