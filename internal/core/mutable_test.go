package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
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
// point vector and weight tree, over balanced BBST buckets. Any change
// to the maintained µ, the bucket boundaries, the slot order, the
// directory order or the trial's use of the random stream moves it.
const goldenMutableDigest = 0x3c20cb86ad0fd616

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

func TestMutableUniformityAfterChurn(t *testing.T) {
	r := rng.New(4)
	l := 10.0
	R := randomPoints(r, 40, 60, 0)
	S := randomPoints(r, 50, 60, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: l, Seed: 8})
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
		var err error
		m, err = m.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
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
	if _, _, err := m.TryNext(); !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("TryNext on drained index: %v", err)
	}
	// Refill: slots must be reused, not appended.
	before := m.Index().slots.Len()
	m, err = m.Apply(MutOps{InsR: randomPoints(r, len(R), 40, 60000)})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Index().slots.Len(); got != before {
		t.Fatalf("slot array grew %d -> %d despite %d free slots", before, got, len(R))
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Reseed(5)
	if _, err := m.Next(); err != nil {
		t.Fatalf("draw after refill: %v", err)
	}
}

func TestMutableNeedsRebase(t *testing.T) {
	r := rng.New(8)
	R := randomPoints(r, 40, 50, 0)
	S := randomPoints(r, 40, 50, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 2})
	if m.NeedsRebase() {
		t.Fatal("fresh index claims rebase")
	}
	// Balanced churn never trips the hatch.
	for batch := 0; batch < 20; batch++ {
		var err error
		m, err = m.Apply(MutOps{
			InsS: randomPoints(r, 1, 50, 70000+int32(batch)),
			DelS: []int32{10000 + int32(batch)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.NeedsRebase() {
			t.Fatalf("balanced churn tripped the hatch at batch %d", batch)
		}
	}
	// 8x growth does.
	var err error
	m, err = m.Apply(MutOps{InsS: randomPoints(r, 40*rebaseDriftFactor, 50, 80000)})
	if err != nil {
		t.Fatal(err)
	}
	if !m.NeedsRebase() {
		t.Fatal("8x S growth did not trip the hatch")
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

// TestMutableSizeBytesTracksHeap keeps the SizeBytes estimate within 2×
// of the live heap an unfrozen index holds on its own (the frozen
// sampler it came from is dropped), so the memory charge for stores
// stays honest.
func TestMutableSizeBytesTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50k x 50k index")
	}
	R, S := dataset.SplitRS(dataset.NYC(100000, 1), 0.5, 2)
	var ms runtime.MemStats
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 100, Seed: 1})
	measured := liveHeap() - before
	est := int64(m.SizeBytes())
	runtime.KeepAlive(m)
	t.Logf("SizeBytes %d, live heap %d (%.2fx)", est, measured, float64(est)/float64(measured))
	if est > 2*measured || measured > 2*est {
		t.Fatalf("SizeBytes %d vs live heap %d: off by more than 2x", est, measured)
	}
}
