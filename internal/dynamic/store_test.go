package dynamic

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/join"
)

// testConfig returns a BBST-backed store config over half-extent l.
func testConfig(l float64, seed uint64) Config {
	return Config{
		BuildBase: func(R, S []geom.Point) (*core.BBSTSampler, error) {
			return core.NewBBST(R, S, core.Config{HalfExtent: l, Seed: seed})
		},
		Seed: seed,
	}
}

// checkIndex asserts the bucket invariants of the store's current
// index version, when it is in place.
func checkIndex(t *testing.T, st *Store) {
	t.Helper()
	if v := st.view.Load(); v.mut != nil {
		if err := v.mut.Index().CheckInvariants(); err != nil {
			t.Fatalf("generation %d: bucket invariants: %v", v.gen, err)
		}
	}
}

// testData generates the unit-test point sets: small enough to brute
// force, dense enough for a meaningful join.
func testData(t *testing.T) (R, S []geom.Point) {
	t.Helper()
	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	return gen(60, 11), gen(60, 12)
}

// joinSet enumerates the exact current join as an ID-pair set.
func joinSet(R, S []geom.Point, l float64) map[[2]int32]bool {
	out := map[[2]int32]bool{}
	join.BruteForce(R, S, l, func(r, s geom.Point) bool {
		out[[2]int32{r.ID, s.ID}] = true
		return true
	})
	return out
}

// currentSets mirrors a store's op sequence on plain slices — the
// test-side model of what the store should be serving.
type currentSets struct {
	R, S []geom.Point
}

func (c *currentSets) apply(u Update) {
	c.R = modelApply(c.R, u.InsertR, u.DeleteR)
	c.S = modelApply(c.S, u.InsertS, u.DeleteS)
}

func modelApply(pts, add []geom.Point, del []int32) []geom.Point {
	dead := map[int32]bool{}
	for _, id := range del {
		dead[id] = true
	}
	out := pts[:0:0]
	for _, p := range pts {
		if !dead[p.ID] {
			out = append(out, p)
		}
	}
	return append(out, add...)
}

// drawAll draws t samples through the Source surface.
func drawAll(t *testing.T, st *Store, n int) []geom.Pair {
	t.Helper()
	res, err := st.Draw(context.Background(), engine.Request{T: n})
	if err != nil {
		t.Fatalf("draw %d: %v", n, err)
	}
	return res.Pairs
}

// checkSupport asserts every sampled pair is in the model join.
func checkSupport(t *testing.T, pairs []geom.Pair, jset map[[2]int32]bool) {
	t.Helper()
	for _, p := range pairs {
		if !jset[[2]int32{p.R.ID, p.S.ID}] {
			t.Fatalf("sampled pair (%d,%d) not in the current join", p.R.ID, p.S.ID)
		}
	}
}

func TestStoreAppliesAndGenerations(t *testing.T) {
	R, S := testData(t)
	l := 1000.0
	st, err := NewStore(R, S, testConfig(l, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 0 {
		t.Fatalf("fresh store at generation %d", st.Generation())
	}
	model := &currentSets{R: R, S: S}
	ctx := context.Background()

	// An empty update is a generation probe, not a bump.
	if gen, err := st.Apply(ctx, Update{}); err != nil || gen != 0 {
		t.Fatalf("empty update: gen %d, err %v", gen, err)
	}

	u1 := Update{
		InsertR: []geom.Point{{ID: 500, X: R[0].X + 10, Y: R[0].Y - 10}, {ID: 501, X: S[3].X, Y: S[3].Y}},
		InsertS: []geom.Point{{ID: 600, X: R[1].X + 5, Y: R[1].Y + 5}},
		DeleteR: []int32{R[2].ID, R[4].ID},
		DeleteS: []int32{S[0].ID},
	}
	gen, err := st.Apply(ctx, u1)
	if err != nil || gen != 1 {
		t.Fatalf("apply 1: gen %d, err %v", gen, err)
	}
	model.apply(u1)
	jset := joinSet(model.R, model.S, l)
	pairs := drawAll(t, st, 4000)
	checkSupport(t, pairs, jset)

	// Delete an inserted point and a base point in the same batch;
	// re-insert a deleted base ID as a new point.
	u2 := Update{
		InsertR: []geom.Point{{ID: R[2].ID, X: R[7].X, Y: R[7].Y}},
		DeleteR: []int32{500, R[5].ID},
	}
	if gen, err = st.Apply(ctx, u2); err != nil || gen != 2 {
		t.Fatalf("apply 2: gen %d, err %v", gen, err)
	}
	model.apply(u2)
	jset = joinSet(model.R, model.S, l)
	pairs = drawAll(t, st, 4000)
	checkSupport(t, pairs, jset)
	for _, p := range pairs {
		if p.R.ID == 500 {
			t.Fatal("deleted inserted point 500 sampled")
		}
	}

	// Compact folds the in-place index into a fresh base at a bumped
	// generation, with identical serving behavior.
	if err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 3 {
		t.Fatalf("post-compact generation %d, want 3", g)
	}
	if st.InPlace() {
		t.Fatal("post-compact view is still in place")
	}
	checkSupport(t, drawAll(t, st, 4000), jset)
}

// TestStoreUniformityAfterUpdates: sampling must stay uniform over
// the live join after mutations — chi-square against the brute-force
// join of the current point sets.
func TestStoreUniformityAfterUpdates(t *testing.T) {
	t.Run("inplace", testStoreUniformityAfterUpdates)
}

func testStoreUniformityAfterUpdates(t *testing.T) {
	R, S := testData(t)
	l := 1000.0
	st, err := NewStore(R, S, testConfig(l, 3))
	if err != nil {
		t.Fatal(err)
	}
	model := &currentSets{R: R, S: S}
	u := Update{
		DeleteR: []int32{R[0].ID, R[9].ID, R[17].ID},
		DeleteS: []int32{S[4].ID, S[31].ID},
	}
	// Clustered inserts so the inserted points carry real mass.
	for i := 0; i < 10; i++ {
		u.InsertR = append(u.InsertR, geom.Point{ID: int32(700 + i), X: S[i].X + 20, Y: S[i].Y - 20})
		u.InsertS = append(u.InsertS, geom.Point{ID: int32(800 + i), X: R[i+20].X - 15, Y: R[i+20].Y + 15})
	}
	if _, err := st.Apply(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	model.apply(u)
	jset := joinSet(model.R, model.S, l)
	if len(jset) < 50 {
		t.Fatalf("test setup: |J| = %d too small for a chi-square", len(jset))
	}
	// The inserts must actually participate: some join pair touches an
	// inserted point.
	deltaPairs := 0
	for k := range jset {
		if k[0] >= 700 || k[1] >= 800 {
			deltaPairs++
		}
	}
	if deltaPairs == 0 {
		t.Fatal("test setup: no join pair touches an inserted point")
	}

	const draws = 200_000
	counts := map[[2]int32]int{}
	err = st.DrawFunc(context.Background(), engine.Request{T: draws}, func(batch []geom.Pair) error {
		for _, p := range batch {
			k := [2]int32{p.R.ID, p.S.ID}
			if !jset[k] {
				t.Fatalf("sampled pair %v not in the current join", k)
			}
			counts[k]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(draws) / float64(len(jset))
	chi2 := 0.0
	for k := range jset {
		d := float64(counts[k]) - expected
		chi2 += d * d / expected
	}
	dof := float64(len(jset) - 1)
	limit := dof + 4*math.Sqrt(2*dof) + 10
	if chi2 > limit {
		t.Fatalf("distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
	}
}

// TestStoreDeterminismWithinGeneration: equal request seeds draw
// identical samples within one generation, and two replicas fed the
// same op sequence agree byte for byte — the property that keeps a
// broadcast fleet's shards interchangeable.
func TestStoreDeterminismWithinGeneration(t *testing.T) {
	t.Run("inplace", testStoreDeterminismWithinGeneration)
}

func testStoreDeterminismWithinGeneration(t *testing.T) {
	R, S := testData(t)
	l := 1000.0
	mk := func() *Store {
		st, err := NewStore(R, S, testConfig(l, 5))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := mk(), mk()
	u := Update{
		InsertR: []geom.Point{{ID: 900, X: S[2].X, Y: S[2].Y}},
		InsertS: []geom.Point{{ID: 901, X: R[2].X, Y: R[2].Y}},
		DeleteR: []int32{R[1].ID},
	}
	ctx := context.Background()
	if _, err := a.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	p1, err := a.Draw(ctx, engine.Request{T: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved unseeded traffic must not perturb seeded draws.
	if _, err := a.Draw(ctx, engine.Request{T: 333}); err != nil {
		t.Fatal(err)
	}
	p2, err := a.Draw(ctx, engine.Request{T: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := b.Draw(ctx, engine.Request{T: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Pairs {
		if p1.Pairs[i] != p2.Pairs[i] {
			t.Fatalf("equal seeds diverged at %d within one store", i)
		}
		if p1.Pairs[i] != p3.Pairs[i] {
			t.Fatalf("replica stores diverged at %d", i)
		}
	}
}

// TestStoreEmptyLifecycle: a store may start empty, answer
// ErrEmptyJoin (after request validation), become non-empty through
// Apply, and empty again through deletes — in place throughout.
func TestStoreEmptyLifecycle(t *testing.T) {
	l := 100.0
	cfg := testConfig(l, 1)
	cfg.MaxT = 1000
	st, err := NewStore(nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := st.Draw(ctx, engine.Request{T: 5}); !errors.Is(err, core.ErrEmptyJoin) {
		t.Fatalf("empty store draw: %v, want ErrEmptyJoin", err)
	}
	// Validation still precedes the empty answer.
	if _, err := st.Draw(ctx, engine.Request{T: -1}); !errors.Is(err, engine.ErrBadRequest) {
		t.Fatalf("bad request on empty store: %v", err)
	}
	if _, err := st.Draw(ctx, engine.Request{T: 2000}); !errors.Is(err, engine.ErrSampleCap) {
		t.Fatalf("over-cap on empty store: %v", err)
	}
	u := Update{
		InsertR: []geom.Point{{ID: 1, X: 50, Y: 50}},
		InsertS: []geom.Point{{ID: 2, X: 60, Y: 60}},
	}
	if _, err := st.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	if !st.InPlace() {
		t.Fatal("InPlace = false after the first apply to an empty store")
	}
	checkIndex(t, st)
	res, err := st.Draw(ctx, engine.Request{T: 10})
	if err != nil || len(res.Pairs) != 10 {
		t.Fatalf("draw after insert: %d pairs, %v", len(res.Pairs), err)
	}
	for _, p := range res.Pairs {
		if p.R.ID != 1 || p.S.ID != 2 {
			t.Fatalf("unexpected pair %v", p)
		}
	}
	if _, err := st.Apply(ctx, Update{DeleteR: []int32{1}}); err != nil {
		t.Fatal(err)
	}
	if !st.InPlace() {
		t.Fatal("InPlace = false after deleting back to an empty join")
	}
	checkIndex(t, st)
	if _, err := st.Draw(ctx, engine.Request{T: 5}); !errors.Is(err, core.ErrEmptyJoin) {
		t.Fatalf("re-emptied store draw: %v, want ErrEmptyJoin", err)
	}
}

// TestStoreAutoRebuild: a batch that drifts the live S count far past
// the bulk-built geometry trips the rebase hatch inside the same
// Apply — one generation bump, one OnGeneration call, a frozen base
// published at it — and the store keeps serving the same join.
func TestStoreAutoRebuild(t *testing.T) {
	R, S := testData(t)
	l := 1000.0
	cfg := testConfig(l, 9)
	var hookGens []uint64
	var hookMu sync.Mutex
	cfg.OnGeneration = func(gen uint64) {
		hookMu.Lock()
		hookGens = append(hookGens, gen)
		hookMu.Unlock()
	}
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := &currentSets{R: R, S: S}
	// 60 base S points: growing past 8x that is the hatch's trigger.
	u := Update{DeleteR: []int32{R[0].ID, R[1].ID, R[2].ID, R[3].ID}}
	for i := 0; i < 8*len(S)+1; i++ {
		r := R[4+i%(len(R)-4)]
		u.InsertS = append(u.InsertS, geom.Point{ID: int32(850 + i), X: r.X + float64(i%7), Y: r.Y - float64(i%5)})
	}
	ctx := context.Background()
	gen, err := st.Apply(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	model.apply(u)
	if gen != 1 || st.Generation() != 1 {
		t.Fatalf("Apply returned generation %d, store at %d, want one bump to 1", gen, st.Generation())
	}
	if got := st.Rebuilds(); got != 1 {
		t.Fatalf("Rebuilds = %d, want the hatch's one", got)
	}
	if st.InPlace() {
		t.Fatal("InPlace = true after the rebase, want a frozen base")
	}
	// The invalidation hook fired once, for the one published view.
	hookMu.Lock()
	gens := append([]uint64(nil), hookGens...)
	hookMu.Unlock()
	if len(gens) != 1 || gens[0] != 1 {
		t.Fatalf("OnGeneration calls = %v, want [1]", gens)
	}
	checkSupport(t, drawAll(t, st, 4000), joinSet(model.R, model.S, l))
}

// TestStoreEstimateJoinSize: the acceptance-rate estimator tracks the
// live join size through updates.
func TestStoreEstimateJoinSize(t *testing.T) {
	t.Run("inplace", testStoreEstimateJoinSize)
}

func testStoreEstimateJoinSize(t *testing.T) {
	R, S := testData(t)
	l := 1000.0
	st, err := NewStore(R, S, testConfig(l, 13))
	if err != nil {
		t.Fatal(err)
	}
	u := Update{DeleteR: []int32{R[0].ID, R[1].ID, R[2].ID}}
	for i := 0; i < 6; i++ {
		u.InsertS = append(u.InsertS, geom.Point{ID: int32(860 + i), X: R[10+i].X, Y: R[10+i].Y})
	}
	if _, err := st.Apply(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	model := &currentSets{R: R, S: S}
	model.apply(u)
	exact := float64(len(joinSet(model.R, model.S, l)))
	est, err := st.EstimateJoinSize(60_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 0.15*exact {
		t.Fatalf("join size estimate %.1f, exact %.0f", est, exact)
	}
}

// TestStoreRejectsBadUpdates: non-finite inserts are refused with
// ErrBadRequest before any state changes.
func TestStoreRejectsBadUpdates(t *testing.T) {
	R, S := testData(t)
	cfg := testConfig(1000, 1)
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := Update{InsertR: []geom.Point{{ID: 1, X: math.NaN(), Y: 0}}}
	if _, err := st.Apply(context.Background(), bad); !errors.Is(err, engine.ErrBadRequest) {
		t.Fatalf("NaN insert: %v, want ErrBadRequest", err)
	}
	if st.Generation() != 0 {
		t.Fatal("rejected update bumped the generation")
	}
}
