package srj_test

// Root-level tests of the dynamic-update stack that the conformance
// harness cannot express: the router's fleet-wide broadcast (every
// shard's store and registry must advance on a generation bump, not
// just the key's home shard), and the random-interleaving property
// test against a rebuild-from-scratch oracle.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	srj "repro"
	"repro/srjtest"
)

// TestRouterUpdateBroadcast is the invalidation acceptance test: with
// three in-process backends behind a router, one ApplyUpdate must
// reach every shard — each backend's store advances to the same
// generation, each backend's registry drops the engines the bump made
// stale, and a draw against ANY backend directly (not through the
// ring) serves the mutated dataset. That is exactly the property
// failover relies on: whichever shard a draw lands on, deleted points
// are gone.
func TestRouterUpdateBroadcast(t *testing.T) {
	R, S, l := srjtest.Data()
	cfg := srjtest.Config{R: R, S: S, L: l, MaxT: 200_000, BuildSeed: 31}
	addrs := startBackends(t, cfg, 3)
	rt, err := srj.NewRouter(addrs, srj.RouterOptions{HTTPClient: confTransport(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: cfg.BuildSeed}
	ctx := context.Background()

	// Direct clients per backend: the test must see each shard's own
	// state, not the ring's routing.
	clients := make([]*srj.Client, len(addrs))
	for i, a := range addrs {
		clients[i] = srj.NewClientHTTP(a, confTransport(t)).Bind(key)
	}

	// Warm a static engine on every shard (generation 0).
	for i, cl := range clients {
		if _, err := cl.Draw(ctx, srj.Request{T: 100}); err != nil {
			t.Fatalf("warming backend %d: %v", i, err)
		}
	}

	// One broadcast update: delete a point everywhere, insert a
	// far-away pair.
	victim := R[2].ID
	bound := rt.Bind(key)
	gen, err := bound.Apply(ctx, srj.Update{
		DeleteR: []int32{victim},
		InsertR: []srj.Point{{ID: 4000, X: 9000, Y: 9000}},
		InsertS: []srj.Point{{ID: 4001, X: 9001, Y: 9001}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("fleet generation %d after first update, want 1", gen)
	}

	// Every shard — probed directly — is at the fleet generation and
	// serves the mutated dataset.
	for i, cl := range clients {
		g, err := cl.Apply(ctx, srj.Update{})
		if err != nil {
			t.Fatalf("backend %d generation probe: %v", i, err)
		}
		if g != gen {
			t.Fatalf("backend %d at generation %d, fleet at %d", i, g, gen)
		}
		sawInsert := false
		res, err := cl.Draw(ctx, srj.Request{T: 30_000})
		if err != nil {
			t.Fatalf("backend %d draw: %v", i, err)
		}
		for _, p := range res.Pairs {
			if p.R.ID == victim {
				t.Fatalf("backend %d served deleted point %d", i, victim)
			}
			if p.R.ID == 4000 && p.S.ID == 4001 {
				sawInsert = true
			}
		}
		if !sawInsert {
			t.Fatalf("backend %d never served the inserted pair", i)
		}
	}

	// Every shard's registry dropped its stale generations: whatever
	// engines remain for the key carry the current generation.
	for i, a := range addrs {
		engines, err := srj.NewClientHTTP(a, confTransport(t)).Engines(ctx)
		if err != nil {
			t.Fatal(err)
		}
		current := 0
		for _, e := range engines {
			if e.Key.Dataset != key.Dataset {
				continue
			}
			if e.Key.Generation != gen {
				t.Fatalf("backend %d still holds engine %s after the bump to %d", i, e.Key, gen)
			}
			current++
		}
		if current == 0 {
			t.Fatalf("backend %d holds no engine at generation %d after drawing", i, gen)
		}
	}

	// A second bump through the router's own HTTP surface (the proxy
	// endpoint srjrouter mounts) behaves identically.
	res2, err := rt.ApplyUpdate(ctx, key, srj.Update{DeleteS: []int32{int32(4001)}})
	if err != nil {
		t.Fatal(err)
	}
	if gen2 := res2.Generation; gen2 != gen+1 {
		t.Fatalf("fleet generation %d after second update, want %d", gen2, gen+1)
	}
	for i, cl := range clients {
		res, err := cl.Draw(ctx, srj.Request{T: 20_000})
		if err != nil {
			t.Fatalf("backend %d draw: %v", i, err)
		}
		for _, p := range res.Pairs {
			if p.S.ID == 4001 || p.R.ID == 4000 {
				t.Fatalf("backend %d served pair %v after its delete", i, p)
			}
		}
	}
}

// oracleJoin enumerates the exact join of the current model sets.
func oracleJoin(R, S []srj.Point, l float64) map[[2]int32]bool {
	out := map[[2]int32]bool{}
	srj.Join(R, S, l, func(r, s srj.Point) bool {
		out[[2]int32{r.ID, s.ID}] = true
		return true
	})
	return out
}

// TestStorePropertyAgainstOracle drives a Store through random
// interleavings of Apply and Draw and, at every step, checks it
// against a rebuild-from-scratch oracle over the same mutated point
// sets: the sample support set must stay inside the oracle join, and
// EstimateJoinSize must track the oracle's |J| within tolerance. A
// mid-sequence Compact must be invisible to both properties.
func TestStorePropertyAgainstOracle(t *testing.T) {
	R, S, l := srjtest.Data()
	st, err := srj.NewStore(R, S, l, &srj.StoreOptions{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(99))
	curR, curS := R, S
	nextID := int32(20_000)

	model := func(pts []srj.Point, add []srj.Point, del []int32) []srj.Point {
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

	checkStep := func(step int) {
		jset := oracleJoin(curR, curS, l)
		if len(jset) == 0 {
			t.Fatalf("step %d: test drifted into an empty join", step)
		}
		res, err := st.Draw(ctx, srj.Request{T: 3000})
		if err != nil {
			t.Fatalf("step %d: draw: %v", step, err)
		}
		for _, p := range res.Pairs {
			if !jset[[2]int32{p.R.ID, p.S.ID}] {
				t.Fatalf("step %d: sampled pair (%d,%d) not in the oracle join (|J|=%d)",
					step, p.R.ID, p.S.ID, len(jset))
			}
		}
		est, err := st.EstimateJoinSize(40_000)
		if err != nil {
			t.Fatalf("step %d: estimate: %v", step, err)
		}
		exact := float64(len(jset))
		if math.Abs(est-exact) > 0.2*exact+2 {
			t.Fatalf("step %d: join size estimate %.1f, oracle %.0f", step, est, exact)
		}
	}

	checkStep(-1)
	const steps = 18
	for step := 0; step < steps; step++ {
		u := srj.Update{}
		switch rnd.Intn(3) {
		case 0: // insert a small cluster near existing points
			for i := 0; i < 1+rnd.Intn(3); i++ {
				anchor := curS[rnd.Intn(len(curS))]
				u.InsertR = append(u.InsertR, srj.Point{ID: nextID, X: anchor.X + float64(rnd.Intn(100)), Y: anchor.Y})
				nextID++
			}
			for i := 0; i < 1+rnd.Intn(3); i++ {
				anchor := curR[rnd.Intn(len(curR))]
				u.InsertS = append(u.InsertS, srj.Point{ID: nextID, X: anchor.X, Y: anchor.Y - float64(rnd.Intn(100))})
				nextID++
			}
		case 1: // delete random live points (keep the sets non-trivial)
			if len(curR) > 20 {
				u.DeleteR = []int32{curR[rnd.Intn(len(curR))].ID}
			}
			if len(curS) > 20 {
				u.DeleteS = []int32{curS[rnd.Intn(len(curS))].ID}
			}
		case 2: // mixed batch
			anchor := curS[rnd.Intn(len(curS))]
			u.InsertR = append(u.InsertR, srj.Point{ID: nextID, X: anchor.X, Y: anchor.Y})
			nextID++
			if len(curS) > 20 {
				u.DeleteS = []int32{curS[rnd.Intn(len(curS))].ID}
			}
		}
		if u.Empty() {
			continue
		}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		curR = model(curR, u.InsertR, u.DeleteR)
		curS = model(curS, u.InsertS, u.DeleteS)
		checkStep(step)

		if step == steps/2 {
			// Compaction mid-sequence: everything folds into a fresh
			// base with no observable change.
			if err := st.Compact(ctx); err != nil {
				t.Fatalf("compact: %v", err)
			}
			if n := st.Rebuilds(); n != 1 {
				t.Fatalf("%d rebuilds after one compact", n)
			}
			checkStep(step)
		}
	}
}
