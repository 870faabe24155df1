package dynamic

// A race-focused hammer on the store's mutation paths — concurrent
// Apply, Compact, Draw, and registry Get/Evict over generation-tagged
// keys — mirroring registry_race_test.go. The store's correctness
// argument is an invariant the view swap must preserve across every
// interleaving:
//
//	a swapped-in view never serves a deleted point: every ID deleted
//	  and never re-inserted is absent from the view's index version or
//	  compacted base (a compaction racing an Apply must not lose the
//	  delete), and draws never return it
//	generations only move forward
//	a view handed to a request stays usable however many swaps,
//	  compactions, or registry evictions race it
//
// The in-lock half runs through the store's testHookSwap (under mu,
// at every swap); the behavioral half is the drawers asserting no
// poisoned ID is ever sampled while compactions churn underneath.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/registry"
)

func TestStoreConcurrentApplyDrawEvictRebuild(t *testing.T) {
	t.Run("inplace", testStoreConcurrentApplyDrawEvictRebuild)
}

func testStoreConcurrentApplyDrawEvictRebuild(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	st, err := NewStore(R, S, testConfig(l, 21))
	if err != nil {
		t.Fatal(err)
	}

	// Poison: base points deleted up front and never re-inserted. No
	// draw may ever return one, whatever view it lands on.
	poisonR := map[int32]bool{R[0].ID: true, R[7].ID: true, R[13].ID: true}
	poisonS := map[int32]bool{S[2].ID: true, S[9].ID: true}
	poison := Update{}
	for id := range poisonR {
		poison.DeleteR = append(poison.DeleteR, id)
	}
	for id := range poisonS {
		poison.DeleteS = append(poison.DeleteS, id)
	}

	// The in-lock invariant hook: runs under st.mu at every swap.
	var lastGen atomic.Uint64
	var hookErr atomic.Value
	fail := func(format string, args ...any) {
		if hookErr.Load() == nil {
			hookErr.Store(fmt.Errorf(format, args...))
		}
	}
	st.testHookSwap = func(v *view) {
		if prev := lastGen.Swap(v.gen); v.gen <= prev {
			fail("generation moved backwards: %d after %d", v.gen, prev)
		}
		if v.mut != nil {
			// In-place path: the swapped-in version must satisfy every
			// bucket invariant (µ consistency, free-list integrity, ID
			// indexes matching live slots), and no poisoned ID may still
			// be indexed as live.
			ix := v.mut.Index()
			if err := ix.CheckInvariants(); err != nil {
				fail("gen %d: bucket invariants: %v", v.gen, err)
			}
			for id := range poisonR {
				if ix.HasR(id) {
					fail("gen %d: poisoned R point %d live in a swapped-in mutable index", v.gen, id)
				}
			}
			for id := range poisonS {
				if ix.HasS(id) {
					fail("gen %d: poisoned S point %d live in a swapped-in mutable index", v.gen, id)
				}
			}
			return
		}
		// A compacted base is bulk-built from the live sets: a
		// poisoned point in it means a compaction lost a delete.
		for _, p := range v.R {
			if poisonR[p.ID] {
				fail("gen %d: poisoned R point %d in a compacted base", v.gen, p.ID)
			}
		}
		for _, p := range v.S {
			if poisonS[p.ID] {
				fail("gen %d: poisoned S point %d in a compacted base", v.gen, p.ID)
			}
		}
	}

	ctx := context.Background()
	if _, err := st.Apply(ctx, poison); err != nil {
		t.Fatal(err)
	}

	// A registry over generation-tagged keys, as the server wires it:
	// the build resolves the store's current view and refuses stale
	// generations.
	baseKey := registry.Key{Dataset: "hammer", L: l, Algorithm: "bbst", Seed: 21}
	reg := registry.New(func(ctx context.Context, key registry.Key) (*engine.Engine, error) {
		gen, eng, err := st.ViewEngine()
		if err != nil {
			return nil, err
		}
		if gen != key.Generation {
			return nil, ErrStaleGeneration
		}
		return eng, nil
	}, 1<<20) // small budget: inserts evict constantly

	const (
		appliers = 3
		drawers  = 4
		rounds   = 40
	)
	var wg sync.WaitGroup
	errs := make([]error, appliers+drawers+1)

	// Appliers: insert points with per-worker ID ranges, then delete a
	// slice of their own inserts. They never touch poison, so the
	// final expected sets are reconstructible.
	for w := 0; w < appliers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int32(10_000 * (w + 1))
			for i := 0; i < rounds; i++ {
				id := base + int32(i)
				u := Update{
					InsertR: []geom.Point{{ID: id, X: S[(w*7+i)%len(S)].X, Y: S[(w*7+i)%len(S)].Y}},
					InsertS: []geom.Point{{ID: id, X: R[(w*5+i)%len(R)].X, Y: R[(w*5+i)%len(R)].Y}},
				}
				if i%3 == 2 {
					u.DeleteR = []int32{base + int32(i-1)}
					u.DeleteS = []int32{base + int32(i-2)}
				}
				if _, err := st.Apply(ctx, u); err != nil {
					errs[w] = fmt.Errorf("apply %d/%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	// Drawers: hammer Draw (direct and through the registry) and
	// assert window containment and no-poison on every sample.
	for w := 0; w < drawers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := appliers + w
			buf := make([]geom.Pair, 256)
			check := func(pairs []geom.Pair) error {
				for _, p := range pairs {
					if poisonR[p.R.ID] || poisonS[p.S.ID] {
						return fmt.Errorf("sampled poisoned pair (%d,%d)", p.R.ID, p.S.ID)
					}
					if !geom.Window(p.R, l).Contains(p.S) {
						return fmt.Errorf("sampled pair outside the window: %v", p)
					}
				}
				return nil
			}
			for i := 0; i < rounds*4; i++ {
				if w%2 == 0 {
					res, err := st.Draw(ctx, engine.Request{Into: buf, Seed: uint64(i%5) * 7})
					if err != nil {
						errs[slot] = fmt.Errorf("draw %d/%d: %w", w, i, err)
						return
					}
					if err := check(res.Pairs); err != nil {
						errs[slot] = err
						return
					}
					continue
				}
				key := baseKey
				key.Generation = st.Generation()
				eng, err := reg.Get(ctx, key)
				if errors.Is(err, ErrStaleGeneration) {
					continue // lost the race with an Apply; next round
				}
				if err != nil {
					errs[slot] = fmt.Errorf("registry get gen %d: %w", key.Generation, err)
					return
				}
				res, err := eng.Draw(ctx, engine.Request{T: 128})
				if err != nil {
					errs[slot] = fmt.Errorf("registry draw: %w", err)
					return
				}
				if err := check(res.Pairs); err != nil {
					errs[slot] = err
					return
				}
			}
		}(w)
	}

	// Evictor: hammer Evict and EvictOlder across recent generations,
	// compacting now and then so frozen bases race the appliers too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*6; i++ {
			if i%40 == 39 {
				if err := st.Compact(ctx); err != nil {
					errs[appliers+drawers] = fmt.Errorf("compact %d: %w", i, err)
					return
				}
			}
			key := baseKey
			key.Generation = st.Generation()
			switch i % 3 {
			case 0:
				reg.Evict(key)
			case 1:
				reg.EvictOlder(key)
			case 2:
				key.Generation = ^uint64(0)
				reg.EvictOlder(key)
			}
		}
	}()

	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err, _ := hookErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	// Reconstruct the exact expected sets (appliers own disjoint ID
	// ranges and only delete their own inserts; poison never
	// returns) and verify the settled store serves exactly that join.
	model := &currentSets{R: R, S: S}
	model.apply(poison)
	for w := 0; w < appliers; w++ {
		base := int32(10_000 * (w + 1))
		for i := 0; i < rounds; i++ {
			id := base + int32(i)
			u := Update{
				InsertR: []geom.Point{{ID: id, X: S[(w*7+i)%len(S)].X, Y: S[(w*7+i)%len(S)].Y}},
				InsertS: []geom.Point{{ID: id, X: R[(w*5+i)%len(R)].X, Y: R[(w*5+i)%len(R)].Y}},
			}
			if i%3 == 2 {
				u.DeleteR = []int32{base + int32(i-1)}
				u.DeleteS = []int32{base + int32(i-2)}
			}
			model.apply(u)
		}
	}
	jset := joinSet(model.R, model.S, l)
	checkSupport(t, drawAll(t, st, 6000), jset)

	// Compact once more and re-verify: the final base absorbs every
	// surviving op with nothing lost.
	if err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	checkSupport(t, drawAll(t, st, 6000), jset)
}
