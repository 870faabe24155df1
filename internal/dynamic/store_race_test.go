package dynamic

// A race-focused hammer on the store's mutation paths — concurrent
// Apply (small batches, and large shrinks that repack the R side),
// Draw, draws from view engines held across swaps, and the background
// snapshot — mirroring registry_race_test.go. The store's correctness
// argument is an invariant the view swap must preserve across every
// interleaving:
//
//	a swapped-in view never serves a deleted point: every ID deleted
//	  and never re-inserted is absent from the view's index version
//	  (a repack must not bring a dead slot back), and draws never
//	  return it
//	generations only move forward
//	a view handed to a request stays usable however many swaps or
//	  repacks race it
//
// The in-lock half runs through the store's testHookSwap (under mu,
// at every swap); the behavioral half is the drawers asserting no
// poisoned ID is ever sampled while repacks churn underneath.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
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
		// The swapped-in version must satisfy every bucket invariant
		// (µ consistency, free-list integrity, dead slots never
		// outnumbering live ones, ID indexes matching live slots).
		if err := v.mut.Index().CheckInvariants(); err != nil {
			fail("gen %d: bucket invariants: %v", v.gen, err)
		}
		// No poisoned ID may be live in the swapped-in view: an index
		// that still holds one lost a delete.
		R, S := v.mut.LivePoints()
		for _, p := range R {
			if poisonR[p.ID] {
				fail("gen %d: poisoned R point %d live in a swapped-in view", v.gen, p.ID)
			}
		}
		for _, p := range S {
			if poisonS[p.ID] {
				fail("gen %d: poisoned S point %d live in a swapped-in view", v.gen, p.ID)
			}
		}
	}

	// A persister, so the cadence snapshot reads views in the
	// background while batches and repacks publish new ones.
	p := &countingPersister{}
	st.SetPersister(p)

	ctx := context.Background()
	if _, err := st.Apply(ctx, poison); err != nil {
		t.Fatal(err)
	}

	const (
		appliers = 3
		drawers  = 4
		rounds   = 40
		shrinks  = 6
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

	// Drawers: hammer Draw (direct, and on view engines held across
	// swaps, as the server holds one for a request) and assert window
	// containment and no-poison on every sample.
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
			var eng *engine.Engine
			var heldGen uint64
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
				if eng == nil || i%8 == 0 {
					gen, e, err := st.ViewEngine()
					if err != nil {
						errs[slot] = fmt.Errorf("view engine %d/%d: %w", w, i, err)
						return
					}
					if gen < heldGen {
						errs[slot] = fmt.Errorf("view generation moved backwards: %d after %d", gen, heldGen)
						return
					}
					heldGen, eng = gen, e
				}
				res, err := eng.Draw(ctx, engine.Request{T: 128})
				if err != nil {
					errs[slot] = fmt.Errorf("held view draw at gen %d: %w", heldGen, err)
					return
				}
				if err := check(res.Pairs); err != nil {
					errs[slot] = err
					return
				}
			}
		}(w)
	}

	// Shrinker: insert a block of R points several times the live
	// count, then delete it in one batch, which leaves more dead slots
	// than live ones, so that batch repacks the R side while the
	// appliers, drawers and snapshots run. The hook's CheckInvariants
	// fails any version whose dead slots outnumber its live ones, so a
	// shrink that did not repack fails the test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const block = 300
		for i := 0; i < shrinks; i++ {
			runtime.Gosched()
			var grow, shrink Update
			for j := 0; j < block; j++ {
				id := int32(90_000 + block*i + j)
				s := S[j%len(S)]
				grow.InsertR = append(grow.InsertR, geom.Point{ID: id, X: s.X + float64(j%11), Y: s.Y})
				shrink.DeleteR = append(shrink.DeleteR, id)
			}
			for _, u := range []Update{grow, shrink} {
				if _, err := st.Apply(ctx, u); err != nil {
					errs[appliers+drawers] = fmt.Errorf("shrink %d: %w", i, err)
					return
				}
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
	if ps, _ := st.PersistStats(); ps.Snapshots == 0 {
		t.Error("no background snapshot ran beside the hammer")
	}

	// Reconstruct the exact expected sets (appliers own disjoint ID
	// ranges and only delete their own inserts; the shrinker deletes
	// every point it inserts; poison never returns) and verify the
	// settled store serves exactly that join.
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
	checkSupport(t, drawAll(t, st, 6000), joinSet(model.R, model.S, l))
	if got, want := st.view.Load().mut.Index().NumR(), len(model.R); got != want {
		t.Fatalf("settled store holds %d live R points, the model %d", got, want)
	}
}
