package registry

// A race-focused hammer on the registry's three mutation paths —
// Get (hit, or miss → singleflight build → insert), explicit Evict,
// and budget eviction — all attacking the same keys at once. The
// registry's correctness argument is an invariant the mutex must
// preserve across every interleaving:
//
//	bytes == Σ size of resident entries
//	entries map and LRU list hold exactly the same set
//	no resident priority is below the eviction clock
//	an engine returned by Get is usable even if evicted concurrently
//	  (eviction drops the registry's reference, never the engine)
//
// The hammer exists to let -race and the invariant check falsify
// that; the assertions below document the invariant as much as they
// test it. Run in CI under -race with -count=2 alongside the rest of
// the serving stack.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// checkInvariants asserts the registry's structural invariant under
// its own lock, so it can interleave with a running hammer.
func checkInvariants(t *testing.T, r *Registry) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) != r.lru.Len() {
		t.Fatalf("entries map holds %d keys, LRU list %d", len(r.entries), r.lru.Len())
	}
	var bytes int64
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		got, ok := r.entries[e.key]
		if !ok {
			t.Fatalf("LRU entry %s missing from the map", e.key)
		}
		if got != e {
			t.Fatalf("map and LRU disagree on entry %s", e.key)
		}
		bytes += e.size
		if e.priority < r.clock {
			t.Fatalf("entry %s has priority %d, below the eviction clock %d", e.key, e.priority, r.clock)
		}
	}
	if bytes != r.bytes {
		t.Fatalf("bytes counter %d, entries sum to %d", r.bytes, bytes)
	}
	if r.bytes < 0 {
		t.Fatalf("negative byte accounting: %d", r.bytes)
	}
}

// TestRegistryConcurrentGetEvict hammers Get, Evict, and
// budget-eviction pressure on a handful of shared keys from many
// goroutines. Every Get must return a usable engine or a context
// error — never a stale or half-evicted one — and the bookkeeping
// must balance at every quiescent point.
func TestRegistryConcurrentGetEvict(t *testing.T) {
	build, _ := testBuild(300, 0)

	// Budget for roughly two of the ~equal-sized engines while six
	// keys fight over residency: every insert is likely to evict, so
	// the insert-evict ordering races the explicit Evicts below.
	probe := New(build, 0)
	e, err := probe.Get(context.Background(), Key{Dataset: "probe", L: 100, Algorithm: "bbst", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(build, int64(e.SizeBytes())*5/2)

	const (
		workers  = 8
		rounds   = 60
		hotKeys  = 6
		drawSize = 32
	)
	keyFor := func(i int) Key {
		return Key{Dataset: "hammer", L: 100, Algorithm: "bbst", Seed: uint64(i % hotKeys)}
	}

	var wg sync.WaitGroup
	var gets, evicts, draws atomic.Int64
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := keyFor(w + i)
				switch i % 3 {
				case 0, 1:
					eng, err := r.Get(context.Background(), key)
					if err != nil {
						errs[w] = fmt.Errorf("get %s: %w", key, err)
						return
					}
					gets.Add(1)
					// The engine stays usable even if an eviction
					// races this draw: eviction only drops the
					// registry's reference.
					if _, err := eng.Draw(context.Background(), engine.Request{T: drawSize}); err != nil {
						errs[w] = fmt.Errorf("draw on %s: %w", key, err)
						return
					}
					draws.Add(1)
				case 2:
					if r.Evict(key) {
						evicts.Add(1)
					}
				}
			}
		}(w)
	}

	// Interleave invariant checks with the hammer: the invariant must
	// hold at every lock release, not just at the end.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		checkInvariants(t, r)
		select {
		case <-done:
			checkInvariants(t, r)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			st := r.Stats()
			if st.Hits+st.Misses != uint64(gets.Load()) {
				t.Fatalf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, gets.Load())
			}
			if st.ManualEvictions != uint64(evicts.Load()) {
				t.Fatalf("manual evictions %d, Evict succeeded %d times", st.ManualEvictions, evicts.Load())
			}
			if st.Budget > 0 && st.Bytes > st.Budget && st.Entries > 1 {
				t.Fatalf("budget overshot with %d entries resident: %+v", st.Entries, st)
			}
			t.Logf("%d gets (%d draws), %d manual evictions, stats %+v",
				gets.Load(), draws.Load(), evicts.Load(), st)
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestRegistryEvictDuringBuild pins the one genuinely subtle
// ordering: Evict racing the insert at the end of a build. Whichever
// side wins the lock, the invariant holds and the engine handed to
// the Get callers works; if the Evict ran before the insert it simply
// found nothing (an in-flight build is not resident — that is the
// documented semantics, not a bug).
func TestRegistryEvictDuringBuild(t *testing.T) {
	enter := make(chan struct{}, 1)
	release := make(chan struct{})
	good, _ := testBuild(200, 0)
	build := func(ctx context.Context, key Key) (*engine.Engine, error) {
		enter <- struct{}{}
		<-release
		return good(ctx, key)
	}
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}

	getDone := make(chan error, 1)
	go func() {
		eng, err := r.Get(context.Background(), key)
		if err == nil {
			_, err = eng.Draw(context.Background(), engine.Request{T: 8})
		}
		getDone <- err
	}()
	<-enter // the build is provably in progress

	// Evict while the build is mid-flight: nothing is resident yet.
	if r.Evict(key) {
		t.Fatal("Evict removed an in-flight build")
	}
	close(release)
	if err := <-getDone; err != nil {
		t.Fatal(err)
	}
	// The build's insert landed after the failed Evict: resident now.
	if st := r.Stats(); st.Entries != 1 || st.ManualEvictions != 0 {
		t.Fatalf("stats = %+v, want the built engine resident", st)
	}
	checkInvariants(t, r)
	// And an Evict after the insert wins normally.
	if !r.Evict(key) {
		t.Fatal("post-build Evict found nothing")
	}
	checkInvariants(t, r)
}
