package registry

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// testBuild returns a BuildFunc over real BBST engines (the reseed
// hook engines need is internal to core, so fakes cannot stand in)
// and an invocation counter. Engine size scales with the dataset
// size, which the eviction tests exploit.
func testBuild(n int, delay time.Duration) (BuildFunc, *atomic.Int64) {
	var builds atomic.Int64
	return func(ctx context.Context, key Key) (*engine.Engine, error) {
		builds.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		R := dataset.Uniform(n, key.Seed+1)
		S := dataset.Uniform(n, key.Seed+2)
		s, err := core.NewBBST(R, S, core.Config{HalfExtent: key.L, Seed: key.Seed})
		if err != nil {
			return nil, err
		}
		return engine.New(s, key.Seed)
	}, &builds
}

func TestRegistryHitMissStats(t *testing.T) {
	build, builds := testBuild(500, 0)
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}
	ctx := context.Background()

	e1, err := r.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("second Get did not return the cached engine")
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != int64(e1.SizeBytes()) {
		t.Fatalf("Bytes = %d, engine SizeBytes = %d", st.Bytes, e1.SizeBytes())
	}
	ents := r.Entries()
	if len(ents) != 1 || ents[0].Key != key || ents[0].Hits != 1 || ents[0].BuildTime <= 0 {
		t.Fatalf("entries = %+v", ents)
	}
}

// TestRegistrySingleflight: a thundering herd on a cold key pays
// exactly one preprocessing pass and shares the resulting engine.
func TestRegistrySingleflight(t *testing.T) {
	build, builds := testBuild(500, 30*time.Millisecond)
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 2}

	const herd = 16
	engines := make([]*engine.Engine, herd)
	errs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engines[i], errs[i] = r.Get(context.Background(), key)
		}(i)
	}
	wg.Wait()
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if engines[i] != engines[0] {
			t.Fatal("herd members got different engines")
		}
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	if st := r.Stats(); st.Hits+st.Misses != herd {
		t.Fatalf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, herd)
	}
}

// TestRegistryEviction: exceeding the budget drops the least recently
// used entry; re-requesting it is a rebuild.
func TestRegistryEviction(t *testing.T) {
	build, builds := testBuild(500, 0)
	ctx := context.Background()
	keyA := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}
	keyB := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 2}

	// Size one engine, then budget for ~1.5 of them.
	probe := New(build, 0)
	eA, err := probe.Get(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(eA.SizeBytes()) * 3 / 2

	r := New(build, budget)
	if _, err := r.Get(ctx, keyA); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, keyB); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("Bytes %d over budget %d", st.Bytes, budget)
	}
	ents := r.Entries()
	if len(ents) != 1 || ents[0].Key != keyB {
		t.Fatalf("survivor = %+v, want keyB", ents)
	}
	// keyA was evicted: getting it again rebuilds (and evicts keyB).
	before := builds.Load()
	if _, err := r.Get(ctx, keyA); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before+1 {
		t.Fatal("evicted key did not rebuild")
	}
}

// TestRegistryLRUOrder: touching an entry protects it; the coldest
// entry is the one evicted.
func TestRegistryLRUOrder(t *testing.T) {
	build, _ := testBuild(500, 0)
	ctx := context.Background()
	keyA := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}
	keyB := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 2}
	keyC := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 3}

	probe := New(build, 0)
	eA, err := probe.Get(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(eA.SizeBytes()) * 5 / 2 // room for two engines

	r := New(build, budget)
	for _, k := range []Key{keyA, keyB} {
		if _, err := r.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B becomes the LRU victim when C arrives.
	if _, err := r.Get(ctx, keyA); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, keyC); err != nil {
		t.Fatal(err)
	}
	resident := map[Key]bool{}
	for _, e := range r.Entries() {
		resident[e.Key] = true
	}
	if !resident[keyA] || !resident[keyC] || resident[keyB] {
		t.Fatalf("resident = %v, want A and C", resident)
	}
}

// budgetFor returns a budget with room for n of testBuild's engines
// but not n+1, sized from one probe build.
func budgetFor(t *testing.T, build BuildFunc, n int64) int64 {
	t.Helper()
	e, err := New(build, 0).Get(context.Background(), Key{Dataset: "probe", L: 100, Algorithm: "bbst", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return int64(e.SizeBytes()) * (2*n + 1) / 2
}

// residentKeys lists the resident keys, most recently used first.
func residentKeys(r *Registry) []Key {
	var out []Key
	for _, e := range r.Entries() {
		out = append(out, e.Key)
	}
	return out
}

// TestRegistryKeepsFrequentEntries: a key asked for often outlives a
// run of one-shot keys that would have pushed it out of a
// least-recently-used cache.
func TestRegistryKeepsFrequentEntries(t *testing.T) {
	build, _ := testBuild(500, 0)
	ctx := context.Background()
	key := func(seed uint64) Key { return Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: seed} }
	r := New(build, budgetFor(t, build, 3))
	hot := key(1)
	for range 6 { // one build, five hits
		if _, err := r.Get(ctx, hot); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(100); seed < 110; seed++ {
		if _, err := r.Get(ctx, key(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8 (3 resident of 11 keys): %+v", st.Evictions, st)
	}
	if !slices.Contains(residentKeys(r), hot) {
		t.Fatalf("the key hit 5 times was evicted by 10 one-shot keys; resident = %v", residentKeys(r))
	}
}

// TestRegistryAgesOutStaleEntries: once a popular key goes quiet, the
// aging clock lets keys that are asked for now, if less often than it
// once was, evict it.
func TestRegistryAgesOutStaleEntries(t *testing.T) {
	build, _ := testBuild(500, 0)
	ctx := context.Background()
	key := func(seed uint64) Key { return Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: seed} }
	r := New(build, budgetFor(t, build, 3))
	stale := key(1)
	for range 6 { // one build, five hits
		if _, err := r.Get(ctx, stale); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(100); seed < 130; seed++ {
		for range 2 {
			if _, err := r.Get(ctx, key(seed)); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Contains(residentKeys(r), stale) {
			t.Logf("the stale key went after %d keys requested twice", seed-99)
			return
		}
	}
	t.Fatalf("30 keys requested twice each never evicted a key that went quiet after 5 hits; resident = %v", residentKeys(r))
}

// TestRegistryOversizedEngine: an engine bigger than the whole budget
// still serves (the newest entry is never evicted) and is dropped as
// soon as another key becomes more recent.
func TestRegistryOversizedEngine(t *testing.T) {
	build, _ := testBuild(500, 0)
	ctx := context.Background()
	r := New(build, 1) // one byte: everything is oversized
	keyA := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}
	keyB := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 2}
	if _, err := r.Get(ctx, keyA); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Entries != 1 {
		t.Fatalf("oversized engine not resident: %+v", st)
	}
	if _, err := r.Get(ctx, keyB); err != nil {
		t.Fatal(err)
	}
	ents := r.Entries()
	if len(ents) != 1 || ents[0].Key != keyB {
		t.Fatalf("entries = %+v, want only keyB", ents)
	}
}

// TestRegistryBuildErrorNotCached: a failed build is retried by the
// next Get instead of poisoning the key.
func TestRegistryBuildErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	good, _ := testBuild(500, 0)
	build := func(ctx context.Context, key Key) (*engine.Engine, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return good(ctx, key)
	}
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}
	if _, err := r.Get(context.Background(), key); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := r.Stats(); st.Entries != 0 {
		t.Fatalf("failed build was cached: %+v", st)
	}
	if _, err := r.Get(context.Background(), key); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestRegistryWaiterCancellation: a waiter's context cancels its
// wait, not the shared build, which completes and is cached.
func TestRegistryWaiterCancellation(t *testing.T) {
	release := make(chan struct{})
	good, _ := testBuild(500, 0)
	build := func(ctx context.Context, key Key) (*engine.Engine, error) {
		<-release
		return good(ctx, key)
	}
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}

	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		close(started)
		_, err := r.Get(context.Background(), key)
		leaderDone <- err
	}()
	<-started
	// Wait for the leader to register its in-flight build.
	for {
		r.mu.Lock()
		n := len(r.inflight)
		r.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Get(ctx, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Entries != 1 || st.Builds != 1 {
		t.Fatalf("build did not complete and cache: %+v", st)
	}
}

// TestRegistryInitiatorCancellation: the Get that triggers a build is
// bounded by its own context just like a joiner — it returns the
// cancellation promptly while the already-started build finishes in
// the background and lands in the cache.
func TestRegistryInitiatorCancellation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	good, _ := testBuild(500, 0)
	build := func(ctx context.Context, key Key) (*engine.Engine, error) {
		close(started)
		<-release
		return good(ctx, key)
	}
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}

	// Cancel the initiator only once the build has provably begun, so
	// this exercises the started-build path, not abandonment.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	if _, err := r.Get(ctx, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator got %v, want Canceled", err)
	}
	close(release)
	// The detached build completes and is cached: a later Get with a
	// live context hits it without rebuilding.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detached build never cached")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := r.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRegistryAbandonedBuildSkipped: a build still queued on the
// concurrency semaphore when its last waiter gives up is skipped
// outright — a burst of never-to-be-used keys must not buy
// preprocessing passes nobody is waiting for.
func TestRegistryAbandonedBuildSkipped(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(limit)
	var builtSeeds sync.Map
	good, _ := testBuild(200, 0)
	build := func(ctx context.Context, key Key) (*engine.Engine, error) {
		builtSeeds.Store(key.Seed, true)
		started.Done()
		<-release
		return good(ctx, key)
	}
	r := New(build, 0)

	// Fill every semaphore slot with builds blocked inside the
	// builder.
	fillers := make(chan error, limit)
	for i := 0; i < limit; i++ {
		go func(i int) {
			_, err := r.Get(context.Background(), Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: uint64(i)})
			fillers <- err
		}(i)
	}
	started.Wait()

	// This key queues behind the full semaphore; cancel its only
	// waiter before a slot frees.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	abandoned := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 999}
	if _, err := r.Get(ctx, abandoned); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued initiator got %v, want Canceled", err)
	}

	close(release)
	for i := 0; i < limit; i++ {
		if err := <-fillers; err != nil {
			t.Fatal(err)
		}
	}
	// Once the queue drains, the abandoned key must not have built
	// and must not linger in the inflight map.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		pending := len(r.inflight)
		r.mu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d inflight entries never drained", pending)
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := builtSeeds.Load(uint64(999)); ok {
		t.Fatal("abandoned build executed anyway")
	}
	if st := r.Stats(); st.Builds != uint64(limit) || st.Entries != limit {
		t.Fatalf("stats = %+v, want %d builds", st, limit)
	}
}

// TestRegistryBuildConcurrencyCap: distinct cold keys cannot fan out
// more than GOMAXPROCS builds at once — the memory those builds hold
// is invisible to the budget, so the semaphore is what bounds it.
func TestRegistryBuildConcurrencyCap(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	var cur, peak atomic.Int64
	good, _ := testBuild(200, 0)
	build := func(ctx context.Context, key Key) (*engine.Engine, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		defer cur.Add(-1)
		return good(ctx, key)
	}
	r := New(build, 0)
	const keys = 64
	var wg sync.WaitGroup
	errs := make([]error, keys)
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Get(context.Background(), Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: uint64(i)})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > int64(limit) {
		t.Fatalf("peak concurrent builds = %d > GOMAXPROCS %d", got, limit)
	}
	if st := r.Stats(); st.Builds != keys {
		t.Fatalf("builds = %d, want %d", st.Builds, keys)
	}
}

func TestRegistryExplicitEvict(t *testing.T) {
	build, _ := testBuild(500, 0)
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: 1}
	if _, err := r.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if !r.Evict(key) {
		t.Fatal("Evict found nothing")
	}
	if r.Evict(key) {
		t.Fatal("double Evict reported success")
	}
	st := r.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after evict: %+v", st)
	}
	// Manual evictions are accounted apart from budget pressure.
	if st.ManualEvictions != 1 || st.Evictions != 0 {
		t.Fatalf("eviction accounting conflated: %+v", st)
	}
}

// TestRegistryRejectsNaNKey: a NaN L would corrupt the registry's map
// bookkeeping (Go map deletes on NaN keys are no-ops), so Get refuses
// it outright and tracks nothing.
func TestRegistryRejectsNaNKey(t *testing.T) {
	build, builds := testBuild(200, 0)
	r := New(build, 0)
	key := Key{Dataset: "uniform", L: math.NaN(), Algorithm: "bbst", Seed: 1}
	for i := 0; i < 3; i++ {
		if _, err := r.Get(context.Background(), key); !errors.Is(err, ErrInvalidKey) {
			t.Fatalf("err = %v, want ErrInvalidKey", err)
		}
	}
	if builds.Load() != 0 {
		t.Fatal("NaN key reached the builder")
	}
	r.mu.Lock()
	leaked := len(r.inflight)
	r.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d inflight entries leaked", leaked)
	}
	if st := r.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("NaN key was tracked: %+v", st)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Dataset: "nyc", L: 100.5, Algorithm: "bbst", Seed: 7}
	if got := k.String(); got != "nyc:100.5:bbst:7" {
		t.Fatalf("String = %q", got)
	}
}

// TestRegistryReserve: memory charged through Reserve counts against
// the budget at every eviction pass. A reserve past the budget leaves
// only the newest engine resident; a nil reserve behaves as if none
// were set.
func TestRegistryReserve(t *testing.T) {
	build, _ := testBuild(500, 0)
	ctx := context.Background()
	key := func(seed uint64) Key { return Key{Dataset: "uniform", L: 100, Algorithm: "bbst", Seed: seed} }

	probe := New(build, 0)
	e, err := probe.Get(ctx, key(1))
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(e.SizeBytes()) * 5 / 2 // room for two engines
	resident := func(r *Registry) []Key {
		var out []Key
		for _, e := range r.Entries() {
			out = append(out, e.Key)
		}
		return out
	}

	r := New(build, budget)
	r.Reserve(nil)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := r.Get(ctx, key(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got := resident(r); len(got) != 2 || got[0] != key(3) || got[1] != key(2) {
		t.Fatalf("nil reserve: resident = %v, want keys 3 and 2", got)
	}

	var reserved atomic.Int64
	r.Reserve(reserved.Load)
	reserved.Store(budget + 1)
	if _, err := r.Get(ctx, key(4)); err != nil {
		t.Fatal(err)
	}
	if got := resident(r); len(got) != 1 || got[0] != key(4) {
		t.Fatalf("reserve over budget: resident = %v, want only key 4", got)
	}
	if st := r.Stats(); st.Evictions != 3 || st.Bytes > budget {
		t.Fatalf("reserve over budget: %+v", st)
	}

	// Lifting the reserve makes room for two engines again.
	reserved.Store(0)
	if _, err := r.Get(ctx, key(5)); err != nil {
		t.Fatal(err)
	}
	if got := resident(r); len(got) != 2 {
		t.Fatalf("reserve lifted: resident = %v, want two engines", got)
	}
}
