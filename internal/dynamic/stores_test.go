package dynamic

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/registry"
)

// countingFactory builds stores over R and S (or over the given base)
// and counts its builds. While gate is non-nil, a build without a base
// signals entered and then waits for gate to close.
type countingFactory struct {
	R, S    []geom.Point
	builds  atomic.Int32
	entered chan struct{}
	gate    chan struct{}
}

func (f *countingFactory) build(ctx context.Context, key registry.Key, base *Snapshot) (*Store, error) {
	f.builds.Add(1)
	cfg := testConfig(key.L, key.Seed)
	if base == nil {
		if f.gate != nil {
			close(f.entered)
			<-f.gate
		}
		return NewStore(f.R, f.S, cfg)
	}
	cfg.InitialGeneration, cfg.InitialLastApplied = base.Generation, base.LastID
	return NewStore(base.R, base.S, cfg)
}

func newCountingFactory(t *testing.T) *countingFactory {
	R, S := testData(t)
	return &countingFactory{R: R, S: S}
}

var storesTestKey = registry.Key{Dataset: "d", L: 1000, Algorithm: "bbst", Seed: 3}

// testSnapshot is a transferred state at update 3.
func testSnapshot(t *testing.T) Snapshot {
	R, S := testData(t)
	return Snapshot{Generation: 3, LastID: 3, R: R, S: S}
}

// TestStoresInstallCoalesces: concurrent installs of one state on an
// empty map build one store, and every install is answered by it.
func TestStoresInstallCoalesces(t *testing.T) {
	f := newCountingFactory(t)
	stores := NewStores(f.build)
	snap := testSnapshot(t)
	const n = 4
	got := make([]*Store, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = stores.Install(context.Background(), storesTestKey, snap)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("install %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("install %d answered by a different store", i)
		}
	}
	if b := f.builds.Load(); b != 1 {
		t.Fatalf("%d builds for %d concurrent installs, want 1", b, n)
	}
	if st := got[0]; st.Generation() != 3 || st.LastApplied() != 3 {
		t.Fatalf("installed store at generation %d, update %d, want 3 and 3", st.Generation(), st.LastApplied())
	}
}

// TestStoresInstallWaitsForInFlightOpen: an install never builds over
// a key whose store is still being built; it waits for that store and
// refuses when the store does not cover the install's update ID.
func TestStoresInstallWaitsForInFlightOpen(t *testing.T) {
	f := newCountingFactory(t)
	f.entered, f.gate = make(chan struct{}), make(chan struct{})
	stores := NewStores(f.build)
	ctx := context.Background()
	opened := make(chan error, 1)
	go func() {
		_, err := stores.Open(ctx, storesTestKey)
		opened <- err
	}()
	<-f.entered
	snap := testSnapshot(t)
	installed := make(chan error, 1)
	go func() {
		_, err := stores.Install(ctx, storesTestKey, snap)
		installed <- err
	}()
	select {
	case err := <-installed:
		t.Fatalf("install answered (%v) while the key's first build was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(f.gate)
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	if err := <-installed; !errors.Is(err, ErrUpdateSequence) {
		t.Fatalf("install over a store at update 0: %v, want ErrUpdateSequence", err)
	}
	if b := f.builds.Load(); b != 1 {
		t.Fatalf("%d builds, want 1 (the install must not build)", b)
	}
}

// TestStoresInstallAcknowledgesCoveredState: an install whose update ID
// the live store already covers is answered by that store, which may
// be further along than the install.
func TestStoresInstallAcknowledgesCoveredState(t *testing.T) {
	f := newCountingFactory(t)
	stores := NewStores(f.build)
	ctx := context.Background()
	for i := int32(0); i < 4; i++ {
		if _, err := stores.Apply(ctx, storesTestKey, Update{DeleteR: []int32{i}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := stores.Install(ctx, storesTestKey, testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.LastApplied() != 4 || st.Generation() != 4 {
		t.Fatalf("install answered by a store at generation %d, update %d, want 4 and 4", st.Generation(), st.LastApplied())
	}
	if b := f.builds.Load(); b != 1 {
		t.Fatalf("%d builds, want 1", b)
	}
}
