package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rng"
)

func testPoints(r *rng.RNG, n int, extent float64, base int32) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			ID: base + int32(i),
			X:  r.Range(0, extent),
			Y:  r.Range(0, extent),
		}
	}
	return pts
}

func newTestEngine(t *testing.T, seed uint64) (*Engine, float64) {
	t.Helper()
	r := rng.New(3)
	R := testPoints(r, 400, 50, 0)
	S := testPoints(r, 400, 50, 10000)
	const l = 5.0
	s, err := core.NewBBST(R, S, core.Config{HalfExtent: l, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e, l
}

// sample draws t samples through Draw with a background context.
func sample(e *Engine, t int) ([]geom.Pair, error) {
	res, err := e.Draw(context.Background(), Request{T: t})
	return res.Pairs, err
}

func TestEngineServesValidSamples(t *testing.T) {
	e, l := newTestEngine(t, 1)
	pairs, err := sample(e, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2000 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if !geom.InWindow(p.R, p.S, l) {
			t.Fatalf("invalid pair %v", p)
		}
	}
}

// TestEngineConcurrentStress: many goroutines share one Engine (run
// with -race; the shared structures must stay read-only). Also checks
// the aggregate counters add up.
func TestEngineConcurrentStress(t *testing.T) {
	e, l := newTestEngine(t, 2)
	if err := e.Warm(8); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const requests = 30
	const perRequest = 200
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]geom.Pair, perRequest)
			for req := 0; req < requests; req++ {
				res, err := e.Draw(context.Background(), Request{Into: buf})
				if err != nil {
					errs[i] = err
					return
				}
				for _, p := range res.Pairs {
					if !geom.InWindow(p.R, p.S, l) {
						errs[i] = errors.New("pair outside window")
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Requests != goroutines*requests {
		t.Errorf("Requests = %d, want %d", st.Requests, goroutines*requests)
	}
	if st.Samples != goroutines*requests*perRequest {
		t.Errorf("Samples = %d, want %d", st.Samples, goroutines*requests*perRequest)
	}
	if st.Failures != 0 {
		t.Errorf("Failures = %d", st.Failures)
	}
	if st.TotalLatency <= 0 || st.MaxLatency <= 0 || st.AvgLatency() > st.MaxLatency {
		t.Errorf("implausible latencies: %+v", st)
	}
}

// TestEngineDeterminism: engines with equal seeds serve identical
// per-request samples to a sequential client.
func TestEngineDeterminism(t *testing.T) {
	e1, _ := newTestEngine(t, 99)
	e2, _ := newTestEngine(t, 99)
	for req := 0; req < 8; req++ {
		a, err := sample(e1, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sample(e2, 300)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("request %d diverged at sample %d", req, i)
			}
		}
	}
	// Different seeds must serve different streams.
	e3, _ := newTestEngine(t, 100)
	a, err := sample(e1, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample(e3, 300)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("distinct seeds repeated %d/%d samples", same, len(a))
	}
}

func TestEngineSampleFunc(t *testing.T) {
	e, l := newTestEngine(t, 4)
	const want = DefaultBatch*2 + 137
	got := 0
	batches := 0
	err := e.DrawFunc(context.Background(), Request{T: want}, func(batch []geom.Pair) error {
		if len(batch) == 0 || len(batch) > DefaultBatch {
			t.Fatalf("bad batch size %d", len(batch))
		}
		for _, p := range batch {
			if !geom.InWindow(p.R, p.S, l) {
				t.Fatalf("invalid pair %v", p)
			}
		}
		got += len(batch)
		batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed %d samples, want %d", got, want)
	}
	if batches != 3 {
		t.Fatalf("got %d batches, want 3", batches)
	}
	// fn errors abort the request and count as a failure.
	boom := errors.New("boom")
	if err := e.DrawFunc(context.Background(), Request{T: want}, func([]geom.Pair) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := e.Stats(); st.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", st.Failures)
	}
}

func TestEngineEdgeCases(t *testing.T) {
	e, _ := newTestEngine(t, 5)
	if _, err := sample(e, -1); err == nil {
		t.Error("negative t should fail")
	}
	if err := e.DrawFunc(context.Background(), Request{T: -1}, func([]geom.Pair) error { return nil }); err == nil {
		t.Error("negative t should fail")
	}
	if e.Name() != "BBST" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", e.SizeBytes())
	}
}

// TestEngineSampleCap: requests over the configured cap fail with
// ErrSampleCap before any result slice is allocated, and count as
// client failures.
func TestEngineSampleCap(t *testing.T) {
	e, _ := newTestEngine(t, 6)
	e.SetMaxT(1000)
	if e.MaxT() != 1000 {
		t.Fatalf("MaxT = %d", e.MaxT())
	}
	if _, err := sample(e, 1001); !errors.Is(err, ErrSampleCap) {
		t.Fatalf("over-cap Sample: err = %v", err)
	}
	if err := e.DrawFunc(context.Background(), Request{T: 1001}, func([]geom.Pair) error { t.Error("fn called"); return nil }); !errors.Is(err, ErrSampleCap) {
		t.Fatalf("over-cap SampleFunc: err = %v", err)
	}
	// At the cap is fine.
	if pairs, err := sample(e, 1000); err != nil || len(pairs) != 1000 {
		t.Fatalf("at-cap Sample: %d pairs, %v", len(pairs), err)
	}
	// Removing the cap restores unlimited requests.
	e.SetMaxT(0)
	if pairs, err := sample(e, 1001); err != nil || len(pairs) != 1001 {
		t.Fatalf("uncapped Sample: %d pairs, %v", len(pairs), err)
	}
	st := e.Stats()
	if st.ClientFailures != 2 || st.SamplerFailures != 0 || st.Failures != 2 {
		t.Fatalf("failure split = %+v", st)
	}
}

// TestEngineFailureClassification: caller-induced errors (bad t, fn
// error) land in ClientFailures; only algorithmic give-ups
// (core.ErrLowAcceptance) land in SamplerFailures.
func TestEngineFailureClassification(t *testing.T) {
	e, _ := newTestEngine(t, 7)
	if _, err := sample(e, -1); err == nil {
		t.Fatal("negative t accepted")
	}
	boom := errors.New("boom")
	if err := e.DrawFunc(context.Background(), Request{T: 10}, func([]geom.Pair) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st := e.Stats()
	if st.ClientFailures != 2 || st.SamplerFailures != 0 {
		t.Fatalf("client errors misclassified: %+v", st)
	}

	// A rejection budget of 1 makes the first rejected iteration fatal;
	// the BBST's corner-bucket upper bounds overcount, so drawing many
	// samples is certain to reject at least once. That give-up must be
	// classified as a sampler failure. Cells of at most c·⌈log₂ m⌉
	// points are counted exactly and never reject, so S is dense
	// enough (about 160 points per cell) that every corner cell keeps
	// its BBST.
	r := rng.New(9)
	R := testPoints(r, 400, 50, 0)
	S := testPoints(r, 4000, 50, 10000)
	s, err := core.NewBBST(R, S, core.Config{HalfExtent: 10, Seed: 1, MaxRejects: 1})
	if err != nil {
		t.Fatal(err)
	}
	le, err := New(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sample(le, 50000); !errors.Is(err, core.ErrLowAcceptance) {
		t.Fatalf("want ErrLowAcceptance, got %v", err)
	}
	if st := le.Stats(); st.SamplerFailures != 1 || st.ClientFailures != 0 {
		t.Fatalf("sampler error misclassified: %+v", st)
	}
}

// TestEngineDrawSeeded: a nonzero Request.Seed pins the request's
// stream — identical samples for equal seeds regardless of the
// traffic interleaved between them — without perturbing the engine's
// own per-checkout sequence.
func TestEngineDrawSeeded(t *testing.T) {
	e1, l := newTestEngine(t, 31)
	e2, _ := newTestEngine(t, 31)
	ctx := context.Background()

	a, err := e1.Draw(ctx, Request{T: 500, Seed: 9001})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Pairs {
		if !geom.InWindow(p.R, p.S, l) {
			t.Fatalf("invalid pair %v", p)
		}
	}
	// Interleave unseeded traffic on e1 only.
	for i := 0; i < 3; i++ {
		if _, err := e1.Draw(ctx, Request{T: 100}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := e1.Draw(ctx, Request{T: 500, Seed: 9001})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("equal seeds diverged at sample %d", i)
		}
	}
	// e1 has served two seeded and three unseeded requests, e2 none;
	// only the unseeded ones consumed pool seeds, so e1's next draw is
	// its 4th unseeded checkout. Skip three on e2 and the sequences
	// must line up.
	for i := 0; i < 3; i++ {
		if _, err := e2.Draw(ctx, Request{T: 100}); err != nil {
			t.Fatal(err)
		}
	}
	u1, err := e1.Draw(ctx, Request{T: 200})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := e2.Draw(ctx, Request{T: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := range u1.Pairs {
		if u1.Pairs[i] != u2.Pairs[i] {
			t.Fatalf("seeded draws perturbed the unseeded sequence (sample %d)", i)
		}
	}
}

// TestEngineDrawCancellation: a context canceled between batches
// stops the draw promptly, returns ctx.Err(), keeps the partial
// result, and counts as a client failure.
func TestEngineDrawCancellation(t *testing.T) {
	e, _ := newTestEngine(t, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Draw(ctx, Request{T: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Draw: err = %v", err)
	}
	if err := e.DrawFunc(ctx, Request{T: 10}, func([]geom.Pair) error {
		t.Error("fn called under a canceled context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled DrawFunc: err = %v", err)
	}

	// Cancel from inside the first batch: the loop must stop there.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	const want = DefaultBatch * 50
	batches := 0
	err := e.DrawFunc(ctx2, Request{T: want}, func(batch []geom.Pair) error {
		batches++
		cancel2()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err = %v", err)
	}
	if batches != 1 {
		t.Fatalf("draw continued for %d batches after cancellation", batches)
	}

	// Draw under a canceled context returns the (empty) partial result
	// without sampling.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	buf := make([]geom.Pair, DefaultBatch*3)
	res, err := e.Draw(ctx3, Request{Into: buf})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("canceled Draw drew %d pairs", len(res.Pairs))
	}

	st := e.Stats()
	if st.ClientFailures == 0 || st.SamplerFailures != 0 {
		t.Fatalf("cancellations misclassified: %+v", st)
	}
}

// TestEngineDrawBadRequest: malformed requests fail with
// ErrBadRequest before any sampling.
func TestEngineDrawBadRequest(t *testing.T) {
	e, _ := newTestEngine(t, 33)
	ctx := context.Background()
	if _, err := e.Draw(ctx, Request{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero request: err = %v", err)
	}
	if _, err := e.Draw(ctx, Request{T: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative T: err = %v", err)
	}
	if _, err := e.Draw(ctx, Request{T: 10, Into: make([]geom.Pair, 5)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("short Into: err = %v", err)
	}
	e.SetMaxT(100)
	if _, err := e.Draw(ctx, Request{T: 101}); !errors.Is(err, ErrSampleCap) {
		t.Fatalf("over cap: err = %v", err)
	}
	// Into with T defaulted from its length draws exactly len(Into).
	e.SetMaxT(0)
	buf := make([]geom.Pair, 64)
	res, err := e.Draw(ctx, Request{Into: buf})
	if err != nil || len(res.Pairs) != 64 {
		t.Fatalf("Into draw: %d pairs, %v", len(res.Pairs), err)
	}
	if &res.Pairs[0] != &buf[0] {
		t.Fatal("Result.Pairs not backed by Into")
	}
	if res.Elapsed <= 0 || res.Elapsed > time.Minute {
		t.Fatalf("implausible Elapsed %v", res.Elapsed)
	}
}

// TestEngineEmptyJoin: a provably empty join fails at construction,
// not on the first request.
func TestEngineEmptyJoin(t *testing.T) {
	R := []geom.Point{{ID: 0, X: 0, Y: 0}}
	S := []geom.Point{{ID: 0, X: 1000, Y: 1000}}
	s, err := core.NewBBST(R, S, core.Config{HalfExtent: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(s, 1); !errors.Is(err, core.ErrEmptyJoin) {
		t.Fatalf("err = %v", err)
	}
}

// TestEngineDrawZeroAllocs pins the engine's zero-allocation promise:
// once warmed, a Draw into a caller buffer and a DrawFunc through the
// pooled batch allocate nothing per request. The clone checkout, the
// batch loop, the trial count and the request record all run on
// reused state; a draw path that boxes, grows or copies per request
// fails here. Under -race sync.Pool drops Puts at random, so the
// count is only meaningful in a normal build.
func TestEngineDrawZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not reliably reuse buffers under -race")
	}
	e, _ := newTestEngine(t, 5)
	ctx := context.Background()
	dst := make([]geom.Pair, 3*DefaultBatch/2)
	req := Request{Into: dst}
	seeded := Request{Into: dst, Seed: 17}
	var got int
	fn := func(batch []geom.Pair) error {
		got += len(batch)
		return nil
	}
	// Warm the pool, the batch buffer and the first-use state.
	for range 3 {
		if _, err := e.Draw(ctx, req); err != nil {
			t.Fatal(err)
		}
		if err := e.DrawFunc(ctx, req, fn); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Draw/Into", func() { e.Draw(ctx, req) }},
		{"Draw/Into/seeded", func() { e.Draw(ctx, seeded) }},
		{"DrawFunc", func() { e.DrawFunc(ctx, req, fn) }},
		{"DrawFunc/seeded", func() { e.DrawFunc(ctx, seeded, fn) }},
	} {
		if a := testing.AllocsPerRun(50, tc.run); a != 0 {
			t.Errorf("%s: %.1f allocs per warmed request, want 0", tc.name, a)
		}
	}
	if got == 0 {
		t.Fatal("DrawFunc delivered nothing")
	}
}

// TestEngineFreedAtNextGC pins that a dropped engine keeps nothing of
// its parent sampler alive: after one collection the parent's
// finalizer has run. The runtime keeps every sync.Pool's contents,
// and the pool itself, reachable until the second collection after
// its last use, so an engine whose batch pool is a field of the
// Engine (the runtime then holds a pointer into it), or whose idle
// clones (which reach the parent's structures) wait in a sync.Pool,
// outlives its last reference by a collection. Under a registry's
// budget that is an evicted engine holding its memory while its
// replacement is built. A parent that reaches itself (say, through a
// phase body kept past its lifecycle) is never finalized at all. The
// finalizer sits on the parent only: one on the Engine would itself
// keep what the Engine references alive for one more cycle and hide
// the bug. Every algorithm runs it.
func TestEngineFreedAtNextGC(t *testing.T) {
	for _, algo := range []struct {
		name string
		mk   func(R, S []geom.Point, cfg core.Config) (core.Cloner, error)
	}{
		{"KDS", func(R, S []geom.Point, cfg core.Config) (core.Cloner, error) { return core.NewKDS(R, S, cfg) }},
		{"KDS-rejection", func(R, S []geom.Point, cfg core.Config) (core.Cloner, error) { return core.NewKDSRejection(R, S, cfg) }},
		{"BBST", func(R, S []geom.Point, cfg core.Config) (core.Cloner, error) { return core.NewBBST(R, S, cfg) }},
		{"GridKD", func(R, S []geom.Point, cfg core.Config) (core.Cloner, error) { return core.NewGridKD(R, S, cfg) }},
		{"JoinSample", func(R, S []geom.Point, cfg core.Config) (core.Cloner, error) { return core.NewJoinSample(R, S, cfg) }},
	} {
		t.Run(algo.name, func(t *testing.T) {
			var freed atomic.Bool
			drawAndDrop(t, algo.mk, &freed)
			runtime.GC()
			for deadline := time.Now().Add(200 * time.Millisecond); !freed.Load() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if !freed.Load() {
				t.Fatal("the parent sampler is still reachable one collection after its engine was dropped")
			}
		})
	}
}

// drawAndDrop builds an engine over a parent from mk that sets freed
// when it is collected, serves one DrawFunc request and drops every
// reference. It is a function of its own so that nothing it built
// stays live in the caller's frame.
//
//go:noinline
func drawAndDrop(t *testing.T, mk func(R, S []geom.Point, cfg core.Config) (core.Cloner, error), freed *atomic.Bool) {
	r := rng.New(3)
	s, err := mk(testPoints(r, 400, 50, 0), testPoints(r, 400, 50, 10000), core.Config{HalfExtent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(s, func(any) { freed.Store(true) })
	e, err := New(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DrawFunc(context.Background(), Request{T: 100}, func([]geom.Pair) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
