package srj

// Tests of the public serving API: srj.NewServer as an embeddable
// handler, srj.NewClient against it, warmup, and error mapping.

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
)

func newTestServer(t *testing.T, opts *ServerOptions) (*Server, *Client, func()) {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	return s, NewClient(ts.URL), ts.Close
}

func TestPublicServerServesBuiltinDatasets(t *testing.T) {
	s, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 2000, MaxT: 10_000})
	defer done()
	ctx := context.Background()

	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	const l = 200.0
	pairs, err := cl.Sample(ctx, SampleRequest{Dataset: "uniform", L: l, Seed: 1, T: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1000 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if !Window(p.R, l).Contains(p.S) {
			t.Fatalf("invalid pair %v", p)
		}
	}
	if st := s.RegistryStats(); st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("registry stats = %+v", st)
	}
	// Same key again: no rebuild.
	if _, err := cl.Sample(ctx, SampleRequest{Dataset: "uniform", L: l, Seed: 1, T: 10}); err != nil {
		t.Fatal(err)
	}
	if st := s.RegistryStats(); st.Builds != 1 || st.Hits < 1 {
		t.Fatalf("repeat request rebuilt: %+v", st)
	}
}

func TestPublicServerWarm(t *testing.T) {
	s, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 2000, MaxT: 10_000})
	defer done()
	ctx := context.Background()
	key := EngineKey{Dataset: "gaussian", L: 150, Algorithm: "bbst", Seed: 3}
	if err := s.Warm(ctx, key); err != nil {
		t.Fatal(err)
	}
	if st := s.RegistryStats(); st.Builds != 1 {
		t.Fatalf("warm did not build: %+v", st)
	}
	if _, err := cl.Sample(ctx, SampleRequest{Dataset: "gaussian", L: 150, Seed: 3, T: 100}); err != nil {
		t.Fatal(err)
	}
	st := s.RegistryStats()
	if st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("warmed key was rebuilt: %+v", st)
	}
	engines := s.Engines()
	if len(engines) != 1 || engines[0].Key != key {
		t.Fatalf("engines = %+v", engines)
	}
}

// TestPublicServerChargesStores: a dynamic store counts against
// MemoryBudget. Under a budget of the store plus one and a half
// engines, two cached engines fit beside nothing, but only one fits
// beside a store of at least half an engine — and the store itself is
// never evicted.
func TestPublicServerChargesStores(t *testing.T) {
	ctx := context.Background()
	key := func(seed uint64) EngineKey {
		return EngineKey{Dataset: "uniform", L: 150, Algorithm: "bbst", Seed: seed}
	}
	storeKey := key(9)
	u := Update{InsertR: []Point{{ID: 99_999, X: 5, Y: 5}}}

	// Measure one engine and one store on an unlimited server.
	probe, _, done := newTestServer(t, &ServerOptions{DatasetSize: 2000, MaxT: 10_000, MemoryBudget: -1})
	defer done()
	if err := probe.Warm(ctx, key(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Apply(ctx, storeKey, u); err != nil {
		t.Fatal(err)
	}
	eng, st := probe.Engines()[0].SizeBytes, probe.stores.SizeBytes()
	if st < eng/2 {
		t.Fatalf("store %d bytes is under half the engine's %d", st, eng)
	}

	s, cl, done2 := newTestServer(t, &ServerOptions{DatasetSize: 2000, MaxT: 10_000, MemoryBudget: st + eng*3/2})
	defer done2()
	for seed := uint64(1); seed <= 2; seed++ {
		if err := s.Warm(ctx, key(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Engines()); n != 2 {
		t.Fatalf("%d engines resident before any store, want 2", n)
	}
	if _, err := s.Apply(ctx, storeKey, u); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(ctx, key(3)); err != nil {
		t.Fatal(err)
	}
	if engines := s.Engines(); len(engines) != 1 || engines[0].Key != key(3) {
		t.Fatalf("engines beside the store = %+v, want only the newest", engines)
	}
	if _, err := cl.Bind(storeKey).Draw(ctx, Request{T: 100}); err != nil {
		t.Fatalf("store draw after budget evictions: %v", err)
	}
}

func TestPublicServerErrorMapping(t *testing.T) {
	_, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 500, MaxT: 1000})
	defer done()
	ctx := context.Background()
	cases := []struct {
		name   string
		req    SampleRequest
		status int
	}{
		{"unknown dataset", SampleRequest{Dataset: "atlantis", L: 100, T: 10}, 400},
		{"unknown algorithm", SampleRequest{Dataset: "uniform", L: 100, Algorithm: "magic", T: 10}, 400},
		{"unknown algorithm rts", SampleRequest{Dataset: "uniform", L: 100, Algorithm: "rts", T: 10}, 400},
		{"bad extent", SampleRequest{Dataset: "uniform", L: -3, T: 10}, 400},
		{"over cap", SampleRequest{Dataset: "uniform", L: 100, T: 5000}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.Sample(ctx, tc.req)
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
				t.Fatalf("err = %v, want APIError %d", err, tc.status)
			}
		})
	}
}

// TestPublicServerRefusesNonBBSTUpdates: dynamic stores are BBST-only.
// POST /v1/update on a key of another algorithm answers 400
// bad_request without creating a store, and the key's static engine
// keeps serving draws.
func TestPublicServerRefusesNonBBSTUpdates(t *testing.T) {
	_, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 500, MaxT: 1000})
	defer done()
	ctx := context.Background()
	_, err := cl.ApplyUpdate(ctx, server.UpdateRequest{
		Dataset: "uniform", L: 300, Algorithm: string(KDS), Seed: 2,
		InsertR: []Point{{ID: 9000, X: 1, Y: 1}},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != server.CodeBadRequest {
		t.Fatalf("update on a kds key: %v, want APIError 400 %s", err, server.CodeBadRequest)
	}
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("update on a kds key: %v does not unwrap to ErrBadRequest", err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Stores) != 0 {
		t.Fatalf("refused update created stores: %+v", stats.Stores)
	}
	pairs, err := cl.Sample(ctx, SampleRequest{Dataset: "uniform", L: 300, Algorithm: string(KDS), Seed: 2, T: 50})
	if err != nil || len(pairs) != 50 {
		t.Fatalf("static kds draw after the refusal: %d pairs, %v", len(pairs), err)
	}
}

// TestPublicServerDatasetMemoized: distinct keys over one dataset
// name share a single resolution — the resolver must not be re-run
// (and built-ins not regenerated) per engine build.
func TestPublicServerDatasetMemoized(t *testing.T) {
	R := MustGenerate("uniform", 600, 51)
	S := MustGenerate("uniform", 600, 52)
	resolutions := 0
	opts := &ServerOptions{
		MaxT: 10_000,
		Datasets: func(name string) ([]Point, []Point, error) {
			resolutions++
			return R, S, nil
		},
	}
	_, cl, done := newTestServer(t, opts)
	defer done()
	ctx := context.Background()
	for _, req := range []SampleRequest{
		{Dataset: "d", L: 200, Seed: 1, T: 50},
		{Dataset: "d", L: 300, Seed: 1, T: 50}, // same dataset, new key
		{Dataset: "d", L: 200, Seed: 2, T: 50}, // same dataset, new key
	} {
		if _, err := cl.Sample(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if resolutions != 1 {
		t.Fatalf("resolver ran %d times, want 1", resolutions)
	}
}

// TestDatasetMemoBounded: the memo holds at most maxCachedDatasets
// names (it lives outside the engine MemoryBudget), evicting the
// least recently used; evicted names re-resolve, errors don't stick.
func TestDatasetMemoBounded(t *testing.T) {
	counts := map[string]int{}
	resolve := memoizeDatasets(func(name string) ([]Point, []Point, error) {
		counts[name]++
		if name == "bad" {
			return nil, nil, errors.New("nope")
		}
		return []Point{{ID: 1}}, []Point{{ID: 2}}, nil
	})
	for _, name := range []string{"a", "b", "a", "c", "a"} {
		if _, _, err := resolve(name); err != nil {
			t.Fatal(err)
		}
	}
	// Cap is 2: "b" was LRU when "c" arrived; "a" stayed hot.
	if counts["a"] != 1 || counts["b"] != 1 || counts["c"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if _, _, err := resolve("b"); err != nil {
		t.Fatal(err)
	}
	if counts["b"] != 2 {
		t.Fatalf("evicted name not re-resolved: %v", counts)
	}
	// Failed resolutions are retried, not cached.
	for i := 0; i < 2; i++ {
		if _, _, err := resolve("bad"); err == nil {
			t.Fatal("error swallowed")
		}
	}
	if counts["bad"] != 2 {
		t.Fatalf("failed resolution cached: %v", counts)
	}
}

func TestPublicServerCustomDatasets(t *testing.T) {
	R := MustGenerate("uniform", 800, 41)
	S := MustGenerate("uniform", 800, 42)
	opts := &ServerOptions{
		MaxT: 10_000,
		Datasets: func(name string) ([]Point, []Point, error) {
			if name != "mine" {
				return nil, nil, errors.New("unknown dataset")
			}
			return R, S, nil
		},
	}
	_, cl, done := newTestServer(t, opts)
	defer done()
	ctx := context.Background()
	pairs, err := cl.Sample(ctx, SampleRequest{Dataset: "mine", L: 300, Seed: 1, T: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 500 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	// The default generators must NOT be reachable.
	if _, err := cl.Sample(ctx, SampleRequest{Dataset: "uniform", L: 300, T: 10}); err == nil {
		t.Fatal("custom resolver fell through to built-ins")
	}
}
