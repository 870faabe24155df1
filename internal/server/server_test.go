package server

// End-to-end tests of the serving stack: a real HTTP listener
// (httptest), the registry behind it, and the Client in front —
// sample uniformity over the wire, cache-hit behavior, eviction under
// a memory budget, and the request limits.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// testEnv is the dataset resolution and engine construction srjserver
// performs, reduced to named in-memory point sets plus a build
// counter the cache tests assert on.
type testEnv struct {
	data   map[string][2][]geom.Point
	maxT   int
	builds atomic.Int64
}

func (te *testEnv) build(ctx context.Context, key registry.Key) (*engine.Engine, error) {
	rs, ok := te.data[key.Dataset]
	if !ok {
		return nil, fmt.Errorf("%w: unknown dataset %q", ErrBadKey, key.Dataset)
	}
	if key.L <= 0 || math.IsNaN(key.L) || math.IsInf(key.L, 0) {
		return nil, fmt.Errorf("%w: bad half-extent %g", ErrBadKey, key.L)
	}
	cfg := core.Config{HalfExtent: key.L, Seed: key.Seed}
	var (
		s   core.Cloner
		err error
	)
	switch key.Algorithm {
	case "bbst":
		s, err = core.NewBBST(rs[0], rs[1], cfg)
	case "kds":
		s, err = core.NewKDS(rs[0], rs[1], cfg)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrBadKey, key.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	te.builds.Add(1)
	eng, err := engine.New(s, key.Seed)
	if err != nil {
		return nil, err
	}
	eng.SetMaxT(te.maxT)
	return eng, nil
}

func randomPoints(r *rng.RNG, n int, extent float64, base int32) []geom.Point {
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

// newTestStack brings up the full stack: datasets, registry (with the
// given budget), server on an httptest listener, and a client against
// it. "tiny" is a small instance whose exact join the uniformity test
// enumerates; "other" is a distinct dataset for eviction tests.
func newTestStack(t *testing.T, budget int64, maxT int) (*Client, *registry.Registry, *testEnv, func()) {
	t.Helper()
	r := rng.New(2)
	te := &testEnv{
		data: map[string][2][]geom.Point{
			"tiny":  {randomPoints(r, 25, 12, 0), randomPoints(r, 25, 12, 10000)},
			"other": {randomPoints(r, 300, 50, 0), randomPoints(r, 300, 50, 10000)},
		},
		maxT: maxT,
	}
	reg := registry.New(te.build, budget)
	srv, err := New(Config{Registry: reg, MaxT: maxT, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return NewClient(ts.URL, ts.Client()), reg, te, ts.Close
}

// TestServerEndToEnd is the acceptance test of the serving stack:
// build an engine through the registry via the client, draw samples
// over the wire, and assert (a) the sampled distribution over the
// exactly-enumerated join is uniform, (b) a second request for the
// same key is a registry cache hit with no rebuild, and (c) eviction
// triggers once the memory budget is exceeded.
func TestServerEndToEnd(t *testing.T) {
	cl, reg, te, done := newTestStack(t, 0, 200_000)
	defer done()
	ctx := context.Background()

	rs := te.data["tiny"]
	const l = 3.0
	joined := join.Materialize(rs[0], rs[1], l)
	if len(joined) < 20 || len(joined) > 400 {
		t.Fatalf("test setup: |J| = %d not in a good range", len(joined))
	}
	jset := map[[2]int32]bool{}
	for _, p := range joined {
		jset[[2]int32{p.R.ID, p.S.ID}] = true
	}

	// (a) Uniformity of samples drawn over the wire, streamed in
	// chunks through the binary transport.
	const draws = 120_000
	req := SampleRequest{Dataset: "tiny", L: l, Algorithm: "bbst", Seed: 99, T: draws}
	counts := map[[2]int32]int{}
	err := cl.SampleFunc(ctx, req, func(batch []geom.Pair) error {
		for _, p := range batch {
			k := [2]int32{p.R.ID, p.S.ID}
			if !jset[k] {
				return fmt.Errorf("sampled pair %v not in J", p)
			}
			counts[k]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(draws) / float64(len(joined))
	chi2 := 0.0
	for k := range jset {
		d := float64(counts[k]) - expected
		chi2 += d * d / expected
	}
	dof := float64(len(joined) - 1)
	// Same p≈0.001 bound the in-process uniformity tests use.
	limit := dof + 4*math.Sqrt(2*dof) + 10
	if chi2 > limit {
		t.Fatalf("wire distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
	}

	// (b) The same key again: a cache hit, no rebuild.
	buildsBefore := te.builds.Load()
	if _, err := cl.Sample(ctx, req); err != nil {
		t.Fatal(err)
	}
	if te.builds.Load() != buildsBefore {
		t.Fatal("second request for the same key rebuilt the engine")
	}
	st := reg.Stats()
	if st.Hits < 1 || st.Builds != uint64(buildsBefore) {
		t.Fatalf("registry stats after repeat request: %+v", st)
	}

	// (c) Eviction under a budget sized for one engine.
	entries := reg.Entries()
	if len(entries) != 1 {
		t.Fatalf("expected 1 resident engine, have %d", len(entries))
	}
	budget := entries[0].SizeBytes * 3 / 2
	cl2, reg2, _, done2 := newTestStack(t, budget, 200_000)
	defer done2()
	if _, err := cl2.Sample(ctx, SampleRequest{Dataset: "tiny", L: l, Seed: 1, T: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Sample(ctx, SampleRequest{Dataset: "tiny", L: l, Seed: 2, T: 100}); err != nil {
		t.Fatal(err)
	}
	st2 := reg2.Stats()
	if st2.Evictions < 1 {
		t.Fatalf("no eviction under budget %d: %+v", budget, st2)
	}
	if st2.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d", st2.Bytes, budget)
	}
}

// TestServerTransportsAgree: the JSON and binary transports serve the
// same kind of valid samples.
func TestServerTransportsAgree(t *testing.T) {
	cl, _, _, done := newTestStack(t, 0, 10_000)
	defer done()
	ctx := context.Background()
	const l = 3.0
	req := SampleRequest{Dataset: "tiny", L: l, Seed: 5, T: 500}

	bin, err := cl.Sample(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	jsn, err := cl.SampleJSON(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) != 500 || len(jsn) != 500 {
		t.Fatalf("got %d binary, %d json pairs", len(bin), len(jsn))
	}
	for _, pairs := range [][]geom.Pair{bin, jsn} {
		for _, p := range pairs {
			if !geom.InWindow(p.R, p.S, l) {
				t.Fatalf("invalid pair %v", p)
			}
		}
	}
}

// TestServerLimits: malformed and over-limit requests are rejected
// with client-error statuses, never served.
func TestServerLimits(t *testing.T) {
	cl, _, te, done := newTestStack(t, 0, 1000)
	defer done()
	ctx := context.Background()

	cases := []struct {
		name   string
		req    SampleRequest
		status int
	}{
		{"over max t", SampleRequest{Dataset: "tiny", L: 3, T: 1001}, 400},
		{"zero t", SampleRequest{Dataset: "tiny", L: 3, T: 0}, 400},
		{"negative t", SampleRequest{Dataset: "tiny", L: 3, T: -5}, 400},
		{"missing dataset", SampleRequest{L: 3, T: 10}, 400},
		{"unknown dataset", SampleRequest{Dataset: "nope", L: 3, T: 10}, 400},
		{"unknown algorithm", SampleRequest{Dataset: "tiny", L: 3, Algorithm: "nope", T: 10}, 400},
		{"bad l", SampleRequest{Dataset: "tiny", L: -1, T: 10}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.SampleJSON(ctx, tc.req)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want *APIError", err)
			}
			if apiErr.Status != tc.status {
				t.Fatalf("status = %d, want %d (%s)", apiErr.Status, tc.status, apiErr.Message)
			}
		})
	}
	// The client always sets a valid format, so exercise the unknown-
	// format and malformed-body rejections with raw requests.
	for _, body := range []string{
		`{"dataset":"tiny","l":3,"t":10,"format":"xml"}`,
		`{"dataset": truncated`,
	} {
		resp, err := http.Post(cl.base+"/v1/sample", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("raw body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := te.builds.Load(); got != 0 {
		t.Fatalf("rejected requests built %d engines", got)
	}

	// A provably empty join is a well-formed key that cannot serve.
	_, err := cl.SampleJSON(ctx, SampleRequest{Dataset: "tiny", L: 0.000001, T: 10})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("empty join: err = %v, want 422", err)
	}
}

// TestServerJSONTransportCap: the buffering JSON transport has its
// own cap, DefaultMaxTJSON, below the default MaxT; the same t streams
// fine over binary.
func TestServerJSONTransportCap(t *testing.T) {
	r := rng.New(2)
	te := &testEnv{
		data: map[string][2][]geom.Point{
			"tiny": {randomPoints(r, 25, 12, 0), randomPoints(r, 25, 12, 10000)},
		},
		maxT: DefaultMaxT,
	}
	reg := registry.New(te.build, 0)
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	const over = DefaultMaxTJSON + 1
	req := SampleRequest{Dataset: "tiny", L: 3, Seed: 1, T: over}
	var apiErr *APIError
	if _, err := cl.SampleJSON(ctx, req); !errors.As(err, &apiErr) ||
		apiErr.Status != 400 || !strings.Contains(apiErr.Message, "binary") {
		t.Fatalf("over-JSON-cap err = %v, want 400 suggesting binary", err)
	}
	if pairs, err := cl.Sample(ctx, req); err != nil || len(pairs) != over {
		t.Fatalf("binary at same t: %d pairs, %v", len(pairs), err)
	}
	if pairs, err := cl.SampleJSON(ctx, SampleRequest{Dataset: "tiny", L: 3, Seed: 1, T: 1000}); err != nil || len(pairs) != 1000 {
		t.Fatalf("JSON below the cap: %d pairs, %v", len(pairs), err)
	}
}

// TestServerEvictEndpoint: DELETE /v1/engines drops a resident
// engine so load tools can clean up after themselves.
func TestServerEvictEndpoint(t *testing.T) {
	cl, reg, _, done := newTestStack(t, 0, 10_000)
	defer done()
	ctx := context.Background()
	req := SampleRequest{Dataset: "tiny", L: 3, Seed: 9, T: 100}
	if _, err := cl.Sample(ctx, req); err != nil {
		t.Fatal(err)
	}
	if st := reg.Stats(); st.Entries != 1 {
		t.Fatalf("setup: %+v", st)
	}
	ok, err := cl.EvictEngine(ctx, req.Key())
	if err != nil || !ok {
		t.Fatalf("evict: %v, %v", ok, err)
	}
	// A manual evict must not read as budget pressure.
	if st := reg.Stats(); st.Entries != 0 || st.ManualEvictions != 1 || st.Evictions != 0 {
		t.Fatalf("after evict: %+v", st)
	}
	// Idempotent: a second evict reports nothing resident.
	ok, err = cl.EvictEngine(ctx, req.Key())
	if err != nil || ok {
		t.Fatalf("double evict: %v, %v", ok, err)
	}
	// Malformed evicts are refused.
	ok, err = cl.EvictEngine(ctx, registry.Key{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || ok {
		t.Fatalf("empty-key evict: %v, %v", ok, err)
	}
}

// TestServerFormatPrecedence: an explicit body format beats the
// Accept header; Accept only fills in when the field is empty.
func TestServerFormatPrecedence(t *testing.T) {
	cl, _, _, done := newTestStack(t, 0, 10_000)
	defer done()
	cases := []struct {
		name, body, accept, wantCT string
	}{
		{"explicit json beats binary accept",
			`{"dataset":"tiny","l":3,"t":5,"format":"json"}`, ContentTypeBinary, "application/json"},
		{"empty format follows accept",
			`{"dataset":"tiny","l":3,"t":5}`, ContentTypeBinary, ContentTypeBinary},
		{"empty format defaults to json",
			`{"dataset":"tiny","l":3,"t":5}`, "", "application/json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hr, err := http.NewRequest(http.MethodPost, cl.base+"/v1/sample", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			hr.Header.Set("Content-Type", "application/json")
			if tc.accept != "" {
				hr.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
				t.Fatalf("Content-Type = %q, want %q", ct, tc.wantCT)
			}
		})
	}
}

// TestServerConcurrentClients hammers one key from many goroutines
// through real HTTP; run with -race. The registry must build once.
func TestServerConcurrentClients(t *testing.T) {
	cl, reg, te, done := newTestStack(t, 0, 10_000)
	defer done()
	const clients = 12
	const requests = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for req := 0; req < requests; req++ {
				pairs, err := cl.Sample(context.Background(),
					SampleRequest{Dataset: "other", L: 5, Seed: 3, T: 500})
				if err != nil {
					errs[i] = err
					return
				}
				if len(pairs) != 500 {
					errs[i] = fmt.Errorf("got %d pairs", len(pairs))
					return
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
	if got := te.builds.Load(); got != 1 {
		t.Fatalf("herd built %d engines, want 1", got)
	}
	if st := reg.Stats(); st.Hits+st.Misses != clients*requests {
		t.Fatalf("request accounting off: %+v", st)
	}
}

// TestServerStatsEndpoints: /v1/stats, /v1/engines, /healthz.
func TestServerStatsEndpoints(t *testing.T) {
	cl, _, _, done := newTestStack(t, 0, 10_000)
	defer done()
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sample(ctx, SampleRequest{Dataset: "tiny", L: 3, Seed: 1, T: 200}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxT != 10_000 || st.Registry.Builds != 1 || len(st.Engines) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Engines[0].Engine.Samples != 200 {
		t.Fatalf("engine counters not surfaced: %+v", st.Engines[0])
	}
	engines, err := cl.Engines(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != 1 || engines[0].Key.Dataset != "tiny" {
		t.Fatalf("engines = %+v", engines)
	}
}

// TestServerDrawSeed: a nonzero draw_seed pins the request's stream —
// equal (key, draw_seed) requests return identical samples whatever
// traffic is interleaved — on both transports, and the two transports
// agree with each other.
func TestServerDrawSeed(t *testing.T) {
	cl, _, _, done := newTestStack(t, 0, 10_000)
	defer done()
	ctx := context.Background()
	seeded := SampleRequest{Dataset: "tiny", L: 3, Seed: 1, DrawSeed: 1234, T: 600}
	unseeded := SampleRequest{Dataset: "tiny", L: 3, Seed: 1, T: 600}

	a, err := cl.Sample(ctx, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sample(ctx, unseeded); err != nil { // interleaved traffic
		t.Fatal(err)
	}
	b, err := cl.Sample(ctx, seeded)
	if err != nil {
		t.Fatal(err)
	}
	jsn, err := cl.SampleJSON(ctx, seeded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal draw seeds diverged at sample %d", i)
		}
		if a[i] != jsn[i] {
			t.Fatalf("transports disagree at sample %d: %v vs %v", i, a[i], jsn[i])
		}
	}
	// Unseeded requests must not replay each other.
	c, err := cl.Sample(ctx, unseeded)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cl.Sample(ctx, unseeded)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range c {
		if c[i] == d[i] {
			same++
		}
	}
	if same > len(c)/2 {
		t.Fatalf("unseeded requests repeated %d/%d samples", same, len(c))
	}
}

// TestServerErrorCodes: non-2xx answers carry a machine-readable
// code, and the client unwraps it onto the canonical sentinel — the
// same errors.Is checks as against a local engine. Non-positive t is
// a 400 on every transport.
func TestServerErrorCodes(t *testing.T) {
	cl, _, _, done := newTestStack(t, 0, 1000)
	defer done()
	ctx := context.Background()

	cases := []struct {
		name     string
		req      SampleRequest
		code     string
		sentinel error
	}{
		{"zero t", SampleRequest{Dataset: "tiny", L: 3, T: 0}, CodeBadRequest, engine.ErrBadRequest},
		{"negative t", SampleRequest{Dataset: "tiny", L: 3, T: -5}, CodeBadRequest, engine.ErrBadRequest},
		{"over cap", SampleRequest{Dataset: "tiny", L: 3, T: 1001}, CodeSampleCap, engine.ErrSampleCap},
		{"unknown dataset", SampleRequest{Dataset: "nope", L: 3, T: 10}, CodeBadKey, ErrBadKey},
		{"empty join", SampleRequest{Dataset: "tiny", L: 0.000001, T: 10}, CodeEmptyJoin, core.ErrEmptyJoin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.SampleJSON(ctx, tc.req)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want *APIError", err)
			}
			if apiErr.Code != tc.code {
				t.Fatalf("code = %q, want %q (%s)", apiErr.Code, tc.code, apiErr.Message)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
		})
	}

	// The binary transport answers non-positive t with the same 400
	// before any stream starts.
	for _, body := range []string{
		`{"dataset":"tiny","l":3,"t":0,"format":"binary"}`,
		`{"dataset":"tiny","l":3,"t":-7,"format":"binary"}`,
	} {
		resp, err := http.Post(cl.base+"/v1/sample", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 {
			t.Fatalf("binary body %q: status %d, want 400", body, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("binary body %q: error Content-Type %q", body, ct)
		}
		resp.Body.Close()
	}
}

// TestClientRejectsOverDelivery: a misbehaving server streaming more
// samples than requested is cut off at the first excess frame — the
// client's accumulators must not grow past req.T.
func TestClientRejectsOverDelivery(t *testing.T) {
	rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypeBinary)
		WriteStreamHeader(w)
		batch := make([]geom.Pair, 1000)
		var scratch []byte
		for i := 0; i < 50; i++ { // 50k pairs, whatever was asked
			scratch, _ = WriteStreamFrame(w, batch, scratch)
		}
		WriteStreamEnd(w)
	}))
	defer rogue.Close()
	cl := NewClient(rogue.URL, rogue.Client())

	received := 0
	err := cl.SampleFunc(context.Background(), SampleRequest{Dataset: "d", L: 1, T: 2500},
		func(batch []geom.Pair) error {
			received += len(batch)
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("err = %v, want over-delivery error", err)
	}
	if received > 2500 {
		t.Fatalf("fn received %d samples, beyond the %d requested", received, 2500)
	}
	pairs, err := cl.Sample(context.Background(), SampleRequest{Dataset: "d", L: 1, T: 2500})
	if err == nil {
		t.Fatal("Sample accepted an over-delivering stream")
	}
	if len(pairs) > 2500 {
		t.Fatalf("Sample accumulated %d samples, beyond the %d requested", len(pairs), 2500)
	}
}

// TestServerMidStreamErrorParity: an error after the binary stream
// has started (the 200 is on the wire) still reaches the client with
// its code, so errors.Is against the canonical sentinel works for
// mid-stream failures exactly as for pre-stream HTTP errors. The
// forced failure is the server's own deadline expiring mid-draw.
func TestServerMidStreamErrorParity(t *testing.T) {
	r := rng.New(2)
	te := &testEnv{
		data: map[string][2][]geom.Point{
			"other": {randomPoints(r, 300, 50, 0), randomPoints(r, 300, 50, 10000)},
		},
		maxT: 100_000_000,
	}
	reg := registry.New(te.build, 0)
	srv, err := New(Config{Registry: reg, MaxT: 100_000_000, Timeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient(ts.URL, ts.Client())

	// Warm the engine so the deadline budget is spent sampling, then
	// ask for far more samples than 80ms can draw. The client has no
	// deadline of its own, so whatever arrives is the server's error.
	if _, err := cl.Sample(context.Background(), SampleRequest{Dataset: "other", L: 5, Seed: 3, T: 10}); err != nil {
		t.Fatal(err)
	}
	err = cl.SampleFunc(context.Background(),
		SampleRequest{Dataset: "other", L: 5, Seed: 3, T: 100_000_000},
		func([]geom.Pair) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}
}

// TestServerHandlerCancellation: a client canceling mid-stream stops
// the handler's draw loop promptly and leaks no goroutines — neither
// in the handler nor in the engine underneath.
func TestServerHandlerCancellation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cl, reg, _, done := newTestStack(t, 0, 500_000)
	defer done()

	// Warm the key so the timed part is sampling, not the build.
	warmCtx := context.Background()
	if _, err := cl.Sample(warmCtx, SampleRequest{Dataset: "other", L: 5, Seed: 3, T: 10}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	received := 0
	err := cl.SampleFunc(ctx, SampleRequest{Dataset: "other", L: 5, Seed: 3, T: 400_000},
		func(batch []geom.Pair) error {
			received += len(batch)
			cancel()
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if received >= 400_000 {
		t.Fatalf("canceled stream delivered all %d samples", received)
	}

	// The server records the aborted request against the engine; wait
	// for the handler to finish its accounting (it may still be
	// unwinding when the client returns).
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries := reg.Entries()
		if len(entries) == 1 && entries[0].Engine.Requests >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never recorded the canceled request: %+v", entries)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireRoundTrip unit-tests the framed binary encoding, including
// the error frame and truncation detection.
func TestWireRoundTrip(t *testing.T) {
	r := rng.New(7)
	pairs := make([]geom.Pair, 10_000)
	for i := range pairs {
		pairs[i] = geom.Pair{
			R: geom.Point{ID: int32(i), X: r.Range(-1e6, 1e6), Y: r.Range(-1e6, 1e6)},
			S: geom.Point{ID: int32(-i), X: r.Range(-1e6, 1e6), Y: r.Range(-1e6, 1e6)},
		}
	}
	var buf bytes.Buffer
	if err := WriteStreamHeader(&buf); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	var err error
	for off := 0; off < len(pairs); off += 4096 {
		end := off + 4096
		if end > len(pairs) {
			end = len(pairs)
		}
		if scratch, err = WriteStreamFrame(&buf, pairs[off:end], scratch); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteStreamEnd(&buf); err != nil {
		t.Fatal(err)
	}

	var got []geom.Pair
	n, err := readWireStream(bytes.NewReader(buf.Bytes()), func(batch []geom.Pair) error {
		got = append(got, batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pairs) || len(got) != len(pairs) {
		t.Fatalf("round-tripped %d of %d pairs", n, len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d: %v != %v", i, got[i], pairs[i])
		}
	}

	// A batch larger than the reader's per-frame bound is split by
	// the writer into acceptable frames, never rejected.
	big := make([]geom.Pair, MaxFramePairs+5)
	for i := range big {
		big[i] = geom.Pair{R: geom.Point{ID: int32(i)}, S: geom.Point{ID: int32(i + 1)}}
	}
	var bbuf bytes.Buffer
	WriteStreamHeader(&bbuf)
	if _, err := WriteStreamFrame(&bbuf, big, nil); err != nil {
		t.Fatal(err)
	}
	WriteStreamEnd(&bbuf)
	n, err = readWireStream(bytes.NewReader(bbuf.Bytes()), nil)
	if err != nil || n != len(big) {
		t.Fatalf("oversized batch: %d pairs, %v", n, err)
	}

	// An error frame surfaces as a *StreamError carrying the message
	// and the machine-readable code, which unwraps onto the canonical
	// sentinel — mid-stream errors keep errors.Is parity with local
	// engines.
	var ebuf bytes.Buffer
	WriteStreamHeader(&ebuf)
	if _, err := WriteStreamFrame(&ebuf, pairs[:3], nil); err != nil {
		t.Fatal(err)
	}
	WriteStreamError(&ebuf, CodeLowAcceptance, "sampler gave up")
	n, err = readWireStream(bytes.NewReader(ebuf.Bytes()), nil)
	if n != 3 || err == nil || !strings.Contains(err.Error(), "sampler gave up") {
		t.Fatalf("error frame: n=%d err=%v", n, err)
	}
	var serr *StreamError
	if !errors.As(err, &serr) || serr.Code != CodeLowAcceptance {
		t.Fatalf("error frame: %v is not a StreamError with code %q", err, CodeLowAcceptance)
	}
	if !errors.Is(err, core.ErrLowAcceptance) {
		t.Fatalf("errors.Is(%v, core.ErrLowAcceptance) = false", err)
	}

	// Truncation (no end frame) is detected, not silently accepted.
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := readWireStream(bytes.NewReader(trunc), nil); err == nil {
		t.Fatal("truncated stream accepted")
	}

	// Garbage is rejected at the header.
	if _, err := readWireStream(strings.NewReader("not a stream at all"), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}
