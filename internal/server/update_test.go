package server

// End-to-end tests of the mutation path: POST /v1/update over both
// request encodings, sampling served by the store, and the eviction
// of the static engine the store replaces.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/registry"
	"repro/internal/rng"
)

// newUpdatableStack is newTestStack with dynamic stores wired in, the
// way srj.NewServer assembles them: the store factory resolves the
// same in-memory datasets, and the registry builds static engines
// only.
func newUpdatableStack(t *testing.T, maxT int) (*Client, *registry.Registry, *dynamic.Stores, *testEnv, func()) {
	t.Helper()
	r := rng.New(4)
	te := &testEnv{
		data: map[string][2][]geom.Point{
			"tiny": {randomPoints(r, 25, 12, 0), randomPoints(r, 25, 12, 10000)},
		},
		maxT: maxT,
	}
	stores := dynamic.NewStores(func(ctx context.Context, key registry.Key, _ *dynamic.Snapshot) (*dynamic.Store, error) {
		rs, ok := te.data[key.Dataset]
		if !ok {
			return nil, errors.Join(ErrBadKey, errors.New("unknown dataset "+key.Dataset))
		}
		return dynamic.NewStore(rs[0], rs[1], dynamic.Config{
			BBST: core.Config{HalfExtent: key.L, Seed: key.Seed},
			MaxT: maxT,
		})
	})
	reg := registry.New(te.build, 0)
	srv, err := New(Config{Registry: reg, Stores: stores, MaxT: maxT, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return NewClient(ts.URL, ts.Client()), reg, stores, te, ts.Close
}

// TestUpdateEndToEnd drives the full mutation lifecycle over the
// wire: generation probe, inserts and deletes through both request
// encodings, sampling that reflects every applied batch, and the
// eviction of the static engine the store replaces.
func TestUpdateEndToEnd(t *testing.T) {
	for _, format := range []string{"binary", "json"} {
		t.Run(format, func(t *testing.T) {
			cl, reg, _, te, done := newUpdatableStack(t, 100_000)
			defer done()
			ctx := context.Background()
			const l = 3.0
			key := UpdateRequest{Dataset: "tiny", L: l, Algorithm: "bbst", Seed: 5, Format: format}
			sreq := SampleRequest{Dataset: "tiny", L: l, Algorithm: "bbst", Seed: 5, T: 2000}

			// A draw before any update: the static path, generation 0.
			if _, err := cl.Sample(ctx, sreq); err != nil {
				t.Fatal(err)
			}
			if ents := reg.Entries(); len(ents) != 1 {
				t.Fatalf("pre-update entries: %+v", ents)
			}
			noEngine := func(when string) {
				t.Helper()
				for _, e := range reg.Entries() {
					if e.Key.Dataset == "tiny" {
						t.Fatalf("%s: engine still resident: %+v", when, e.Key)
					}
				}
			}

			// An empty update is a generation probe that also creates
			// the store.
			probe := key
			resp, err := cl.ApplyUpdate(ctx, probe)
			if err != nil || resp.Generation != 0 {
				t.Fatalf("probe: %+v, %v", resp, err)
			}
			// The first update evicted the static engine: the store
			// serves the key from now on.
			noEngine("after the first update")

			// Insert a far-away cluster joined only with itself, and
			// delete one existing R point.
			rs := te.data["tiny"]
			victim := rs[0][0].ID
			up := key
			up.InsertR = []geom.Point{{ID: 777, X: 1000, Y: 1000}}
			up.InsertS = []geom.Point{{ID: 888, X: 1001, Y: 1001}}
			up.DeleteR = []int32{victim}
			resp, err = cl.ApplyUpdate(ctx, up)
			if err != nil || resp.Generation != 1 {
				t.Fatalf("update: %+v, %v", resp, err)
			}
			if resp.Ops != 3 {
				t.Fatalf("ops echoed %d, want 3", resp.Ops)
			}

			// Sampling now reflects the update: the deleted R point
			// never appears, the inserted pair does.
			pairs, err := cl.Sample(ctx, SampleRequest{Dataset: "tiny", L: l, Algorithm: "bbst", Seed: 5, T: 30_000})
			if err != nil {
				t.Fatal(err)
			}
			sawInserted := false
			for _, p := range pairs {
				if p.R.ID == victim {
					t.Fatalf("deleted point %d sampled after its delete", victim)
				}
				if p.R.ID == 777 && p.S.ID == 888 {
					sawInserted = true
				}
			}
			if !sawInserted {
				t.Fatal("inserted pair (777,888) never sampled")
			}

			// The draws came straight from the store: nothing was
			// cached for the key.
			noEngine("after store-backed draws")

			// Deleting the inserted S point empties that cluster again.
			del := key
			del.DeleteS = []int32{888}
			resp, err = cl.ApplyUpdate(ctx, del)
			if err != nil || resp.Generation != 2 {
				t.Fatalf("delete update: %+v, %v", resp, err)
			}
			pairs, err = cl.Sample(ctx, SampleRequest{Dataset: "tiny", L: l, Algorithm: "bbst", Seed: 5, T: 20_000})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if p.S.ID == 888 || p.R.ID == 777 {
					t.Fatalf("pair %v touches deleted/unjoined inserts", p)
				}
			}

			// The in-place write path is observable: /v1/stats reports
			// the absorbed ops (update 1 carried 3 ops, update 2
			// carried 1), and /metrics exports the fleet counter.
			stats, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.Stores) != 1 {
				t.Fatalf("stores in stats: %+v", stats.Stores)
			}
			info := stats.Stores[0]
			if info.InPlaceOps != 4 {
				t.Fatalf("in-place counters not surfaced: %+v", info)
			}
			mres, err := cl.hc.Get(cl.base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(mres.Body); err != nil {
				t.Fatal(err)
			}
			mres.Body.Close()
			if !strings.Contains(buf.String(), "srj_store_inplace_ops_total 4") {
				t.Fatalf("srj_store_inplace_ops_total missing from /metrics:\n%s", buf.String())
			}
			// The registry holds no engine for the key, so the
			// acceptance gauge can only come from the store.
			if !strings.Contains(buf.String(), `srj_acceptance_rate{algorithm="bbst"}`) {
				t.Fatalf("store draws missing from srj_acceptance_rate:\n%s", buf.String())
			}

			// DELETE /v1/engines finds no static engine to drop, and
			// the store keeps serving.
			evicted, err := cl.EvictEngine(ctx, registry.Key{Dataset: "tiny", L: l, Algorithm: "bbst", Seed: 5})
			if err != nil || evicted {
				t.Fatalf("evict: %v, %v; want no engine resident", evicted, err)
			}
			if _, err := cl.Sample(ctx, sreq); err != nil {
				t.Fatalf("draw after evict: %v", err)
			}
			noEngine("after a draw following the evict")
		})
	}
}

// TestUpdateValidation: malformed updates answer 400 with the shared
// machine-readable codes, on both encodings; a server without stores
// answers 501.
func TestUpdateValidation(t *testing.T) {
	cl, _, _, _, done := newUpdatableStack(t, 1000)
	defer done()
	ctx := context.Background()

	// Unknown dataset → bad key.
	_, err := cl.ApplyUpdate(ctx, UpdateRequest{Dataset: "nope", L: 3, InsertR: []geom.Point{{ID: 1}}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadKey {
		t.Fatalf("unknown dataset: %v", err)
	}

	// NaN insert → bad request, mapped back to the sentinel.
	_, err = cl.ApplyUpdate(ctx, UpdateRequest{
		Dataset: "tiny", L: 3,
		InsertR: []geom.Point{{ID: 1, X: math.NaN()}},
	})
	if !errors.Is(err, engine.ErrBadRequest) {
		t.Fatalf("NaN insert: %v, want ErrBadRequest", err)
	}

	// Missing dataset.
	_, err = cl.ApplyUpdate(ctx, UpdateRequest{L: 3, DeleteR: []int32{1}})
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadKey {
		t.Fatalf("missing dataset: %v", err)
	}

	// A stack without stores refuses updates outright.
	reg := registry.New(func(ctx context.Context, key registry.Key) (*engine.Engine, error) {
		return nil, ErrBadKey
	}, 0)
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	static := NewClient(ts.URL, ts.Client())
	_, err = static.ApplyUpdate(ctx, UpdateRequest{Dataset: "tiny", L: 3, DeleteR: []int32{1}})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotImplemented {
		t.Fatalf("updates on a static server: %v", err)
	}
}

// TestUpdateWireRoundTrip: the framed binary encoding round-trips
// every section kind, splits oversized sections, and rejects the
// malformed cases the fuzzer seeds.
func TestUpdateWireRoundTrip(t *testing.T) {
	req := UpdateRequest{
		Dataset:   "taxi",
		L:         42.5,
		Algorithm: "bbst",
		Seed:      7,
		DeleteR:   []int32{1, -2, 3},
		DeleteS:   []int32{9},
	}
	for i := 0; i < MaxUpdateSectionOps+10; i++ {
		req.InsertR = append(req.InsertR, geom.Point{ID: int32(i), X: float64(i), Y: -float64(i)})
	}
	req.InsertS = []geom.Point{{ID: 5, X: 1.25, Y: -2.5}}

	var buf bytes.Buffer
	if err := EncodeUpdateRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdateBody(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != req.Dataset || got.Algorithm != req.Algorithm || got.L != req.L || got.Seed != req.Seed {
		t.Fatalf("key mismatch: %+v", got)
	}
	if len(got.InsertR) != len(req.InsertR) || len(got.InsertS) != 1 ||
		len(got.DeleteR) != 3 || len(got.DeleteS) != 1 {
		t.Fatalf("op counts: %d %d %d %d", len(got.InsertR), len(got.InsertS), len(got.DeleteR), len(got.DeleteS))
	}
	for i, p := range got.InsertR {
		if p != req.InsertR[i] {
			t.Fatalf("insert_r[%d] = %v, want %v", i, p, req.InsertR[i])
		}
	}
	if got.DeleteR[1] != -2 {
		t.Fatalf("negative ID mangled: %d", got.DeleteR[1])
	}

	// Truncations at every prefix must error, never panic or succeed.
	raw := buf.Bytes()
	for cut := 0; cut < len(raw)-1; cut += 777 {
		if _, err := DecodeUpdateBody(bytes.NewReader(raw[:cut]), 0); err == nil {
			t.Fatalf("truncated body (%d bytes) decoded cleanly", cut)
		}
	}

	// The op cap refuses before allocating the whole batch.
	if _, err := DecodeUpdateBody(bytes.NewReader(raw), 10); err == nil ||
		!strings.Contains(err.Error(), "operations") {
		t.Fatalf("op cap: %v", err)
	}

	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xFF
	if _, err := DecodeUpdateBody(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("bad magic decoded cleanly")
	}
}
