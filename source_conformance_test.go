package srj_test

// The Source conformance suite, instantiated. The suite itself lives
// in srjtest (one set of behavioral tests, written once against
// srj.Source); this file registers the repo's implementations — the
// in-process Engine, the mutable Store, a Client bound to an engine
// key on a live HTTP server, and a Router bound to the same key over
// a sharded fleet of three servers — so every tier answers to the
// same contract, and the mutable tiers additionally answer to the
// update-aware suite. A new tier gets the full suite by adding one
// constructor here.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	srj "repro"
	"repro/srjtest"
)

// newEngineSource builds the in-process implementation.
func newEngineSource(t *testing.T, cfg srjtest.Config) srj.Source {
	t.Helper()
	eng, err := srj.NewEngine(cfg.R, cfg.S, cfg.L, &srj.Options{Seed: cfg.BuildSeed})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetMaxT(cfg.MaxT)
	return eng
}

// newStoreUpdatable builds the mutable in-process implementation: a
// Store at generation 0 over the same structures the Engine fixture
// serves.
func newStoreUpdatable(t *testing.T, cfg srjtest.Config) srjtest.Updatable {
	t.Helper()
	st, err := srj.NewStore(cfg.R, cfg.S, cfg.L, &srj.StoreOptions{Seed: cfg.BuildSeed, MaxT: cfg.MaxT})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newStoreSource is the Store as a plain (never-mutated) Source.
func newStoreSource(t *testing.T, cfg srjtest.Config) srj.Source {
	return newStoreUpdatable(t, cfg).(*srj.Store).Bind()
}

// startBackends brings up n independent srjservers (registry + HTTP
// API, each on its own httptest listener) that all resolve every
// dataset name to cfg's point sets — the sharded-fleet invariant that
// equal keys mean equal data on every shard. It returns their base
// URLs.
func startBackends(t *testing.T, cfg srjtest.Config, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := srj.NewServer(&srj.ServerOptions{
			Datasets: func(name string) ([]srj.Point, []srj.Point, error) {
				return cfg.R, cfg.S, nil
			},
			MaxT: cfg.MaxT,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// confTransport returns an http.Client whose idle connections are
// closed on test cleanup, so the goroutine-leak checks stay quiet.
func confTransport(t *testing.T) *http.Client {
	t.Helper()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// newClientSource builds the remote implementation: one server with a
// Client bound to one engine key in front. The engine the server
// builds for the key is configured exactly like newEngineSource's, so
// the two fixtures serve the same structures.
func newClientSource(t *testing.T, cfg srjtest.Config) srj.Source {
	t.Helper()
	addrs := startBackends(t, cfg, 1)
	cl := srj.NewClientHTTP(addrs[0], confTransport(t))
	return cl.Bind(srj.EngineKey{Dataset: "conf", L: cfg.L, Seed: cfg.BuildSeed})
}

// newRouterSource builds the sharded implementation: three servers
// behind a consistent-hash Router, bound to the same engine key the
// Client fixture uses. Whichever shard the ring picks, the key's
// engine is built from the same data with the same seed — so the
// Router must be indistinguishable from the other two fixtures.
func newRouterSource(t *testing.T, cfg srjtest.Config) srj.Source {
	t.Helper()
	return newRouterSourceN(t, cfg, 3)
}

// newRouterSourceN is newRouterSource over n backends.
func newRouterSourceN(t *testing.T, cfg srjtest.Config, n int) srj.Source {
	t.Helper()
	rt, err := srj.NewRouter(startBackends(t, cfg, n), srj.RouterOptions{
		HTTPClient: confTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt.Bind(srj.EngineKey{Dataset: "conf", L: cfg.L, Seed: cfg.BuildSeed})
}

// TestSourceConformance runs the shared suite over every registered
// implementation.
func TestSourceConformance(t *testing.T) {
	fixtures := []struct {
		name string
		make srjtest.MakeSource
	}{
		{"Engine", newEngineSource},
		{"Store", newStoreSource},
		{"Client", newClientSource},
		{"Router", newRouterSource},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			srjtest.RunSourceConformance(t, fx.make)
		})
	}
}

// newClientUpdatable is the remote updatable implementation: the
// bound client's Apply travels as POST /v1/update, and the server's
// dynamic store springs into existence on the first batch.
func newClientUpdatable(t *testing.T, cfg srjtest.Config) srjtest.Updatable {
	t.Helper()
	return newClientSource(t, cfg).(*srj.Client)
}

// newRouterUpdatable is the sharded updatable implementation: Apply
// broadcasts to all three backends, draws route to the key's shard.
func newRouterUpdatable(t *testing.T, cfg srjtest.Config) srjtest.Updatable {
	t.Helper()
	return newRouterSourceN(t, cfg, 3).(srjtest.Updatable)
}

// newDurableFixture builds the WAL-backed updatable implementation: a
// Client over one server persisting to a per-source data dir, plus
// the restart hook that shuts the server down and boots a fresh one
// against the same directory — the close-and-reopen proof that
// acknowledged mutations survive a process death.
func newDurableFixture() (srjtest.MakeUpdatable, srjtest.RestartUpdatable) {
	type durableState struct {
		cfg  srjtest.Config
		dir  string
		stop func()
	}
	var mu sync.Mutex
	states := map[srjtest.Updatable]*durableState{}
	open := func(t *testing.T, cfg srjtest.Config, dir string) srjtest.Updatable {
		t.Helper()
		srv, err := srj.NewServer(&srj.ServerOptions{
			Datasets: func(name string) ([]srj.Point, []srj.Point, error) {
				return cfg.R, cfg.S, nil
			},
			MaxT:    cfg.MaxT,
			DataDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		stopped := false
		stop := func() {
			if stopped {
				return
			}
			stopped = true
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Errorf("closing durable server: %v", err)
			}
		}
		t.Cleanup(stop)
		cl := srj.NewClientHTTP(ts.URL, confTransport(t)).
			Bind(srj.EngineKey{Dataset: "conf", L: cfg.L, Seed: cfg.BuildSeed})
		mu.Lock()
		states[cl] = &durableState{cfg: cfg, dir: dir, stop: stop}
		mu.Unlock()
		return cl
	}
	makeUpd := func(t *testing.T, cfg srjtest.Config) srjtest.Updatable {
		return open(t, cfg, t.TempDir())
	}
	restart := func(t *testing.T, src srjtest.Updatable) srjtest.Updatable {
		t.Helper()
		mu.Lock()
		st := states[src]
		mu.Unlock()
		if st == nil {
			t.Fatal("restart of a source this fixture did not build")
		}
		st.stop()
		return open(t, st.cfg, st.dir)
	}
	return makeUpd, restart
}

// TestUpdatableConformance runs the update-aware suite over every
// tier that accepts mutations: the local Store, the Client over one
// server, the Router over a broadcast fleet of three, and the
// WAL-backed Client that additionally proves durability across a
// close-and-reopen.
func TestUpdatableConformance(t *testing.T) {
	durableMake, durableRestart := newDurableFixture()
	fixtures := []struct {
		name string
		make srjtest.MakeUpdatable
		opts []srjtest.UpdatableOption
	}{
		{"Store", newStoreUpdatable, nil},
		{"Client", newClientUpdatable, nil},
		{"Router", newRouterUpdatable, nil},
		{"DurableClient", durableMake, []srjtest.UpdatableOption{srjtest.WithRestart(durableRestart)}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			srjtest.RunUpdatableConformance(t, fx.make, fx.opts...)
		})
	}
}

// TestSourceAgreement is the substitutability check in its strongest
// form: the same build seed and the same request seed must yield
// byte-identical samples whether the draw is served in-process, over
// the wire by one server, or through the router's consistent-hash
// ring over three servers. A Store serves through its mutable index,
// not the Engine's frozen one, so it is held to itself instead: two
// stores built over the same points with the same seed draw the same
// bytes at generation 0 and after the same batch.
func TestSourceAgreement(t *testing.T) {
	R, S, l := srjtest.Data()
	cfg := srjtest.Config{R: R, S: S, L: l, MaxT: 100_000, BuildSeed: 7}
	local := newEngineSource(t, cfg)
	remote := newClientSource(t, cfg)
	routed := newRouterSourceN(t, cfg, 3)
	seeds := []uint64{1, 42, 1 << 40}
	ctx := context.Background()
	for _, seed := range seeds {
		a, err := local.Draw(ctx, srj.Request{T: 3000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]srj.Source{"client": remote, "router": routed} {
			b, err := src.Draw(ctx, srj.Request{T: 3000, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Pairs {
				if a.Pairs[i] != b.Pairs[i] {
					t.Fatalf("seed %d: local and %s diverged at sample %d: %v vs %v",
						seed, name, i, a.Pairs[i], b.Pairs[i])
				}
			}
		}
	}

	stores := [2]srjtest.Updatable{newStoreUpdatable(t, cfg), newStoreUpdatable(t, cfg)}
	u := srj.Update{
		DeleteR: []int32{R[0].ID, R[1].ID},
		InsertS: []srj.Point{{ID: 9000, X: R[2].X, Y: R[2].Y}},
	}
	for step := 0; step < 2; step++ {
		if step == 1 {
			for _, st := range stores {
				if _, err := st.Apply(ctx, u); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, seed := range seeds {
			if i := firstDifference(t, stores[0], stores[1], seed); i >= 0 {
				t.Fatalf("generation %d, seed %d: equal stores diverged at sample %d", step, seed, i)
			}
		}
	}
}

// startCountedBackends is startBackends with a per-backend counter of
// /v1/sample requests, for tests asserting where draws actually land.
func startCountedBackends(t *testing.T, cfg srjtest.Config, n int) ([]string, []*atomic.Int64) {
	t.Helper()
	addrs := make([]string, n)
	hits := make([]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		srv, err := srj.NewServer(&srj.ServerOptions{
			Datasets: func(name string) ([]srj.Point, []srj.Point, error) {
				return cfg.R, cfg.S, nil
			},
			MaxT: cfg.MaxT,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := &atomic.Int64{}
		hits[i] = h
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sample" {
				h.Add(1)
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs, hits
}

// TestSourceAgreementReplicated is the replicated-reads determinism
// contract: a router spreading each key's draws across all three
// backends (ReadReplicas 3), a router pinning reads to the ring owner
// (the default), and a client talking to one backend directly must
// produce byte-identical seeded draws — the replica tie-break may
// choose any backend, never a different answer. The per-backend
// counters then prove the k=3 router actually used the whole fleet:
// with draws this equal, only the counters can tell the routers apart.
func TestSourceAgreementReplicated(t *testing.T) {
	R, S, l := srjtest.Data()
	cfg := srjtest.Config{R: R, S: S, L: l, MaxT: 100_000, BuildSeed: 8}
	addrs, hits := startCountedBackends(t, cfg, 3)
	newRouterK := func(k int) *srj.Router {
		rt, err := srj.NewRouter(addrs, srj.RouterOptions{
			HTTPClient:    confTransport(t),
			ProbeInterval: -1,
			ReadReplicas:  k,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	key := srj.EngineKey{Dataset: "conf", L: cfg.L, Seed: cfg.BuildSeed}
	k3 := newRouterK(3).Bind(key)
	k1 := newRouterK(1).Bind(key)
	direct := srj.NewClientHTTP(addrs[0], confTransport(t)).Bind(key)
	ctx := context.Background()

	// Phase one: only the k=3 router draws, so the spread assertion
	// below counts its requests alone. Distinct request seeds make the
	// deterministic tie-break walk the replica set.
	seeds := make([]uint64, 0, 32)
	for s := uint64(1); s <= 32; s++ {
		seeds = append(seeds, s*977)
	}
	replicated := make(map[uint64][]srj.Pair, len(seeds))
	for _, seed := range seeds {
		res, err := k3.Draw(ctx, srj.Request{T: 500, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d through k=3: %v", seed, err)
		}
		replicated[seed] = res.Pairs
	}
	for i, h := range hits {
		if h.Load() == 0 {
			t.Fatalf("backend %d served no draws: ReadReplicas=3 did not spread %d seeded requests", i, len(seeds))
		}
	}

	// Phase two: the same draws through the owner-pinned router and the
	// direct client must be byte-identical to the replicated answers.
	for _, seed := range seeds {
		for name, src := range map[string]srj.Source{"k=1 router": k1, "direct client": direct} {
			res, err := src.Draw(ctx, srj.Request{T: 500, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d through %s: %v", seed, name, err)
			}
			want := replicated[seed]
			if len(res.Pairs) != len(want) {
				t.Fatalf("seed %d: %s drew %d pairs, k=3 drew %d", seed, name, len(res.Pairs), len(want))
			}
			for i := range want {
				if res.Pairs[i] != want[i] {
					t.Fatalf("seed %d: %s diverged from the replicated draw at sample %d: %v vs %v",
						seed, name, i, res.Pairs[i], want[i])
				}
			}
		}
	}
}

// TestClientUnbound: the Source methods of an unbound client refuse
// cleanly instead of addressing a half-empty key.
func TestClientUnbound(t *testing.T) {
	cl := srj.NewClient("http://127.0.0.1:1")
	if _, err := cl.Draw(context.Background(), srj.Request{T: 10}); !errors.Is(err, srj.ErrUnbound) {
		t.Fatalf("err = %v, want ErrUnbound", err)
	}
	if err := cl.DrawFunc(context.Background(), srj.Request{T: 10}, func([]srj.Pair) error { return nil }); !errors.Is(err, srj.ErrUnbound) {
		t.Fatalf("err = %v, want ErrUnbound", err)
	}
	if _, ok := cl.Key(); ok {
		t.Fatal("unbound client reports a key")
	}
	bound := cl.Bind(srj.EngineKey{Dataset: "d", L: 1})
	if key, ok := bound.Key(); !ok || key.Algorithm != "bbst" {
		t.Fatalf("bound key = %+v, %v (want bbst default)", key, ok)
	}
	// Bind returns a copy; the original stays unbound.
	if _, ok := cl.Key(); ok {
		t.Fatal("Bind mutated its receiver")
	}
}
