package srj

// The network serving layer: srj.NewServer assembles the engine
// registry and HTTP API of internal/registry and internal/server
// into an http.Handler, and srj.NewClient speaks its wire protocol.
// cmd/srjserver is a thin flag-parsing shell around NewServer; any
// program can embed the same handler in its own http.Server.

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/wal"
)

// RequestIDHeader is the header carrying the fleet's request ID
// across every hop (client → router → backend); servers mint one when
// the caller does not supply it, and every response echoes it.
const RequestIDHeader = obs.RequestIDHeader

// WithRequestID returns a context carrying a request ID: a Client
// draw with this context sends the ID upstream, so one ID names the
// whole path of a draw in every tier's logs and error values.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string { return obs.RequestIDFrom(ctx) }

// EngineKey identifies one cacheable engine on a Server: the named
// dataset pair, the window half-extent, the algorithm, and the
// engine seed.
type EngineKey = registry.Key

// RegistryStats aggregates a Server's cache counters.
type RegistryStats = registry.Stats

// EngineInfo describes one engine resident in a Server's registry.
type EngineInfo = registry.EntryInfo

// SampleRequest is the body of the serving API's POST /v1/sample.
type SampleRequest = server.SampleRequest

// ServerStats is the body of the serving API's GET /v1/stats.
type ServerStats = server.StatsResponse

// Client speaks the srjserver wire protocol; construct with
// NewClient. The embedded methods (Sample, SampleFunc, SampleJSON,
// Stats, Engines, EvictEngine, Health) form the low-level multi-key
// API, addressing a full SampleRequest per call; Bind fixes one
// engine key and turns the client into a Source, the same
// request/response contract the in-process Engine serves.
type Client struct {
	*server.Client

	key   EngineKey // the Source key, when bound
	bound bool
}

// APIError is a non-2xx answer from a Server. It unwraps to the
// canonical sentinel matching its wire-level error code, so
// errors.Is(err, ErrSampleCap), ErrBadRequest, ErrEmptyJoin, and
// ErrLowAcceptance work identically against local and remote sources.
type APIError = server.APIError

// NewClient returns a client for the srjserver-compatible server at
// base (e.g. "http://localhost:8080") using http.DefaultClient. Note
// http.DefaultClient keeps only two idle connections per host; for
// many concurrent request goroutines use NewClientHTTP with a
// transport sized to the concurrency.
func NewClient(base string) *Client { return &Client{Client: server.NewClient(base, nil)} }

// NewClientHTTP is NewClient with a caller-supplied http.Client, for
// control over connection pooling, TLS, and transport-level
// timeouts (per-request deadlines belong in the context instead).
func NewClientHTTP(base string, hc *http.Client) *Client {
	return &Client{Client: server.NewClient(base, hc)}
}

// ServerOptions configures NewServer. The zero value serves the
// built-in dataset generators at 100k points per side with a 1 GiB
// engine budget.
type ServerOptions struct {
	// Datasets resolves a dataset name to the two point sets being
	// joined. nil uses the built-in generators (DatasetNames) with
	// DatasetSize points per side: R from DatasetSeed, S from
	// DatasetSeed+1. A non-nil resolver must be safe for concurrent
	// use and deterministic — the registry assumes equal names mean
	// equal data.
	Datasets func(name string) (R, S []Point, err error)
	// DatasetSize is the per-side size the default resolver
	// generates (default 100_000). Ignored when Datasets is set.
	DatasetSize int
	// DatasetSeed seeds the default resolver's generators (default
	// 1). Ignored when Datasets is set.
	DatasetSeed uint64
	// MemoryBudget bounds the summed SizeBytes of cached engines and
	// dynamic stores; beyond it the least frequently used engines are
	// evicted, with aging so that a key whose popularity has passed
	// goes too (LFU-DA, internal/registry). Stores are charged to the
	// budget but never evicted, so they leave less room for cached
	// engines. 0 means 1 GiB; negative means unlimited.
	MemoryBudget int64
	// MaxT caps the samples one request may ask for (default
	// server.DefaultMaxT = 1e6). Every engine the server builds gets
	// this as its Engine.SetMaxT cap too.
	MaxT int
	// Timeout bounds one request end to end, engine build included
	// (default 30s).
	Timeout time.Duration
	// Logger receives the server's structured logs (access log at
	// Info, slow draws at Warn). nil disables logging.
	Logger *slog.Logger
	// SlowDraw, when positive, logs draws slower than it at Warn with
	// full attribution: request ID, key, generation, acceptance rate.
	SlowDraw time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// DataDir enables durability: every dynamic store writes ahead to
	// a per-dataset log under this directory and snapshots its live
	// points there on an operation-count cadence, and NewServer
	// recovers every dataset it finds (snapshot + log replay) instead
	// of resurrecting the seed data. A ring join's install (POST
	// /v1/snapshot/install) writes the transferred state as a snapshot
	// only when it builds the key's store; an install that meets a
	// live or in-flight store for its key writes nothing: the store
	// acknowledges it when it already covers the dump's update ID, and
	// it is refused (409) otherwise.
	// Empty means in-memory only — updates do not survive a restart.
	DataDir string
	// FsyncPolicy selects when log appends reach disk: "always" (the
	// default — an acknowledged update is never lost), "interval" (a
	// background flusher; a crash loses at most ~100ms of acks), or
	// "off" (the OS page cache decides). Ignored without DataDir.
	FsyncPolicy string
}

// Server is the serving subsystem as an embeddable http.Handler:
// an engine registry (memory-budgeted, build-deduplicating) behind
// the HTTP API of internal/server. Create with NewServer.
type Server struct {
	h      *server.Server
	reg    *registry.Registry
	stores *dynamic.Stores
	wal    *wal.Manager // nil without ServerOptions.DataDir
}

// NewServer assembles a serving stack from opts.
func NewServer(opts *ServerOptions) (*Server, error) {
	var o ServerOptions
	if opts != nil {
		o = *opts
	}
	if o.Datasets == nil {
		o.Datasets = BuiltinDatasets(o.DatasetSize, o.DatasetSeed)
	}
	// Resolvers are documented as deterministic — equal names mean
	// equal data — so resolutions are memoized with per-name
	// once-semantics: distinct keys on one dataset (different l,
	// algorithm, or seed) share one resolution even when their builds
	// race, instead of regenerating or reloading the points per
	// engine build. The memo is itself bounded (it lives outside the
	// engine MemoryBudget): only the most recently used few datasets
	// stay pinned here — anything older is re-resolved on next use,
	// and datasets serving resident engines are pinned by those
	// engines regardless. Failed resolutions are dropped so the next
	// request retries.
	o.Datasets = memoizeDatasets(o.Datasets)
	switch {
	case o.MemoryBudget == 0:
		o.MemoryBudget = 1 << 30
	case o.MemoryBudget < 0:
		o.MemoryBudget = 0 // registry convention: 0 = unlimited
	}
	if o.MaxT <= 0 {
		o.MaxT = server.DefaultMaxT
	}
	var mgr *wal.Manager
	if o.DataDir != "" {
		policy, err := wal.ParseSyncPolicy(o.FsyncPolicy)
		if err != nil {
			return nil, err
		}
		mgr, err = wal.OpenManager(o.DataDir, wal.Options{Sync: policy})
		if err != nil {
			return nil, err
		}
	}

	// validateKey front-runs both build paths: key problems are the
	// client's fault (wrapped ErrBadKey → HTTP 400); a failing build
	// on a valid key is the server's.
	validateKey := func(key EngineKey) error {
		if !knownAlgorithm(key.Algorithm) {
			return fmt.Errorf("%w: unknown algorithm %q (have %v)",
				server.ErrBadKey, key.Algorithm, Algorithms())
		}
		if !(key.L > 0) || math.IsInf(key.L, 0) {
			return fmt.Errorf("%w: half-extent must be positive and finite, got %g",
				server.ErrBadKey, key.L)
		}
		return nil
	}
	// Mutable datasets: every dynamic store — created by the first POST
	// /v1/update addressed to its key, recovered at startup or installed
	// by a ring join — is built here, coalesced per key by the store map;
	// sampling then draws from the store's current view, and the
	// registry keeps caching only the static engines of keys without a
	// store.
	stores := dynamic.NewStores(func(ctx context.Context, key EngineKey, install *dynamic.Snapshot) (*dynamic.Store, error) {
		if err := validateKey(key); err != nil {
			return nil, err
		}
		return newServerStore(&o, mgr, key, install)
	})
	build := func(ctx context.Context, key EngineKey) (*engine.Engine, error) {
		if err := validateKey(key); err != nil {
			return nil, err
		}
		R, S, err := o.Datasets(key.Dataset)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", server.ErrBadKey, err)
		}
		eng, err := NewEngine(R, S, key.L, &Options{
			Algorithm: Algorithm(key.Algorithm),
			Seed:      key.Seed,
		})
		if err != nil {
			return nil, err
		}
		eng.SetMaxT(o.MaxT)
		return eng.e, nil
	}
	reg := registry.New(build, o.MemoryBudget)
	// Stores are never evicted, so their footprint is charged to the
	// budget up front and the cached engines share what is left.
	reg.Reserve(stores.SizeBytes)
	if mgr != nil {
		// Recovery: every dataset a previous process persisted enters the
		// store map before the server serves its first request, through
		// the same coalesced build as a first update. Any damage beyond a
		// torn log tail refuses the whole startup: serving a
		// silently-shortened history would let the router hand out update
		// IDs the fleet disagrees on.
		keys, err := mgr.Keys()
		if err != nil {
			return nil, err
		}
		for _, key := range keys {
			if _, err := stores.Open(context.Background(), key); err != nil {
				return nil, fmt.Errorf("srj: recovering %s from %s: %w", key, o.DataDir, err)
			}
		}
	}
	h, err := server.New(server.Config{
		Registry:    reg,
		Stores:      stores,
		MaxT:        o.MaxT,
		Timeout:     o.Timeout,
		Logger:      o.Logger,
		SlowDraw:    o.SlowDraw,
		EnablePprof: o.EnablePprof,
	})
	if err != nil {
		return nil, err
	}
	return &Server{h: h, reg: reg, stores: stores, wal: mgr}, nil
}

// newServerStore builds the dynamic store of one server key — the
// store map's factory, so the one way a store enters a server. Its
// base is, in order: install, a ring join's transferred state; the
// key's dataset directory, when one exists (its newest snapshot, or the
// resolver's data when none was ever taken, with every logged update
// after it replayed in ID order); otherwise the resolver's data at
// generation 0. With a DataDir (mgr non-nil) it then opens the key's
// dataset log and attaches it as the store's persister, after the
// replay, so replayed records are not appended to the log they came
// from. An install first writes its state to the log as a snapshot, so
// a crash after the install recovers the installed state, not seed
// data missing the donor's history. Stores are BBST-only — the other
// algorithms are the paper's static baselines — so a key naming
// another algorithm is refused with engine.ErrBadRequest; the refusal,
// like a resolver failure, leaves no dataset directory behind.
func newServerStore(o *ServerOptions, mgr *wal.Manager, key EngineKey, install *dynamic.Snapshot) (*dynamic.Store, error) {
	if key.Algorithm != string(BBST) {
		return nil, fmt.Errorf("%w: dynamic stores support only algorithm %q, not %q",
			engine.ErrBadRequest, BBST, key.Algorithm)
	}
	base := install
	var recs []dynamic.SeqUpdate
	if base == nil && mgr != nil {
		persisted, err := mgr.Exists(key)
		if err != nil {
			return nil, err
		}
		if persisted {
			ds, err := mgr.Open(key)
			if err != nil {
				return nil, err
			}
			snap, ok, err := ds.LoadSnapshot()
			if err != nil {
				return nil, err
			}
			if ok {
				base = &snap
			}
			if err := ds.Replay(snap.LastID, func(id uint64, u Update) error {
				recs = append(recs, dynamic.SeqUpdate{ID: id, U: u})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	if base == nil {
		R, S, err := o.Datasets(key.Dataset)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", server.ErrBadKey, err)
		}
		base = &dynamic.Snapshot{R: R, S: S}
	}
	cfg := storeConfig(key.L, StoreOptions{Seed: key.Seed, MaxT: o.MaxT})
	cfg.InitialGeneration, cfg.InitialLastApplied = base.Generation, base.LastID
	st, err := dynamic.NewStore(base.R, base.S, cfg)
	if err != nil {
		return nil, err
	}
	if err := st.Replay(recs); err != nil {
		return nil, err
	}
	if mgr == nil {
		return st, nil
	}
	ds, err := mgr.Open(key)
	if err != nil {
		return nil, err
	}
	if install != nil {
		if err := ds.Snapshot(install.Generation, install.LastID, install.R, install.S); err != nil {
			return nil, err
		}
	}
	st.SetPersister(ds)
	return st, nil
}

// shutdownQuiesceTimeout bounds how long Close waits for in-flight
// snapshots — shutdown must terminate even when a disk is wedged.
const shutdownQuiesceTimeout = 30 * time.Second

// Close releases the server's durability resources: it waits for
// every dynamic store's in-flight background snapshot, then syncs and
// closes the write-ahead logs and stops their background flushers. It
// writes no snapshot of its own: a store's state is already durable as
// its newest snapshot (or its seed data) plus the logged records past
// it, which the next start replays. A server without a DataDir has
// nothing to close. The HTTP handler itself holds no resources — stop
// accepting requests before Close, or late updates fail their
// write-ahead append.
func (s *Server) Close() error {
	if s.wal == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownQuiesceTimeout)
	defer cancel()
	var firstErr error
	s.stores.Each(func(key EngineKey, st *dynamic.Store) {
		if err := st.Quiesce(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("srj: waiting for the snapshot of %s on shutdown: %w", key, err)
		}
	})
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// BuiltinDatasets returns the dataset resolver NewServer uses by
// default: the built-in generators (DatasetNames) with size points
// per side, R seeded with seed and S with seed+1. size <= 0 means
// 100_000; seed 0 means 1. srjserver layers its -load files on top of
// this resolver so flags mean the same thing with and without files.
func BuiltinDatasets(size int, seed uint64) func(name string) (R, S []Point, err error) {
	if size <= 0 {
		size = 100_000
	}
	if seed == 0 {
		seed = 1
	}
	return func(name string) ([]Point, []Point, error) {
		R, err := Generate(name, size, seed)
		if err != nil {
			return nil, nil, err
		}
		S, err := Generate(name, size, seed+1)
		if err != nil {
			return nil, nil, err
		}
		return R, S, nil
	}
}

// maxCachedDatasets bounds the dataset memo of NewServer: two point
// sets per name can be large (~48*n bytes), and the memo sits outside
// the engine MemoryBudget, so only this many names stay resolved.
const maxCachedDatasets = 2

// memoizeDatasets wraps a dataset resolver with a small LRU memo.
// Concurrent resolutions of one name coalesce onto a single call.
func memoizeDatasets(resolve func(name string) (R, S []Point, err error)) func(name string) (R, S []Point, err error) {
	type entry struct {
		once sync.Once
		R, S []Point
		err  error
	}
	var (
		mu    sync.Mutex
		cache = map[string]*entry{}
		order []string // least recently used first
	)
	touch := func(name string) {
		for i, n := range order {
			if n == name {
				order = append(append(order[:i:i], order[i+1:]...), name)
				return
			}
		}
		order = append(order, name)
	}
	return func(name string) ([]Point, []Point, error) {
		mu.Lock()
		e, ok := cache[name]
		if !ok {
			e = &entry{}
			cache[name] = e
			for len(cache) > maxCachedDatasets {
				delete(cache, order[0])
				order = order[1:]
			}
		}
		touch(name)
		mu.Unlock()
		e.once.Do(func() { e.R, e.S, e.err = resolve(name) })
		if e.err != nil {
			mu.Lock()
			if cache[name] == e {
				delete(cache, name)
				// Drop the name from the LRU order too, or a stream
				// of distinct bad names would grow it without bound.
				for i, n := range order {
					if n == name {
						order = append(order[:i:i], order[i+1:]...)
						break
					}
				}
			}
			mu.Unlock()
			return nil, nil, e.err
		}
		return e.R, e.S, nil
	}
}

// knownAlgorithm reports whether name selects one of Algorithms.
func knownAlgorithm(name string) bool {
	for _, a := range Algorithms() {
		if string(a) == name {
			return true
		}
	}
	return false
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// Router shards engine keys across a fleet of srjserver backends by
// consistent hashing: each (dataset, l, algorithm, seed) key has one
// home backend (so the fleet's aggregate memory budget scales
// horizontally), transport failures fail over along the ring, and
// Bind turns the router into a Source exactly like Client.Bind —
// callers cannot tell a sharded fleet from a single engine. With
// RouterOptions.ReadReplicas > 1, reads spread across the first k
// healthy ring nodes; AddBackend/RemoveBackend resize the ring on a
// live router (state transfer included). Construct with NewRouter;
// Close stops the background health prober. See RouterOptions for
// knobs, cmd/srjrouter for the standalone proxy.
type Router = router.Router

// RouterOptions configures NewRouter: virtual nodes per backend,
// read replicas per key (ReadReplicas — spread draws across the
// first k healthy ring nodes; seeded draws stay byte-identical among
// shards with the same build history), health-probe cadence, and the
// shared http.Client.
type RouterOptions = router.Options

// RouterStats snapshots a Router's routing state: per-backend health
// and counters plus per-key shard assignments.
type RouterStats = router.Stats

// BackendStats is one backend's slice of RouterStats.
type BackendStats = router.BackendStats

// NewRouter returns a Router over the given srjserver base URLs (e.g.
// "http://shard0:8080"). The zero RouterOptions serves: 64 virtual
// nodes per backend, a 5s health-probe interval, http.DefaultClient.
func NewRouter(backends []string, opts RouterOptions) (*Router, error) {
	return router.New(backends, opts)
}

// Warm builds (or touches) the engine for key so the first client
// request pays no preprocessing.
func (s *Server) Warm(ctx context.Context, key EngineKey) error {
	_, err := s.reg.Get(ctx, key)
	return err
}

// Apply routes one update batch to key's dynamic store — creating the
// store on first use — exactly as POST /v1/update does, including the
// eviction of the static engine the store replaces. For embedders;
// remote clients use Client.Apply.
func (s *Server) Apply(ctx context.Context, key EngineKey, u Update) (uint64, error) {
	key.Algorithm = server.NormalizeAlgorithm(key.Algorithm)
	gen, err := s.stores.Apply(ctx, key, u)
	if err != nil {
		return gen, err
	}
	s.reg.Evict(key)
	return gen, nil
}

// RegistryStats snapshots the engine cache counters.
func (s *Server) RegistryStats() RegistryStats { return s.reg.Stats() }

// Engines lists the resident engines, most recently used first.
func (s *Server) Engines() []EngineInfo { return s.reg.Entries() }
