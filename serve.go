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
// transport sized to the concurrency (as srjbench -remote does).
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
	// MemoryBudget bounds the summed SizeBytes of cached engines;
	// least-recently-used engines are evicted beyond it. 0 means
	// 1 GiB; negative means unlimited.
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
	// a per-dataset log under this directory, compactions persist
	// snapshots there, and NewServer recovers every dataset it finds
	// (snapshot + log replay) instead of resurrecting the seed data.
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
	// Mutable datasets: a dynamic store springs into existence on the
	// first POST /v1/update addressed to its key, bulk-built from the
	// same resolver the static engines use; sampling then follows the
	// store's generation. reg is assigned below, before any store can
	// exist — the factory only runs on a live server's first update.
	var reg *registry.Registry
	stores := dynamic.NewStores(func(ctx context.Context, key EngineKey) (*dynamic.Store, error) {
		if err := validateKey(key); err != nil {
			return nil, err
		}
		so, err := storeOptions(key, o.MaxT)
		if err != nil {
			return nil, err
		}
		R, S, err := o.Datasets(key.Dataset)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", server.ErrBadKey, err)
		}
		st, err := NewStore(R, S, key.L, so)
		if err != nil {
			return nil, err
		}
		// Every generation bump — an Apply, or a Compact that no
		// handler observes — drops the registry engines it just made
		// stale, so a compaction cannot strand a whole old base in the
		// cache until the next update arrives.
		st.st.SetOnGeneration(func(gen uint64) {
			stale := key
			stale.Generation = gen
			reg.EvictOlder(stale)
		})
		if mgr != nil {
			// A brand-new key (recovered keys never reach the factory —
			// they are adopted below before the server serves) gets a
			// fresh dataset directory to write ahead into.
			ds, err := mgr.Open(key)
			if err != nil {
				return nil, err
			}
			st.st.SetPersister(ds)
		}
		return st.st, nil
	})
	build := func(ctx context.Context, key EngineKey) (*engine.Engine, error) {
		if key.Generation != 0 {
			// A generation-tagged key is a dynamic store's view: the
			// "build" is a cheap handle fetch — the store already holds
			// the serving engine for its current generation. A stale
			// generation (an Apply won the race) is reported, never
			// cached, and retried by the handler with the fresh one.
			st, ok := stores.Lookup(key)
			if !ok {
				return nil, fmt.Errorf("%w: no dynamic store for %s", server.ErrBadKey, key)
			}
			gen, eng, err := st.ViewEngine()
			if err != nil {
				return nil, err
			}
			if gen != key.Generation {
				return nil, dynamic.ErrStaleGeneration
			}
			return eng, nil
		}
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
	reg = registry.New(build, o.MemoryBudget)
	if mgr != nil {
		// Recovery: every dataset a previous process persisted comes
		// back as snapshot base + log replay — not the seed data — and
		// is adopted into the store map before the server serves its
		// first request. Any damage beyond a torn log tail refuses the
		// whole startup: serving a silently-shortened history would let
		// the router hand out update IDs the fleet disagrees on.
		keys, err := mgr.Keys()
		if err != nil {
			return nil, err
		}
		for _, key := range keys {
			if err := recoverDataset(mgr, stores, reg, key, &o); err != nil {
				return nil, fmt.Errorf("srj: recovering %s from %s: %w", key, o.DataDir, err)
			}
		}
	}
	// installStore backs POST /v1/snapshot/install: the router's state
	// transfer hands this server a dataset's complete store state when
	// it joins a live fleet, and the server adopts it at the dump's
	// generation and last-applied update ID — so the router's next
	// sequenced broadcast applies here gap-free.
	installStore := func(ctx context.Context, dump server.SnapshotDump) error {
		key := dump.Key()
		if err := validateKey(key); err != nil {
			return err
		}
		if st, ok := stores.Lookup(key); ok {
			// Idempotent re-install: state we already hold (same or
			// newer last-applied ID) acknowledges without rebuilding.
			// Installing *newer* state over a live store is refused —
			// the store owns its sequence, and the gap between its ID
			// and the dump's is the sequenced-update path's to fill.
			if st.LastApplied() >= dump.LastAppliedID {
				return nil
			}
			return fmt.Errorf("%w: store for %s is live at update %d, cannot install at %d",
				dynamic.ErrUpdateSequence, key, st.LastApplied(), dump.LastAppliedID)
		}
		so, err := storeOptions(key, o.MaxT)
		if err != nil {
			return err
		}
		so.initialGeneration, so.initialLastApplied = dump.Generation, dump.LastAppliedID
		st, err := NewStore(dump.R, dump.S, key.L, so)
		if err != nil {
			return err
		}
		st.st.SetOnGeneration(func(gen uint64) {
			stale := key
			stale.Generation = gen
			reg.EvictOlder(stale)
		})
		if mgr != nil {
			ds, err := mgr.Open(key)
			if err != nil {
				return err
			}
			// Persist the transferred base before taking writes: a
			// crash after the install must recover to the installed
			// state, not to seed data missing the donor's history.
			if err := ds.Snapshot(dump.Generation, dump.LastAppliedID, dump.R, dump.S); err != nil {
				return err
			}
			st.st.SetPersister(ds)
		}
		if err := stores.Adopt(key, st.st); err != nil {
			// A concurrent install (or first update) won the race;
			// re-check whether what landed already covers this dump.
			if live, ok := stores.Lookup(key); ok && live.LastApplied() >= dump.LastAppliedID {
				return nil
			}
			return err
		}
		return nil
	}
	h, err := server.New(server.Config{
		Registry:     reg,
		Stores:       stores,
		InstallStore: installStore,
		MaxT:         o.MaxT,
		Timeout:      o.Timeout,
		Logger:       o.Logger,
		SlowDraw:     o.SlowDraw,
		EnablePprof:  o.EnablePprof,
	})
	if err != nil {
		return nil, err
	}
	return &Server{h: h, reg: reg, stores: stores, wal: mgr}, nil
}

// recoverDataset rebuilds one dynamic store from its persisted state:
// base point sets from the newest snapshot (or the dataset resolver
// when none was ever taken), generation and last-applied update ID
// resumed past the snapshot's, then every logged update after the
// snapshot replayed in ID order. The recovered store is adopted into
// the stores map so the factory never rebuilds this key from seed.
func recoverDataset(mgr *wal.Manager, stores *dynamic.Stores, reg *registry.Registry, key EngineKey, o *ServerOptions) error {
	so, err := storeOptions(key, o.MaxT)
	if err != nil {
		return err
	}
	ds, err := mgr.Open(key)
	if err != nil {
		return err
	}
	snap, ok, err := ds.LoadSnapshot()
	if err != nil {
		return err
	}
	R, S := snap.R, snap.S
	if !ok {
		// No snapshot yet: the log holds every update since the seed
		// base, so recovery starts from the same resolver data the
		// original store was bulk-built over.
		if R, S, err = o.Datasets(key.Dataset); err != nil {
			return err
		}
	}
	so.initialGeneration, so.initialLastApplied = snap.Generation, snap.LastID
	st, err := NewStore(R, S, key.L, so)
	if err != nil {
		return err
	}
	var recs []dynamic.SeqUpdate
	if err := ds.Replay(snap.LastID, func(id uint64, u Update) error {
		recs = append(recs, dynamic.SeqUpdate{ID: id, U: u})
		return nil
	}); err != nil {
		return err
	}
	if err := st.st.Replay(recs); err != nil {
		return err
	}
	// Hooks attach after replay: replayed records must not be
	// re-appended to the log they came from, and no engine can be
	// cached for this key before the store exists.
	st.st.SetOnGeneration(func(gen uint64) {
		stale := key
		stale.Generation = gen
		reg.EvictOlder(stale)
	})
	st.st.SetPersister(ds)
	return stores.Adopt(key, st.st)
}

// storeOptions returns the options of key's dynamic store. Stores are
// BBST-only — the other algorithms are the paper's static baselines —
// so a key (already normalized) naming another algorithm is refused
// with engine.ErrBadRequest before any store exists.
func storeOptions(key EngineKey, maxT int) (*StoreOptions, error) {
	if key.Algorithm != string(BBST) {
		return nil, fmt.Errorf("%w: dynamic stores support only algorithm %q, not %q",
			engine.ErrBadRequest, BBST, key.Algorithm)
	}
	return &StoreOptions{Seed: key.Seed, MaxT: maxT}, nil
}

// shutdownSnapshotTimeout bounds the shutdown snapshots of Close —
// shutdown must terminate even when a disk is wedged.
const shutdownSnapshotTimeout = 30 * time.Second

// Close releases the server's durability resources: every dynamic
// store takes one final snapshot at its current state (so the next
// start replays zero log records — snapshot-on-shutdown bounds
// recovery time), then the write-ahead logs are synced and closed and
// their background flushers stopped. A server without a DataDir has
// nothing to close. The HTTP handler itself holds no resources — stop
// accepting requests before Close, or late updates fail their
// write-ahead append.
func (s *Server) Close() error {
	if s.wal == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownSnapshotTimeout)
	defer cancel()
	var firstErr error
	s.stores.Each(func(key EngineKey, st *dynamic.Store) {
		if err := st.SnapshotNow(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("srj: snapshot on shutdown for %s: %w", key, err)
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
// first k healthy ring nodes while keeping seeded draws
// byte-identical), health-probe cadence, and the shared http.Client.
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
// eviction of engines the generation bump made stale. For embedders;
// remote clients use Client.Apply.
func (s *Server) Apply(ctx context.Context, key EngineKey, u Update) (uint64, error) {
	key.Algorithm = server.NormalizeAlgorithm(key.Algorithm)
	gen, err := s.stores.Apply(ctx, key, u)
	if err != nil {
		return gen, err
	}
	key.Generation = gen
	s.reg.EvictOlder(key)
	return gen, nil
}

// RegistryStats snapshots the engine cache counters.
func (s *Server) RegistryStats() RegistryStats { return s.reg.Stats() }

// Engines lists the resident engines, most recently used first.
func (s *Server) Engines() []EngineInfo { return s.reg.Entries() }
