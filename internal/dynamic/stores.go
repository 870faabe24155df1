package dynamic

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/registry"
)

// StoreFactory builds the store for one engine key over base: the
// given state at its generation and update ID when base is non-nil (a
// ring join's install), otherwise the key's own state (the host's
// persisted history, or the dataset's seed data at generation 0). It
// is the one way a store enters a Stores map: invoked at most once per
// key per residency, outside the map lock (builds are slow). Key
// problems should wrap server.ErrBadKey so handlers answer 400.
type StoreFactory func(ctx context.Context, key registry.Key, base *Snapshot) (*Store, error)

// Stores tracks the mutable stores of one serving process, keyed by
// engine key. A store enters the map through Open (a first update, or
// recovery at startup) or Install (a ring join's state transfer); both
// coalesce onto one factory build per key, so a key never has two
// stores. Sampling for keys without a store keeps using the static
// engine path, so a server that never sees an update serves exactly as
// before this package existed.
type Stores struct {
	factory StoreFactory

	mu sync.Mutex
	m  map[registry.Key]*storeEntry
}

// storeEntry coalesces concurrent creations of one key onto a single
// factory call, and publishes the store non-blockingly for the
// sampling path. err is written before done closes; waiters read it
// only after <-done.
type storeEntry struct {
	done chan struct{}
	err  error
	st   atomic.Pointer[Store]
}

// NewStores returns a store registry building cold keys with factory.
func NewStores(factory StoreFactory) *Stores {
	if factory == nil {
		panic("dynamic: nil StoreFactory")
	}
	return &Stores{factory: factory, m: make(map[registry.Key]*storeEntry)}
}

// Lookup returns the store for key when one has been created. It
// never blocks — a store mid-creation is not yet visible, so the
// sampling path stays on the static engines until the first update
// lands.
func (s *Stores) Lookup(key registry.Key) (*Store, bool) {
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	st := e.st.Load()
	return st, st != nil
}

// Open returns key's store, building it through the factory (with no
// base) on first use.
func (s *Stores) Open(ctx context.Context, key registry.Key) (*Store, error) {
	st, _, err := s.open(ctx, key, nil)
	return st, err
}

// Install builds key's store over snap — a ring join's transferred
// state — unless key already has a store, built or in flight. Then it
// never builds: it waits for that store and acknowledges when the
// store's last applied update ID covers snap's, and refuses with
// ErrUpdateSequence otherwise (the store owns its sequence; the gap is
// the sequenced-update path's to fill). It returns the store that
// serves key.
func (s *Stores) Install(ctx context.Context, key registry.Key, snap Snapshot) (*Store, error) {
	st, built, err := s.open(ctx, key, &snap)
	if err != nil || built {
		return st, err
	}
	if last := st.LastApplied(); last < snap.LastID {
		return nil, fmt.Errorf("%w: store for %s is live at update %d, cannot install at %d",
			ErrUpdateSequence, key, last, snap.LastID)
	}
	return st, nil
}

// open returns key's store, creating it through the factory over base
// when key has no entry; built reports that this call created it. The
// factory runs in its own goroutine on a context detached from the
// caller that happened to trigger it — like the registry's builds, ctx
// cancels the *wait*, never a bulk build other callers (and the map)
// will share. Failed creations are forgotten so the next call retries.
func (s *Stores) open(ctx context.Context, key registry.Key, base *Snapshot) (st *Store, built bool, err error) {
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		e = &storeEntry{done: make(chan struct{})}
		s.m[key] = e
		buildCtx := context.WithoutCancel(ctx)
		go func() {
			st, err := s.factory(buildCtx, key, base)
			if err != nil {
				e.err = err
			} else {
				e.st.Store(st)
			}
			close(e.done)
			if err != nil {
				s.mu.Lock()
				if s.m[key] == e {
					delete(s.m, key)
				}
				s.mu.Unlock()
			}
		}()
	}
	s.mu.Unlock()
	select {
	case <-e.done:
		if e.err != nil {
			return nil, !ok, e.err
		}
		return e.st.Load(), !ok, nil
	case <-ctx.Done():
		return nil, !ok, ctx.Err()
	}
}

// Apply routes one update batch to key's store, creating the store on
// first use, and returns the new generation.
func (s *Stores) Apply(ctx context.Context, key registry.Key, u Update) (uint64, error) {
	res, err := s.ApplyAt(ctx, key, 0, u)
	return res.Generation, err
}

// ApplyAt routes one sequenced update batch (see Store.ApplyAt) to
// key's store, creating the store on first use.
func (s *Stores) ApplyAt(ctx context.Context, key registry.Key, id uint64, u Update) (ApplyResult, error) {
	st, err := s.Open(ctx, key)
	if err != nil {
		return ApplyResult{}, err
	}
	return st.ApplyAt(ctx, id, u)
}

// StoreInfo is the observable state of one live store, served on
// /v1/stats (per-key detail lives here on the JSON surface; /metrics
// exports only key-free aggregates to keep label cardinality bounded).
type StoreInfo struct {
	// Key identifies the store; its live generation is Generation.
	Key registry.Key `json:"key"`
	// Backend is empty on a server's own stats; the router fills it
	// when aggregating fleet stats per backend.
	Backend    string       `json:"backend,omitempty"`
	Generation uint64       `json:"generation"`
	InPlaceOps uint64       `json:"inplace_ops"`
	SizeBytes  int          `json:"size_bytes"`
	Engine     engine.Stats `json:"engine"`

	// Durability surface (persist.go / internal/wal). LastAppliedID is
	// meaningful on every store; the WAL fields stay zero when the
	// store runs without a persister.
	LastAppliedID  uint64 `json:"last_applied_update_id"`
	WALSegments    int    `json:"wal_segments,omitempty"`
	WALBytes       int64  `json:"wal_bytes,omitempty"`
	WALAppends     uint64 `json:"wal_appends,omitempty"`
	WALSyncs       uint64 `json:"wal_syncs,omitempty"`
	WALSnapshots   uint64 `json:"wal_snapshots,omitempty"`
	LastSnapshotID uint64 `json:"last_snapshot_id,omitempty"`
	// PersistErrors counts snapshot failures over the store's life;
	// LastPersistErr carries the latest one (empty after a success).
	// Together they surface a failing disk on /v1/stats — and through
	// /healthz, which degrades to 503 while LastPersistErr is set.
	PersistErrors  uint64 `json:"persist_errors,omitempty"`
	LastPersistErr string `json:"last_persist_err,omitempty"`
}

// Each calls fn for every created store, in sorted key order (stores
// mid-creation are not yet visible). Shutdown paths use it to walk
// the stores without knowing their keys.
func (s *Stores) Each(fn func(key registry.Key, st *Store)) {
	for _, keyed := range s.snapshot() {
		fn(keyed.key, keyed.st)
	}
}

// FirstPersistErr returns the first store (in sorted key order) whose
// latest snapshot attempt failed, or a nil error when every store can
// persist — the /healthz degradation check.
func (s *Stores) FirstPersistErr() (registry.Key, error) {
	for _, keyed := range s.snapshot() {
		if err := keyed.st.LastPersistErr(); err != nil {
			return keyed.key, err
		}
	}
	return registry.Key{}, nil
}

// keyedStore pairs a created store with its key.
type keyedStore struct {
	key registry.Key
	st  *Store
}

// snapshot lists the created stores in sorted key order — the shared
// walk behind Infos, Each, and FirstPersistErr. Indexed writes, then
// sort: this package is under the rngdeterminism contract, so map
// iteration must not feed an order-dependent append.
func (s *Stores) snapshot() []keyedStore {
	s.mu.Lock()
	keys := make([]registry.Key, len(s.m))
	i := 0
	for key := range s.m {
		keys[i] = key
		i++
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
	entries := make([]*storeEntry, len(keys))
	for j, key := range keys {
		entries[j] = s.m[key]
	}
	s.mu.Unlock()
	out := make([]keyedStore, 0, len(entries))
	for j, e := range entries {
		if st := e.st.Load(); st != nil {
			out = append(out, keyedStore{key: keys[j], st: st})
		}
	}
	return out
}

// SizeBytes sums the footprints of the created stores (Store.SizeBytes)
// — the memory a server charges to its engine budget through
// registry.Registry.Reserve. Stores are never evicted, so the charge
// only leaves less room for cached engines. It holds s.mu across the
// walk and takes no store lock: each footprint is one atomic load.
func (s *Stores) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.m {
		if st := e.st.Load(); st != nil {
			n += int64(st.SizeBytes())
		}
	}
	return n
}

// Infos snapshots every created store. Stores mid-creation are not
// yet visible (same non-blocking contract as Lookup).
func (s *Stores) Infos() []StoreInfo {
	keyed := s.snapshot()
	out := make([]StoreInfo, 0, len(keyed))
	for _, ks := range keyed {
		st := ks.st
		info := StoreInfo{
			Key:           ks.key,
			Generation:    st.Generation(),
			InPlaceOps:    st.InPlaceOps(),
			SizeBytes:     st.SizeBytes(),
			Engine:        st.Stats(),
			LastAppliedID: st.LastApplied(),
			PersistErrors: st.PersistErrors(),
		}
		if perr := st.LastPersistErr(); perr != nil {
			info.LastPersistErr = perr.Error()
		}
		if ps, ok := st.PersistStats(); ok {
			info.WALSegments = ps.Segments
			info.WALBytes = ps.Bytes
			info.WALAppends = ps.Appends
			info.WALSyncs = ps.Syncs
			info.WALSnapshots = ps.Snapshots
			info.LastSnapshotID = ps.LastSnapshotID
		}
		out = append(out, info)
	}
	return out
}
