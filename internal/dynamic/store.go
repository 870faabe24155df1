// Package dynamic makes the paper's BBST join sampler mutable. The
// structures of "Random Sampling over Spatial Range Joins" are built
// once over immutable R and S; a serving system also needs insert and
// delete. A Store lands that with one write path, in-place
// maintenance: the bulk-built BBST sampler is converted once into a
// core.Mutable (Unfreeze), and every Apply after that edits the live
// structures copy-on-write along the touched paths only, in Õ(ops) per
// batch. There are no insert buffers, no tombstones and no rebuild
// threshold, so steady churn never rebuilds.
//
// A bulk rebuild — a compaction — happens only on explicit Compact, or
// inside the Apply whose batch drifts the live S count so far from
// what the bucket capacity was sized for that the corner bounds would
// rot the acceptance rate (core.Mutable.NeedsRebase, the
// pathological-skew escape hatch). Both are synchronous: the fresh
// frozen base is published by the call that built it.
//
// Only BBST is mutable. KDS, GridKD, RTS and the other algorithms are
// the paper's static baselines and ablations; the serving layer
// refuses updates addressed to them.
//
// Every applied batch and every compaction bumps the store's
// *generation number* exactly once. Generations are the invalidation
// currency of the serving stack: registry keys carry one
// (internal/registry), so engines cached for an older generation
// simply miss instead of serving deleted points, and the shard router
// broadcasts updates so every backend's stores and caches advance
// together.
//
// Concurrency model: Draw/DrawFunc never block on writers — they load
// an immutable *view* (one index version plus its serving engine)
// through an atomic pointer and draw from it. Apply and Compact
// serialize on one mutex and publish whole new views; requests in
// flight on an old view finish against the version they started with,
// exactly like a registry eviction never invalidates an engine already
// checked out.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

// snapshotFraction sets the snapshot cadence: once the operations
// applied since the last snapshot reach this fraction of the live point
// count, the store persists a fresh snapshot so the log can be pruned.
const snapshotFraction = 0.25

// ErrStaleGeneration reports a request for a generation the store has
// already moved past. The registry's BuildFunc returns it when a
// generation-tagged key loses the race with a concurrent Apply; the
// server retries with the fresh generation. It is never cached (the
// registry does not cache build errors).
var ErrStaleGeneration = errors.New("dynamic: generation is stale")

// Update is one batch of mutations: points to insert and point IDs to
// delete, per side. Deleting an ID removes every live point carrying
// it on that side; an ID present nowhere is a no-op. Deletes apply
// before inserts, so a batch may delete an ID and insert its
// replacement, and re-inserting a deleted ID is allowed.
type Update struct {
	InsertR []geom.Point `json:"insert_r,omitempty"`
	InsertS []geom.Point `json:"insert_s,omitempty"`
	DeleteR []int32      `json:"delete_r,omitempty"`
	DeleteS []int32      `json:"delete_s,omitempty"`
}

// Empty reports whether the update carries no operations.
func (u Update) Empty() bool { return u.Ops() == 0 }

// Ops counts the operations the update carries.
func (u Update) Ops() int {
	return len(u.InsertR) + len(u.InsertS) + len(u.DeleteR) + len(u.DeleteS)
}

// Validate rejects updates the index structures cannot absorb:
// non-finite insert coordinates. Errors wrap engine.ErrBadRequest, so
// servers answer 400 and errors.Is works identically local and
// remote.
func (u Update) Validate() error {
	if err := validFinite(u.InsertR, "insert_r"); err != nil {
		return err
	}
	return validFinite(u.InsertS, "insert_s")
}

func validFinite(pts []geom.Point, side string) error {
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w: %s point %d (ID %d) has non-finite coordinates",
				engine.ErrBadRequest, side, i, p.ID)
		}
	}
	return nil
}

// Config parameterizes a Store.
type Config struct {
	// BuildBase bulk-builds the frozen BBST sampler over the given point
	// sets (the root package supplies core.NewBBST with the store's
	// options). It must accept empty sides. Required.
	BuildBase func(R, S []geom.Point) (*core.BBSTSampler, error)
	// Seed drives the per-view serving pools; equal seeds make
	// equal-seeded draws reproducible within one generation.
	Seed uint64
	// MaxT caps the samples one request may ask for on every view
	// engine (0 = unlimited).
	MaxT int
	// OnGeneration, when non-nil, is invoked with the new generation
	// after every view swap — Applies and compactions alike. The
	// serving layer hangs cache invalidation here (evicting registry
	// engines of older generations), so a Compact cannot strand a
	// stale view engine in the cache until the next update. Called
	// under the store's write lock: keep it fast and do not call back
	// into the store.
	OnGeneration func(gen uint64)
	// Persister, when non-nil, is the write-ahead durability hook (see
	// persist.go): every applied batch is appended before its view
	// publishes, and compactions persist a snapshot. May also be
	// installed after construction with SetPersister (recovery does,
	// so replayed records are not re-appended).
	Persister Persister
	// InitialGeneration seeds the store's generation (recovery resumes
	// at the snapshot's generation instead of 0, so pre-crash cache
	// keys can never alias post-recovery contents).
	InitialGeneration uint64
	// InitialLastApplied seeds the last applied update ID (recovery
	// resumes at the snapshot's coverage; replayed records continue
	// from there).
	InitialLastApplied uint64
}

// view is one immutable snapshot of the store: one version of the
// index and the serving engine over it. Draws load it atomically;
// writers replace it wholesale.
type view struct {
	gen uint64
	// lastID is the last sequenced update ID folded into this view —
	// what a snapshot of this view covers.
	lastID uint64

	// Exactly one of base and mut is set. base is a frozen bulk build
	// over R and S: the store's state at construction and right after
	// a compaction, so those generations draw exactly like a plain
	// engine over the same points. mut is an in-place maintained
	// version; it shares almost all structure copy-on-write with the
	// bulk build it was unfrozen from.
	base *core.BBSTSampler
	R, S []geom.Point
	mut  *core.Mutable
	size int // footprint of base or mut

	eng *engine.Engine // nil when the current join is empty

	estMu sync.Mutex
	est   core.Sampler // clone for join-size estimation
}

// points returns the view's live point sets.
func (v *view) points() (R, S []geom.Point) {
	if v.mut != nil {
		return v.mut.LivePoints()
	}
	return v.R, v.S
}

// Store is a mutable join-sampling dataset: the Source-serving front
// of this package. Construct with NewStore; all methods are safe for
// concurrent use.
type Store struct {
	cfg  Config
	view atomic.Pointer[view]

	mu             sync.Mutex
	lastApplied    uint64 // last sequenced update ID (persist.go)
	gap            map[uint64]*gapWaiter
	lastPersistErr error

	// snapPending counts operations applied since the last snapshot,
	// snapDue marks a compacted base not yet snapshotted, and
	// snapshotting guards the one in-flight background snapshot
	// (maybeSnapshotLocked).
	snapPending  int
	snapDue      bool
	snapshotting bool
	snapDone     chan struct{}
	acc          engine.Stats // counters of retired view engines

	// rebuilds counts compactions (explicit Compact calls and the
	// rebase hatch alike, replayed ones included). It backs
	// srj_store_rebuilds_total and never decreases.
	rebuilds atomic.Uint64

	// inplace counts operations absorbed by in-place index maintenance.
	// It backs srj_store_inplace_ops_total and the /v1/stats
	// inplace_ops field; in steady churn it grows while rebuilds stays
	// flat.
	inplace atomic.Uint64

	// persistErrs counts snapshot failures. lastPersistErr holds only
	// the latest one (and clears on success); this counter backs the
	// monotonic srj_store_persist_errors_total, so an alert fires on
	// rate() even when a later snapshot happens to succeed.
	persistErrs atomic.Uint64

	// testHookSwap, when set (by tests, before serving), runs under mu
	// immediately after every view swap — the in-lock invariant hook
	// of the race hammer.
	testHookSwap func(*view)
}

// NewStore bulk-builds the base over R and S and returns a store
// serving them at generation 0. The slices are not copied and must
// not be mutated afterwards (Apply never touches them — it edits the
// store's own index). Empty sides are allowed: a store may start empty
// and be filled through Apply.
func NewStore(R, S []geom.Point, cfg Config) (*Store, error) {
	if cfg.BuildBase == nil {
		return nil, fmt.Errorf("dynamic: Config.BuildBase is required")
	}
	if err := validFinite(R, "R"); err != nil {
		return nil, err
	}
	if err := validFinite(S, "S"); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, lastApplied: cfg.InitialLastApplied}
	v, err := st.baseView(R, S)
	if err != nil {
		return nil, err
	}
	v.gen = cfg.InitialGeneration
	v.lastID = cfg.InitialLastApplied
	if err := st.finishView(v); err != nil {
		return nil, err
	}
	st.view.Store(v)
	return st, nil
}

// baseView bulk-builds a frozen view over R and S and prepares it
// through Count. An empty join is not an error for a mutable store,
// which may become non-empty through Apply.
func (st *Store) baseView(R, S []geom.Point) (*view, error) {
	base, err := st.cfg.BuildBase(R, S)
	if err != nil {
		return nil, err
	}
	if err := base.Count(); err != nil && !errors.Is(err, core.ErrEmptyJoin) {
		return nil, err
	}
	return &view{base: base, R: R, S: S, size: base.SizeBytes()}, nil
}

// mutOps converts an Update into the core batch type. Slices are
// shared — ApplyOps only reads them.
func mutOps(u Update) core.MutOps {
	return core.MutOps{InsR: u.InsertR, InsS: u.InsertS, DelR: u.DeleteR, DelS: u.DeleteS}
}

// stepLocked derives the view one sequenced record produces from cur:
// the record applied in place (unfreezing cur's base first when cur is
// frozen), then — when the index has drifted past its bulk-built
// geometry — compacted into a fresh frozen base, still one generation
// past cur. ApplyAt and Replay share it, so live and recovered
// stores rebase at the same update ID. The returned view has no engine
// yet (finishView). Called with mu held.
func (st *Store) stepLocked(cur *view, id uint64, u Update) (*view, error) {
	m := cur.mut
	if m == nil {
		var err error
		if m, err = cur.base.Unfreeze(); err != nil {
			return nil, err
		}
	}
	nm, err := m.Apply(mutOps(u))
	if err != nil {
		return nil, err
	}
	if nm.NeedsRebase() {
		return st.compactLocked(nm, cur.gen+1, id)
	}
	return &view{gen: cur.gen + 1, lastID: id, mut: nm, size: nm.SizeBytes()}, nil
}

// compactLocked bulk-builds a frozen view over m's live point sets.
// It counts the compaction and marks the new base due for a snapshot
// (maybeSnapshotLocked). Called with mu held.
func (st *Store) compactLocked(m *core.Mutable, gen, lastID uint64) (*view, error) {
	nv, err := st.baseView(m.LivePoints())
	if err != nil {
		return nil, err
	}
	nv.gen, nv.lastID = gen, lastID
	st.rebuilds.Add(1)
	st.snapDue = true
	return nv, nil
}

// charged is a view's sampler as its engine sees it: the footprint the
// engine reports to the registry budget is the view's charge, not the
// sampler's own size.
type charged struct {
	core.Cloner
	size int
}

func (c charged) SizeBytes() int { return c.size }

// finishView builds the view's serving engine and estimator. An empty
// current join leaves v.eng nil; Draw answers core.ErrEmptyJoin until
// an Apply makes the join non-empty again.
//
// The engine runs over a clone taken here, under st.mu: Unfreeze and
// Mutable.Apply derive from the view's own handle (Apply splits its
// stream), which must not race the engine pool cloning its parent.
// Charging: a freshly built frozen base charges its size; a mutable
// version charges nothing, since it shares almost all structure with
// the bulk build it descends from. Store.SizeBytes adds it back
// exactly once.
func (st *Store) finishView(v *view) error {
	var src core.Cloner = v.mut
	charge := 0
	if v.base != nil {
		src, charge = v.base, v.size
	}
	if src.Stats().MuSum <= 0 {
		return nil
	}
	sc, err := src.Clone()
	if err != nil {
		return err
	}
	c := sc.(core.Cloner)
	est, err := c.Clone()
	if err != nil {
		return err
	}
	eng, err := engine.New(charged{Cloner: c, size: charge}, st.cfg.Seed)
	if err != nil {
		return err
	}
	if st.cfg.MaxT > 0 {
		eng.SetMaxT(st.cfg.MaxT)
	}
	v.eng = eng
	v.est = est
	return nil
}

// Apply absorbs one batch of mutations and returns the new
// generation. Batches serialize; draws in flight keep serving the
// view they started on. An empty update returns the current
// generation without bumping it (the remote tiers use this as a
// generation probe). Apply edits the index in place in Õ(ops); only a
// batch that trips the rebase hatch pays a bulk build.
//
// Apply self-stamps the next update ID — it is ApplyAt(ctx, 0, u),
// the single-writer spelling of the sequenced path in persist.go.
func (st *Store) Apply(ctx context.Context, u Update) (uint64, error) {
	res, err := st.ApplyAt(ctx, 0, u)
	return res.Generation, err
}

// publishLocked swaps in a finished view, folding the retired engine's
// counters into the store accumulator, and schedules a snapshot when
// one is due. Called with mu held.
func (st *Store) publishLocked(nv *view) {
	if old := st.view.Load(); old != nil && old.eng != nil {
		st.acc = addStats(st.acc, old.eng.Stats())
	}
	st.view.Store(nv)
	if st.testHookSwap != nil {
		st.testHookSwap(nv)
	}
	if st.cfg.OnGeneration != nil {
		st.cfg.OnGeneration(nv.gen)
	}
	st.maybeSnapshotLocked()
}

// addStats sums two engine counter snapshots.
func addStats(a, b engine.Stats) engine.Stats {
	a.Requests += b.Requests
	a.Samples += b.Samples
	a.Trials += b.Trials
	a.Failures += b.Failures
	a.ClientFailures += b.ClientFailures
	a.SamplerFailures += b.SamplerFailures
	a.TotalLatency += b.TotalLatency
	if b.MaxLatency > a.MaxLatency {
		a.MaxLatency = b.MaxLatency
	}
	a.Latency = a.Latency.Merge(b.Latency)
	return a
}

// maybeSnapshotLocked schedules a background snapshot of the current
// view when a compaction has not been snapshotted yet, or once the
// operations applied since the last snapshot reach snapshotFraction of
// the live point count. Without the cadence the log would never be
// pruned: steady churn runs no compactions. Called with mu held.
func (st *Store) maybeSnapshotLocked() {
	p := st.cfg.Persister
	if p == nil || st.snapshotting {
		return
	}
	v := st.view.Load()
	live := len(v.R) + len(v.S)
	if v.mut != nil {
		ix := v.mut.Index()
		live = ix.NumR() + ix.NumS()
	}
	if !st.snapDue && float64(st.snapPending) < snapshotFraction*float64(live) {
		return
	}
	st.snapPending = 0
	st.snapDue = false
	st.snapshotting = true
	st.snapDone = make(chan struct{})
	go st.snapshot(v, p)
}

// snapshot persists one view's live point sets, outside the lock —
// the version is immutable, so appliers keep deriving new versions
// while it is read. The snapshot covers everything folded into v (all
// records <= v.lastID): the log prunes up to there.
func (st *Store) snapshot(v *view, p Persister) {
	R, S := v.points()
	err := p.Snapshot(v.gen, v.lastID, R, S)
	if err != nil {
		st.persistErrs.Add(1)
	}
	st.mu.Lock()
	st.snapshotting = false
	st.lastPersistErr = err
	close(st.snapDone)
	// Records applied while this snapshot ran can already be due under
	// heavy write load; check once so pruning keeps up.
	st.maybeSnapshotLocked()
	st.mu.Unlock()
}

// Compact folds the in-place maintained index into a fresh bulk build
// now and publishes it at a bumped generation before returning; its
// snapshot is persisted in the background. It returns nil without a
// bump when the current view already is a bulk build.
func (st *Store) Compact(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.view.Load()
	if cur.mut == nil {
		return nil
	}
	nv, err := st.compactLocked(cur.mut, cur.gen+1, cur.lastID)
	if err != nil {
		return err
	}
	if err := st.finishView(nv); err != nil {
		return err
	}
	st.publishLocked(nv)
	return nil
}

// SetOnGeneration installs (or replaces) the Config.OnGeneration
// hook. Callers that build stores through an intermediate layer (the
// root package's NewStore) use it to attach cache invalidation after
// construction — before the store is published for serving, or the
// earliest swaps may miss the hook.
func (st *Store) SetOnGeneration(fn func(gen uint64)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cfg.OnGeneration = fn
}

// Generation reports the current generation: 0 at construction,
// bumped once by every non-empty Apply and every Compact.
func (st *Store) Generation() uint64 { return st.view.Load().gen }

// ViewEngine returns the current generation and its serving engine.
// The error is core.ErrEmptyJoin when the current join is empty. The
// registry's BuildFunc uses the pair to cache view engines under
// generation-tagged keys.
func (st *Store) ViewEngine() (uint64, *engine.Engine, error) {
	v := st.view.Load()
	if v.eng == nil {
		return v.gen, nil, core.ErrEmptyJoin
	}
	return v.gen, v.eng, nil
}

// Draw serves one request against the current view (the srj.Source
// contract, like engine.Engine.Draw). On an empty join the request is
// still validated and capped first, then core.ErrEmptyJoin surfaces.
func (st *Store) Draw(ctx context.Context, req engine.Request) (engine.Result, error) {
	v := st.view.Load()
	if v.eng == nil {
		return engine.Result{}, st.emptyErr(req, false)
	}
	return v.eng.Draw(ctx, req)
}

// DrawFunc serves one request against the current view, streaming
// batches to fn (the srj.Source contract).
func (st *Store) DrawFunc(ctx context.Context, req engine.Request, fn func(batch []geom.Pair) error) error {
	v := st.view.Load()
	if v.eng == nil {
		return st.emptyErr(req, true)
	}
	return v.eng.DrawFunc(ctx, req, fn)
}

// emptyErr orders an empty store's refusals like a serving engine
// would: malformed requests first, the cap second, ErrEmptyJoin last.
func (st *Store) emptyErr(req engine.Request, stream bool) error {
	var t int
	var err error
	if stream {
		t, err = req.ResolveStream()
	} else {
		t, err = req.Resolve()
	}
	if err != nil {
		return err
	}
	if st.cfg.MaxT > 0 && t > st.cfg.MaxT {
		return fmt.Errorf("%w: t=%d > cap %d", engine.ErrSampleCap, t, st.cfg.MaxT)
	}
	return core.ErrEmptyJoin
}

// Stats aggregates the serving counters across every view the store
// has published. Under concurrent generation swaps the snapshot is
// approximate: requests finishing on a just-retired view after its
// counters were folded go uncounted.
func (st *Store) Stats() engine.Stats {
	st.mu.Lock()
	acc := st.acc
	st.mu.Unlock()
	if v := st.view.Load(); v != nil && v.eng != nil {
		acc = addStats(acc, v.eng.Stats())
	}
	return acc
}

// SizeBytes estimates the retained footprint of the current view: the
// index structures (charged once, whichever engines are resident) plus
// a frozen base's point sets.
func (st *Store) SizeBytes() int {
	v := st.view.Load()
	return v.size + 24*(len(v.R)+len(v.S))
}

// Rebuilds reports how many compactions have run since the store was
// created.
func (st *Store) Rebuilds() uint64 { return st.rebuilds.Load() }

// InPlaceOps reports how many operations were absorbed by in-place
// index maintenance since the store was created.
func (st *Store) InPlaceOps() uint64 { return st.inplace.Load() }

// InPlace reports whether the current view is served by the in-place
// maintained index (vs a freshly bulk-built base).
func (st *Store) InPlace() bool { return st.view.Load().mut != nil }

// EstimateJoinSize draws `samples` calibration samples through the
// current view's estimator clone and returns the acceptance-rate
// estimate of the live join size. The estimator accumulates across
// calls, so repeated estimates tighten. An empty join estimates 0
// with no error.
func (st *Store) EstimateJoinSize(samples int) (float64, error) {
	v := st.view.Load()
	if v.eng == nil || v.est == nil {
		return 0, nil
	}
	v.estMu.Lock()
	defer v.estMu.Unlock()
	buf := make([]geom.Pair, 1024)
	var err error
	for drawn := 0; drawn < samples && err == nil; {
		chunk := buf
		if rem := samples - drawn; rem < len(chunk) {
			chunk = chunk[:rem]
		}
		var n int
		n, err = core.SampleInto(v.est, chunk)
		drawn += n
	}
	return aggregate.JoinSizeEstimate(v.est.Stats()), err
}

// PersistErrors reports how many snapshot attempts have failed since
// the store was created (see the persistErrs field).
func (st *Store) PersistErrors() uint64 { return st.persistErrs.Load() }

// Dump snapshots the store's complete logical state: the current
// generation, the last applied update ID, and the live point sets at
// that moment. The returned slices must not be mutated. This is the
// donor half of router state transfer: a store constructed from
// (R, S) at (gen, lastID) and fed the sequenced updates after lastID
// converges on this store's *logical* state — the same live points and
// sequence position. Byte-level draw identity is a stronger property
// that holds only between stores sharing the same build history (base
// build plus the same in-place applies in the same order); a store
// bulk-built from a flattened dump serves correct draws, not
// necessarily this store's draws.
func (st *Store) Dump() (gen, lastID uint64, R, S []geom.Point) {
	v := st.view.Load()
	R, S = v.points()
	return v.gen, v.lastID, R, S
}

// SnapshotNow persists the store's state through its persister
// synchronously when that can be done *faithfully* — the shutdown
// path's bound on recovery time. Faithful means recovery from the
// snapshot reproduces the exact sampler a live peer at the same
// generation carries, which holds only when the current view is a
// frozen bulk build: snapshotting a mutable view would flatten its
// incremental state into a fresh bulk build, and seeded draws after
// recovery would fork from fleet peers at the same generation.
// Mutable views succeed as a no-op — the write-ahead log already holds
// every record past the last faithful snapshot, and replay rebuilds
// the identical incremental history. An in-flight background snapshot
// is waited out first, so a snapshot the cadence already started is
// on disk before shutdown returns. A store without a persister
// succeeds as a no-op.
func (st *Store) SnapshotNow(ctx context.Context) error {
	st.mu.Lock()
	p := st.cfg.Persister
	st.mu.Unlock()
	if p == nil {
		return nil
	}
	if err := st.Quiesce(ctx); err != nil {
		return err
	}
	v := st.view.Load()
	if v.mut != nil {
		return nil
	}
	err := p.Snapshot(v.gen, v.lastID, v.R, v.S)
	if err != nil {
		st.persistErrs.Add(1)
	}
	st.mu.Lock()
	st.lastPersistErr = err
	if err == nil {
		st.snapPending = 0
	}
	st.mu.Unlock()
	return err
}

// Quiesce waits for the in-flight background snapshot, if any —
// shutdown paths, benchmarks and tests use it so goroutine-leak
// checks and timing sections see a settled store. It does not prevent
// new snapshots.
func (st *Store) Quiesce(ctx context.Context) error {
	for {
		st.mu.Lock()
		var done chan struct{}
		if st.snapshotting {
			done = st.snapDone
		}
		st.mu.Unlock()
		if done == nil {
			return nil
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
