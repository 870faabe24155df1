// Package dynamic makes the paper's BBST join sampler mutable. The
// structures of "Random Sampling over Spatial Range Joins" are built
// once over immutable R and S; a serving system also needs insert and
// delete. A Store lands that with one index kind and one write path,
// in-place maintenance: NewStore builds the mutable index over R and S
// in one bulk build (core.NewMutable), so every view serves through
// it, and every Apply edits the live structures copy-on-write along
// the touched paths only, in Õ(ops) amortized per batch. There are no
// insert buffers, no tombstones and no rebuild threshold: every S cell
// a batch touches gets its BBST pair rebuilt with b = ⌈log₂ m⌉ for the
// live S count m (unless the options fix b), so the bucket size
// follows the data however far it grows or shrinks. Inserts reuse the
// R slots deletes free, and a batch that leaves more dead slots than
// live ones repacks the R side (core.MutableIndex.ApplyOps), so the
// footprint follows the live count down as well as up. No Apply ever
// rebuilds the whole store.
//
// Only BBST is mutable. KDS, KDS-rejection, GridKD and JoinSample are
// the paper's static baselines, ablation and strawman; the serving
// layer refuses updates addressed to them.
//
// Every applied batch bumps the store's *generation number* exactly
// once. The serving layer draws from a store's current view directly —
// never from a cache — so no request can be served a retired
// generation; the generation is what responses and /v1/stats report,
// and the shard router broadcasts updates so every backend's stores
// advance together.
//
// Concurrency model: Draw/DrawFunc never block on writers — they load
// an immutable *view* (one index version plus its serving engine)
// through an atomic pointer and draw from it. Applies serialize on one
// mutex and publish whole new views; requests in flight on an old view
// finish against the version they started with, exactly like a
// registry eviction never invalidates an engine already checked out.
package dynamic

import (
	"context"
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
	// BBST configures the index NewStore bulk-builds
	// (core.NewMutable). Its Seed also drives the per-view serving
	// pools; equal seeds make equal-seeded draws reproducible within
	// one generation.
	BBST core.Config
	// MaxT caps the samples one request may ask for on every view
	// engine (0 = unlimited).
	MaxT int
	// InitialGeneration seeds the store's generation (recovery resumes
	// at the snapshot's generation instead of 0, so the generations a
	// store reports never run backwards across a restart).
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

	// mut is the view's index version. It shares almost all structure
	// copy-on-write with the versions before it, back to the bulk
	// build (core.NewMutable) it started from.
	mut *core.Mutable

	eng *engine.Engine // nil when the current join is empty

	estMu sync.Mutex
	est   core.Sampler // clone for join-size estimation
}

// Store is a mutable join-sampling dataset: the Source-serving front
// of this package. Construct with NewStore; all methods are safe for
// concurrent use.
type Store struct {
	cfg  Config
	view atomic.Pointer[view]

	mu          sync.Mutex
	lastApplied uint64 // last sequenced update ID (persist.go)
	// persister, when non-nil, is the write-ahead durability hook
	// (persist.go), installed with SetPersister: every applied batch is
	// appended before its view publishes, and the live point sets are
	// snapshotted in the background on the operation-count cadence
	// (maybeSnapshotLocked), the only snapshot trigger.
	persister      Persister
	gap            map[uint64]*gapWaiter
	lastPersistErr error

	// snapPending counts operations applied since the last snapshot,
	// and snapshotting guards the one in-flight background snapshot
	// (maybeSnapshotLocked).
	snapPending  int
	snapshotting bool
	snapDone     chan struct{}
	acc          engine.Stats // counters of retired view engines

	// inplace counts operations absorbed by in-place index maintenance.
	// It backs srj_store_inplace_ops_total and the /v1/stats
	// inplace_ops field.
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

// NewStore bulk-builds the mutable index over R and S
// (core.NewMutable), which every view serves through, and returns a
// store serving it at generation 0. The index holds copies of the
// points, so the slices are not retained (Apply edits the store's own
// index). Empty sides, and an empty join, are allowed: a
// store may start empty and be filled through Apply.
func NewStore(R, S []geom.Point, cfg Config) (*Store, error) {
	if err := validFinite(R, "R"); err != nil {
		return nil, err
	}
	if err := validFinite(S, "S"); err != nil {
		return nil, err
	}
	m, err := core.NewMutable(R, S, cfg.BBST)
	if err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, lastApplied: cfg.InitialLastApplied}
	v := &view{gen: cfg.InitialGeneration, lastID: cfg.InitialLastApplied, mut: m}
	if err := st.finishView(v); err != nil {
		return nil, err
	}
	st.view.Store(v)
	return st, nil
}

// mutOps converts an Update into the core batch type. Slices are
// shared — ApplyOps only reads them.
func mutOps(u Update) core.MutOps {
	return core.MutOps{InsR: u.InsertR, InsS: u.InsertS, DelR: u.DeleteR, DelS: u.DeleteS}
}

// stepLocked derives the view one sequenced record produces from cur:
// the record applied in place, one generation past cur. ApplyAt and
// Replay share it, so live and recovered stores take the same step at
// the same update ID. The returned view has no engine yet
// (finishView). Called with mu held.
func (st *Store) stepLocked(cur *view, id uint64, u Update) (*view, error) {
	nm, err := cur.mut.Apply(mutOps(u))
	if err != nil {
		return nil, err
	}
	return &view{gen: cur.gen + 1, lastID: id, mut: nm}, nil
}

// finishView builds the view's serving engine and estimator. An empty
// current join leaves v.eng nil; Draw answers core.ErrEmptyJoin until
// an Apply makes the join non-empty again.
//
// The engine runs over a clone taken here, under st.mu: Mutable.Apply
// derives from the view's own handle (Apply splits its stream), which
// must not race the engine pool cloning its parent.
// The engine never enters the registry: the store's footprint is
// charged once, through Registry.Reserve(Stores.SizeBytes).
func (st *Store) finishView(v *view) error {
	if v.mut.Stats().MuSum <= 0 {
		return nil
	}
	sc, err := v.mut.Clone()
	if err != nil {
		return err
	}
	c := sc.(core.Cloner)
	est, err := c.Clone()
	if err != nil {
		return err
	}
	eng, err := engine.New(c, st.cfg.BBST.Seed)
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
// generation probe). Apply edits the index in place in Õ(ops)
// amortized and never pays a bulk build.
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
// view once the operations applied since the last snapshot reach
// snapshotFraction of the live point count — the store's only
// snapshot trigger. Without it the log would never be pruned. Called
// with mu held.
func (st *Store) maybeSnapshotLocked() {
	p := st.persister
	if p == nil || st.snapshotting {
		return
	}
	v := st.view.Load()
	ix := v.mut.Index()
	if float64(st.snapPending) < snapshotFraction*float64(ix.NumR()+ix.NumS()) {
		return
	}
	st.snapPending = 0
	st.snapshotting = true
	st.snapDone = make(chan struct{})
	go st.snapshot(v, p)
}

// snapshot persists one view's live point sets, outside the lock —
// the version is immutable, so appliers keep deriving new versions
// while it is read. The snapshot covers everything folded into v (all
// records <= v.lastID): the log prunes up to there.
func (st *Store) snapshot(v *view, p Persister) {
	R, S := v.mut.LivePoints()
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

// Generation reports the current generation: 0 at construction,
// bumped once by every non-empty Apply.
func (st *Store) Generation() uint64 { return st.view.Load().gen }

// ViewEngine returns the current generation and its serving engine.
// The error is core.ErrEmptyJoin when the current join is empty. The
// server draws from the returned engine: one atomic load, so a
// request holds one generation from start to finish.
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

// SizeBytes estimates the retained footprint of the current view's
// index structures, charged once, whichever engines are resident.
func (st *Store) SizeBytes() int { return st.view.Load().mut.SizeBytes() }

// InPlaceOps reports how many operations were absorbed by in-place
// index maintenance since the store was created.
func (st *Store) InPlaceOps() uint64 { return st.inplace.Load() }

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
// donor half of router state transfer: a store built over the dump
// (Stores.Install) and fed the sequenced updates after its LastID
// converges on this store's *logical* state — the same live points and
// sequence position. Byte-level draw identity is a stronger property
// that holds only between stores sharing the same build history (base
// build plus the same in-place applies in the same order); a store
// bulk-built from a flattened dump serves correct draws, not
// necessarily this store's draws.
func (st *Store) Dump() Snapshot {
	v := st.view.Load()
	R, S := v.mut.LivePoints()
	return Snapshot{Generation: v.gen, LastID: v.lastID, R: R, S: S}
}

// Quiesce waits for the in-flight background snapshot, if any —
// Server.Close waits here before closing the logs, and benchmarks and
// tests use it so goroutine-leak checks and timing sections see a
// settled store. It does not prevent new snapshots.
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
