package srj

// The mutable-dataset surface. A Sampler and an Engine are bulk-built
// over immutable R and S; a Store is the paper's BBST structure made
// mutable: construction bulk-builds the one mutable index directly
// from R and S, so every generation draws through it, and every batch
// replaces the touched grid cells with their BBST pairs, rebuilt over
// the new points, and edits the per-point counts copy-on-write in
// Õ(ops) amortized, so draws stay uniform over the *live* join (see
// internal/dynamic). Stores are
// BBST-only; the other algorithms are the paper's static baselines.
// Every applied batch bumps the dataset's generation number. srjserver
// draws a store-backed key from the store's current view, never from
// its engine cache, and the shard router broadcasts updates so every
// shard advances together.

import (
	"context"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/server"
)

// Update is one batch of mutations applied to a Store (or, through
// Client.Apply / Router.Bind().Apply, to a remote store): points to
// insert and point IDs to delete, per side. Deleting an ID removes
// every live point carrying it on that side; an absent ID is a
// no-op; re-inserting a deleted ID is allowed. The zero Update is
// empty and acts as a generation probe.
type Update = dynamic.Update

// StoreOptions tunes a Store; the zero value (or nil) uses seed 0 and
// the default BBST settings.
type StoreOptions struct {
	// Seed drives the serving pools; equal seeds make equal-seeded
	// draws reproducible within one generation.
	Seed uint64
	// MaxRejects bounds consecutive rejected sampling iterations
	// (0 = default budget).
	MaxRejects int
	// MaxT caps the samples one request may ask for (0 = unlimited),
	// like Engine.SetMaxT.
	MaxT int
}

// Store is a mutable join-sampling dataset: the fourth Source
// implementation, next to Engine, Client.Bind, and Router.Bind —
// plus Apply, the mutation half. All methods are safe for concurrent
// use; draws never block on writers.
type Store struct {
	st *dynamic.Store
}

// NewStore validates R and S, bulk-builds the mutable index every
// generation draws through, and returns a Store serving it at
// generation 0. Its seeded draws are not an Engine's over the same
// points: the Engine draws through the frozen structures, the Store
// through the mutable index.
// Unlike NewEngine, empty inputs (even a provably empty join) are
// accepted: a mutable dataset may start empty and be filled through
// Apply, with Draw answering ErrEmptyJoin until it is. The index holds
// copies of the points, so the slices are not retained — all mutation
// goes through Apply.
func NewStore(R, S []Point, l float64, opts *StoreOptions) (*Store, error) {
	var o StoreOptions
	if opts != nil {
		o = *opts
	}
	st, err := dynamic.NewStore(R, S, storeConfig(l, o))
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// storeConfig is the dynamic.Config of a BBST store over half-extent
// l with options o, at generation 0 and without a persister: the
// configuration of NewStore and of every server store
// (newServerStore).
func storeConfig(l float64, o StoreOptions) dynamic.Config {
	return dynamic.Config{
		BBST: core.Config{HalfExtent: l, Seed: o.Seed, MaxRejects: o.MaxRejects},
		MaxT: o.MaxT,
	}
}

// Apply absorbs one batch of mutations and returns the new dataset
// generation. Batches serialize; draws in flight keep serving the
// snapshot they started on. An empty update returns the current
// generation without bumping it. Apply edits the index in place and
// never rebuilds it, however far the live counts move: each touched
// cell's buckets are sized for the live S count, and a batch that
// leaves more deleted R slots than live ones repacks the R side, so
// the footprint follows a shrink.
func (s *Store) Apply(ctx context.Context, u Update) (uint64, error) {
	return s.st.Apply(ctx, u)
}

// Draw serves one request against the current generation. See Source
// for the contract shared with Engine, Client, and Router.
func (s *Store) Draw(ctx context.Context, req Request) (Result, error) {
	return s.st.Draw(ctx, req)
}

// DrawFunc serves one request against the current generation,
// streaming batches to fn. One request is served by one snapshot: an
// Apply landing mid-stream never mixes generations within a draw.
func (s *Store) DrawFunc(ctx context.Context, req Request, fn func(batch []Pair) error) error {
	return s.st.DrawFunc(ctx, req, fn)
}

// Bind returns the store typed as its Source view, for symmetry with
// Client.Bind and Router.Bind (a Store serves exactly one dataset, so
// there is no key to fix).
func (s *Store) Bind() Source { return s }

// Generation reports the current dataset generation: 0 at
// construction, bumped once by every non-empty Apply.
func (s *Store) Generation() uint64 { return s.st.Generation() }

// InPlaceOps reports how many operations were absorbed by in-place
// index maintenance — the Õ(ops) write path that edits the live
// structures copy-on-write instead of buffering toward a rebuild.
func (s *Store) InPlaceOps() uint64 { return s.st.InPlaceOps() }

// Rebuilds reports 0: no store operation rebuilds the index.
//
// Deprecated: always zero. Apply is a store's one write path, and it
// repacks in place.
func (s *Store) Rebuilds() uint64 { return 0 }

// Stats aggregates serving counters across all generations served so
// far.
func (s *Store) Stats() EngineStats { return s.st.Stats() }

// SizeBytes estimates the retained footprint of the current
// generation's structures.
func (s *Store) SizeBytes() int { return s.st.SizeBytes() }

// EstimateJoinSize estimates the live join size |J| from `samples`
// calibration draws — the mutable sibling of EstimateJoinSize over a
// Sampler. An empty join estimates 0.
func (s *Store) EstimateJoinSize(samples int) (float64, error) {
	return s.st.EstimateJoinSize(samples)
}

// Quiesce waits for any in-flight background snapshot, so benchmarks
// and tests can time or assert against a settled store.
func (s *Store) Quiesce(ctx context.Context) error { return s.st.Quiesce(ctx) }

// Apply posts one update batch against the bound engine key's remote
// store and returns the new dataset generation — the remote half of
// Store.Apply, served by POST /v1/update. The batch travels in the
// framed binary encoding. Requires a bound client (see Bind);
// ErrUnbound otherwise.
func (c *Client) Apply(ctx context.Context, u Update) (uint64, error) {
	if !c.bound {
		return 0, ErrUnbound
	}
	resp, err := c.Client.ApplyUpdate(ctx, server.UpdateRequest{
		Dataset:   c.key.Dataset,
		L:         c.key.L,
		Algorithm: c.key.Algorithm,
		Seed:      c.key.Seed,
		InsertR:   u.InsertR,
		InsertS:   u.InsertS,
		DeleteR:   u.DeleteR,
		DeleteS:   u.DeleteS,
	})
	return resp.Generation, err
}

// Compile-time check: the Store is the fourth Source.
var _ Source = (*Store)(nil)
