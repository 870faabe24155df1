package dynamic

// Durability and fleet-wide sequencing. Each applied batch carries a
// monotonic per-dataset *update ID* (stamped by the shard router, or
// self-stamped by a store applied to directly): IDs order concurrent
// writers, key the write-ahead log, and make retries idempotent. The
// store itself stays storage-agnostic — it writes ahead through the
// narrow Persister interface, implemented by internal/wal, so this
// package never imports a storage layer (or the server package the
// WAL reuses for its record payload).

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/geom"
)

// ErrUpdateSequence reports an update ID the store cannot apply:
// too far ahead of the last applied ID (the bounded gap buffer is
// full) or a gap whose predecessor never arrived before the caller's
// deadline. Duplicates are NOT errors — they answer idempotently with
// the already-applied generation. The server maps this to HTTP 409.
var ErrUpdateSequence = errors.New("dynamic: update out of sequence")

// maxGapBuffer bounds how many out-of-order updates a store parks
// while waiting for their predecessors. Small on purpose: the router
// stamps IDs milliseconds apart, so a large buffer only hides a lost
// predecessor for longer.
const maxGapBuffer = 64

// Persister is the write-ahead durability hook of a Store. Append is
// called under the store's write lock *before* an update's view is
// published — if it errors the update fails and is never visible.
// Snapshot is called outside the lock — after a compaction, or on the
// store's operation-count cadence — with the live point sets covering
// IDs <= lastID. Implementations must be safe for concurrent
// use; internal/wal provides the real one.
type Persister interface {
	Append(id uint64, u Update) error
	Snapshot(gen, lastID uint64, R, S []geom.Point) error
	PersistStats() PersistStats
}

// PersistStats is the observable state of a store's persister,
// surfaced on /v1/stats and /metrics.
type PersistStats struct {
	Segments       int
	Bytes          int64
	Appends        uint64
	Syncs          uint64
	Snapshots      uint64
	LastSnapshotID uint64
}

// ApplyResult reports one sequenced application.
type ApplyResult struct {
	// Generation is the dataset generation after the update (the
	// current generation for duplicates and probes).
	Generation uint64
	// UpdateID is the ID the update applied at: the caller's ID, or
	// the self-stamped lastApplied+1 when the caller passed 0. Probes
	// (empty updates) report the last applied ID.
	UpdateID uint64
	// Duplicate reports that the ID was already applied and the update
	// was acknowledged idempotently without re-applying.
	Duplicate bool
}

// SeqUpdate is one recovered sequenced update — the unit of WAL
// replay.
type SeqUpdate struct {
	ID uint64
	U  Update
}

// gapWaiter parks one out-of-order update until its predecessors
// land. res and err are written before done closes.
type gapWaiter struct {
	u    Update
	done chan struct{}
	res  ApplyResult
	err  error
}

// ApplyAt absorbs one batch at an explicit update ID. Semantics:
//
//   - id == 0: self-stamp at lastApplied+1 (a store used directly,
//     without a router sequencing writes).
//   - id == lastApplied+1: apply now — write ahead, bump generation.
//   - id <= lastApplied: already applied; acknowledge idempotently
//     with the current generation (Duplicate true). A router retrying
//     a partially-broadcast update heals the fleet this way.
//   - id > lastApplied+1: park in a bounded gap buffer until the
//     missing predecessors land (concurrent broadcasts may arrive
//     reordered); ErrUpdateSequence when the buffer is full or ctx
//     expires first.
//
// An empty update is a sequence probe: it reports the current
// generation and last applied ID without bumping either.
func (st *Store) ApplyAt(ctx context.Context, id uint64, u Update) (ApplyResult, error) {
	if err := u.Validate(); err != nil {
		return ApplyResult{}, err
	}
	if u.Empty() {
		st.mu.Lock()
		res := ApplyResult{Generation: st.view.Load().gen, UpdateID: st.lastApplied}
		st.mu.Unlock()
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return ApplyResult{}, err
	}
	st.mu.Lock()
	if id == 0 {
		id = st.lastApplied + 1
	}
	switch {
	case id <= st.lastApplied:
		res := ApplyResult{Generation: st.view.Load().gen, UpdateID: id, Duplicate: true}
		st.mu.Unlock()
		return res, nil
	case id > st.lastApplied+1:
		return st.parkLocked(ctx, id, u) // unlocks
	}
	res, err := st.applyLocked(id, u)
	if err == nil {
		st.drainGapLocked()
	}
	st.mu.Unlock()
	return res, err
}

// parkLocked buffers an update that arrived ahead of its
// predecessors. Called with mu held; releases it.
func (st *Store) parkLocked(ctx context.Context, id uint64, u Update) (ApplyResult, error) {
	if len(st.gap) >= maxGapBuffer {
		last := st.lastApplied
		st.mu.Unlock()
		return ApplyResult{}, fmt.Errorf("%w: ID %d with %d updates already buffered past last applied %d",
			ErrUpdateSequence, id, maxGapBuffer, last)
	}
	if _, dup := st.gap[id]; dup {
		st.mu.Unlock()
		return ApplyResult{}, fmt.Errorf("%w: ID %d is already buffered by a concurrent request", ErrUpdateSequence, id)
	}
	if st.gap == nil {
		st.gap = make(map[uint64]*gapWaiter)
	}
	w := &gapWaiter{u: u, done: make(chan struct{})}
	st.gap[id] = w
	st.mu.Unlock()
	select {
	case <-w.done:
		return w.res, w.err
	case <-ctx.Done():
		st.mu.Lock()
		if st.gap[id] == w {
			delete(st.gap, id)
			last := st.lastApplied
			st.mu.Unlock()
			return ApplyResult{}, fmt.Errorf("%w: gave up waiting for update %d (last applied %d): %v",
				ErrUpdateSequence, last+1, last, ctx.Err())
		}
		st.mu.Unlock()
		// The drain claimed the waiter concurrently; its result is
		// moments away and the update WAS applied — report that rather
		// than a spurious cancellation.
		<-w.done
		return w.res, w.err
	}
}

// drainGapLocked applies every buffered update that became
// consecutive. Called with mu held. Iterates by successor ID, never
// map order.
func (st *Store) drainGapLocked() {
	for {
		w, ok := st.gap[st.lastApplied+1]
		if !ok {
			return
		}
		id := st.lastApplied + 1
		delete(st.gap, id)
		w.res, w.err = st.applyLocked(id, w.u)
		close(w.done)
		if w.err != nil {
			return // lastApplied did not advance; successors keep waiting
		}
	}
}

// applyLocked builds and publishes the view for one consecutive
// update, writing ahead first. Called with mu held and
// id == lastApplied+1.
func (st *Store) applyLocked(id uint64, u Update) (ApplyResult, error) {
	nv, err := st.stepLocked(st.view.Load(), id, u)
	if err != nil {
		return ApplyResult{}, err
	}
	if err := st.finishView(nv); err != nil {
		return ApplyResult{}, err
	}
	if p := st.cfg.Persister; p != nil {
		// Write-ahead: the record is durable (per the fsync policy)
		// before any reader can observe the new view. On error the
		// update fails wholesale — memory and log never diverge.
		if err := p.Append(id, u); err != nil {
			return ApplyResult{}, fmt.Errorf("dynamic: write-ahead append: %w", err)
		}
		st.snapPending += u.Ops()
	}
	st.lastApplied = id
	st.inplace.Add(uint64(u.Ops()))
	st.publishLocked(nv)
	return ApplyResult{Generation: nv.gen, UpdateID: id}, nil
}

// Replay folds recovered updates into the store without re-persisting
// them — they came *from* the log. Each record takes the same step as
// a live apply (including a rebase at the same update ID), advancing
// the generation once per record so a recovered store never reuses a
// pre-crash generation for different contents; one engine is built
// for the final view. IDs must be strictly increasing and past the
// last applied.
func (st *Store) Replay(recs []SeqUpdate) error {
	if len(recs) == 0 {
		return nil
	}
	for _, rec := range recs {
		if err := rec.U.Validate(); err != nil {
			return err
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	nv := st.view.Load()
	prev := st.lastApplied
	ops := 0
	for _, rec := range recs {
		if rec.ID <= prev {
			return fmt.Errorf("%w: replay ID %d not after %d", ErrUpdateSequence, rec.ID, prev)
		}
		next, err := st.stepLocked(nv, rec.ID, rec.U)
		if err != nil {
			return err
		}
		nv, prev = next, rec.ID
		ops += rec.U.Ops()
	}
	if err := st.finishView(nv); err != nil {
		return err
	}
	st.lastApplied = prev
	st.inplace.Add(uint64(ops))
	// Replayed records are already in the log; counting them here
	// means the first post-recovery applies snapshot early and prune
	// the recovered tail.
	st.snapPending += ops
	st.publishLocked(nv)
	return nil
}

// SetPersister installs the durability hook. Like SetOnGeneration,
// attach it before the store is published for serving — recovery
// wires it after Replay, so replayed records are never re-appended.
func (st *Store) SetPersister(p Persister) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cfg.Persister = p
}

// LastApplied reports the last applied update ID (0 when the store
// has only ever seen unsequenced history).
func (st *Store) LastApplied() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastApplied
}

// PersistStats reports the persister's counters; ok is false when the
// store runs without durability.
func (st *Store) PersistStats() (PersistStats, bool) {
	st.mu.Lock()
	p := st.cfg.Persister
	st.mu.Unlock()
	if p == nil {
		return PersistStats{}, false
	}
	return p.PersistStats(), true
}

// LastPersistErr reports the most recent snapshot failure (nil after
// a success). Snapshot failures never tear down serving — the log
// keeps every record a snapshot would have pruned.
func (st *Store) LastPersistErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastPersistErr
}
