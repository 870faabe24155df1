package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/registry"
	"repro/internal/server"
)

// Membership errors the admin endpoint maps to HTTP 400; anything
// else a membership change reports is a fleet-side failure (502).
var (
	// ErrAlreadyMember reports AddBackend of an address already in the
	// fleet.
	ErrAlreadyMember = errors.New("router: backend is already a fleet member")
	// ErrNotMember reports RemoveBackend of an address not in the
	// fleet.
	ErrNotMember = errors.New("router: backend is not a fleet member")
	// ErrLastBackend reports RemoveBackend of the only backend: a
	// router with an empty fleet could serve nothing, so the last
	// member is irremovable.
	ErrLastBackend = errors.New("router: cannot remove the last backend")
)

// drainPoll paces the in-flight drain loop in RemoveBackend.
const drainPoll = 5 * time.Millisecond

// prewarmSeed seeds the pre-warm draws RemoveBackend issues for moved
// keys. Fixed and nonzero on purpose: a seeded draw streams from a
// per-request generator, so warming never perturbs the engines' own
// unseeded streams — and determinism keeps the warm path rngdeterminism-
// clean.
const prewarmSeed = 1

// AddBackend grows the fleet by one srjserver at runtime: the address
// is health-probed, every dataset's current store state is replicated
// onto it (snapshot dump from the freshest reachable member, install
// on the newcomer — which seats its per-key last-applied ID so
// subsequent sequenced broadcasts apply gap-free), and only then does
// the ring include it for reads. In-flight stamped updates are fenced
// out during the transfer (they complete against the old fleet and
// are captured by the dumped snapshots; updates arriving after the
// swap broadcast to the new member), so no update can fall between
// the snapshot and the membership change. Draws never block; a draw
// that loaded the old fleet simply does not try the newcomer.
func (r *Router) AddBackend(ctx context.Context, addr string) error {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return errors.New("router: empty backend address")
	}
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	f := r.fleet.Load()
	for _, b := range f.backends {
		if b.addr == addr {
			return fmt.Errorf("%w: %s", ErrAlreadyMember, addr)
		}
	}
	nb := &backend{addr: addr, client: server.NewClient(addr, r.hc)}
	// Probe before fencing writes: a dead address must fail fast
	// without ever stalling the update path.
	if err := nb.client.Health(ctx); err != nil {
		return fmt.Errorf("router: probing new backend %s: %w", addr, err)
	}
	r.updateMu.Lock()
	defer r.updateMu.Unlock()
	if err := r.replicateStores(ctx, f, nb); err != nil {
		return err
	}
	nb.healthy.Store(true)
	addrs := make([]string, 0, len(f.backends)+1)
	backends := make([]*backend, 0, len(f.backends)+1)
	for _, b := range f.backends {
		addrs = append(addrs, b.addr)
		backends = append(backends, b)
	}
	addrs = append(addrs, addr)
	backends = append(backends, nb)
	r.fleet.Store(&fleet{backends: backends, ring: buildRing(addrs, r.vnodes)})
	if r.logger != nil {
		r.logger.LogAttrs(ctx, slog.LevelInfo, "backend added",
			slog.String("backend", addr),
			slog.Int("fleet_size", len(backends)),
		)
	}
	return nil
}

// replicateStores copies every dataset's dynamic-store state from the
// old fleet onto nb: for each key any reachable member reports a
// store for, dump a snapshot from the member holding the highest
// last-applied update ID and install it on nb. Keys are transferred
// in sorted order so the operation is deterministic.
func (r *Router) replicateStores(ctx context.Context, f *fleet, nb *backend) error {
	stats := make([]server.StatsResponse, len(f.backends))
	errs := f.broadcast(func(i int, b *backend) error {
		var err error
		stats[i], err = b.client.Stats(ctx)
		return err
	})
	type donor struct {
		b      *backend
		lastID uint64
	}
	donors := make(map[registry.Key]donor)
	reachable := 0
	var firstErr error
	for i, b := range f.backends {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("router: stats from %s: %w", b.addr, errs[i])
			}
			continue
		}
		reachable++
		for _, info := range stats[i].Stores {
			d, ok := donors[info.Key]
			if !ok || info.LastAppliedID > d.lastID {
				donors[info.Key] = donor{b: b, lastID: info.LastAppliedID}
			}
		}
	}
	if reachable == 0 {
		return fmt.Errorf("router: no fleet member reachable for state transfer: %w", firstErr)
	}
	keys := make([]registry.Key, 0, len(donors))
	for key := range donors {
		keys = append(keys, key)
	}
	// Install in sorted key order: map iteration order must not
	// decide the transfer sequence (rngdeterminism) or test output.
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, key := range keys {
		d := donors[key]
		dump, err := d.b.client.DumpSnapshot(ctx, key)
		if err != nil {
			return fmt.Errorf("router: dumping %s from %s: %w", key, d.b.addr, err)
		}
		if _, err := nb.client.InstallSnapshot(ctx, dump); err != nil {
			return fmt.Errorf("router: installing %s on %s: %w", key, nb.addr, err)
		}
	}
	return nil
}

// RemoveBackend shrinks the fleet by one member at runtime: the
// backend leaves the ring immediately, its in-flight draws are
// drained, its cached engines are (best-effort) evicted so a
// decommissioned-but-running server does not pin their memory, and
// the keys whose ring home moved are pre-warmed on their new homes so
// the first client draw after the resize does not pay an index build.
// The last remaining backend is irremovable (ErrLastBackend).
func (r *Router) RemoveBackend(ctx context.Context, addr string) error {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return errors.New("router: empty backend address")
	}
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	f := r.fleet.Load()
	idx := -1
	for i, b := range f.backends {
		if b.addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: %s", ErrNotMember, addr)
	}
	if len(f.backends) == 1 {
		return ErrLastBackend
	}
	departing := f.backends[idx]
	moved := r.movedKeys(f, idx)
	addrs := make([]string, 0, len(f.backends)-1)
	backends := make([]*backend, 0, len(f.backends)-1)
	for i, b := range f.backends {
		if i == idx {
			continue
		}
		addrs = append(addrs, b.addr)
		backends = append(backends, b)
	}
	nf := &fleet{backends: backends, ring: buildRing(addrs, r.vnodes)}
	// Fence stamped updates across the swap so no broadcast straddles
	// two memberships; reads pick up the new fleet on their next
	// draw.
	r.updateMu.Lock()
	r.fleet.Store(nf)
	r.updateMu.Unlock()
	drainErr := drainBackend(ctx, departing)
	// Best-effort cleanup: the departing server may already be gone,
	// and that is fine — eviction only matters when it lives on.
	if engines, err := departing.client.Engines(ctx); err == nil {
		for _, e := range engines {
			departing.client.EvictEngine(ctx, e.Key) //nolint:errcheck // best-effort
		}
	}
	for _, key := range moved {
		// A seeded one-sample draw routes through the new fleet and
		// forces the key's new home to build (or fetch) its engine;
		// errors are the next real draw's problem, not removal's.
		_ = r.drawFunc(ctx, key, 1, prewarmSeed, func([]geom.Pair) error { return nil })
	}
	if r.logger != nil {
		r.logger.LogAttrs(ctx, slog.LevelInfo, "backend removed",
			slog.String("backend", addr),
			slog.Int("fleet_size", len(backends)),
			slog.Int("keys_prewarmed", len(moved)),
		)
	}
	return drainErr
}

// movedKeys returns the tracked keys whose ring owner is the backend
// at index idx of f — the keys whose home moves when it leaves.
// Sorted for deterministic pre-warm order.
func (r *Router) movedKeys(f *fleet, idx int) []registry.Key {
	r.mu.Lock()
	var moved []registry.Key
	for key := range r.keys {
		if f.ring.owner(hashKey(key)) == idx {
			moved = append(moved, key)
		}
	}
	r.mu.Unlock()
	sort.Slice(moved, func(i, j int) bool { return moved[i].String() < moved[j].String() })
	return moved
}

// drainBackend waits for the backend's in-flight draws to finish.
// Draws that loaded the pre-removal fleet but have not dispatched yet
// can still land one attempt after the drain returns — the departing
// server answers them like any other request, so the drain is a
// bound on disruption, not a hard fence.
func drainBackend(ctx context.Context, b *backend) error {
	if b.inflight.Load() == 0 {
		return nil
	}
	t := time.NewTicker(drainPoll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: draining %s: %d draws still in flight: %w", b.addr, b.inflight.Load(), ctx.Err())
		case <-t.C:
			if b.inflight.Load() == 0 {
				return nil
			}
		}
	}
}
