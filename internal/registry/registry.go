// Package registry caches built engine.Engines behind a composite
// key so that one process — typically srjserver — can serve many
// (dataset, l, algorithm, seed) combinations without rebuilding the
// paper's preprocessing structures per request. The cache is the
// amortization argument of the paper lifted one level: the BBST pays
// Õ(n + m) once and then answers every sample in Õ(1) expected time,
// and the registry makes "once" mean once per key per residency, not
// once per process or once per request.
//
// Three properties matter for serving:
//
//   - Memory budget. Engines retain O(n + m) structures; a registry
//     holding every key ever requested would grow without bound. The
//     registry tracks the SizeBytes of each resident engine and, when
//     a configurable budget is exceeded, evicts by LFU with dynamic
//     aging (LFU-DA): the entry with the lowest priority, clock +
//     hits + 1, goes first, and the clock rises to each victim's
//     priority. Under skewed key popularity this keeps the engines
//     that are asked for often through a run of one-shot keys, and
//     the clock ages out an entry whose popularity has passed. Memory
//     the registry does not own but must leave room for (a server's
//     dynamic stores) is charged through Reserve.
//   - Build deduplication. A thundering herd of requests for a cold
//     key must pay one preprocessing pass, not one per request:
//     concurrent Gets for the same key coalesce onto a single build
//     (singleflight) and share its result or error. Builds of
//     *distinct* keys are additionally capped at GOMAXPROCS in
//     flight — they are CPU-bound, and an unbounded fan of them
//     would hold unbounded not-yet-evictable structures outside the
//     budget's reach. Inside a build, the per-cell phases (grid
//     mapping, corner builds, upper bounding) draw extra workers
//     from internal/par's one process-wide pool of GOMAXPROCS−1
//     helper tokens, taken without blocking: a lone miss builds on
//     every core, concurrent builds each fall back towards one, and
//     the cap above stays the only limit on builds in flight.
//   - Observability. Per-entry hit counts and build times plus
//     aggregate hit/miss/build/eviction counters feed /v1/stats.
package registry

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Key identifies one cacheable engine: the named dataset pair, the
// window half-extent l, the sampling algorithm, and the engine seed.
// Two requests with equal Keys are served by the same structures.
type Key struct {
	Dataset   string  `json:"dataset"`
	L         float64 `json:"l"`
	Algorithm string  `json:"algorithm"`
	Seed      uint64  `json:"seed"`
	// Deprecated: always zero. The registry caches static engines
	// only; a dynamic store's generation lives on the store.
	Generation uint64 `json:"generation,omitempty"`
}

// String renders the key the way srjserver's logs and -warm flag
// spell it: dataset:l:algorithm:seed.
func (k Key) String() string {
	return fmt.Sprintf("%s:%g:%s:%d", k.Dataset, k.L, k.Algorithm, k.Seed)
}

// validate rejects keys the map bookkeeping cannot track. Builders
// impose stricter rules (positive L, known names); this guard only
// keeps the maps themselves sound.
func (k Key) validate() error {
	if math.IsNaN(k.L) {
		return fmt.Errorf("%w: L is NaN", ErrInvalidKey)
	}
	return nil
}

// BuildFunc constructs the engine for a key: resolve the dataset,
// run the preprocessing and counting phases, and return the serving
// engine. It is invoked outside the registry lock (builds are slow)
// and at most once per key per miss, however many Gets race.
type BuildFunc func(ctx context.Context, key Key) (*engine.Engine, error)

// ErrInvalidKey reports a key the registry refuses to track. A NaN L
// is the load-bearing case: Go map deletes on NaN-containing keys are
// no-ops, so admitting one would permanently corrupt the registry's
// bookkeeping (leaked inflight entries, unevictable cache entries).
var ErrInvalidKey = fmt.Errorf("registry: invalid key")

// Stats is an aggregate snapshot of registry traffic. Evictions is
// the budget-pressure signal; ManualEvictions counts explicit Evict
// calls (e.g. DELETE /v1/engines) — keep them apart so a tool
// cleaning up after itself never looks like a too-small cache.
type Stats struct {
	Hits            uint64 `json:"hits"`             // Gets served by a resident engine
	Misses          uint64 `json:"misses"`           // Gets that found no resident engine
	Builds          uint64 `json:"builds"`           // builds executed (deduplicated misses)
	Evictions       uint64 `json:"evictions"`        // entries dropped to respect the budget
	ManualEvictions uint64 `json:"manual_evictions"` // entries dropped by explicit Evict calls
	Entries         int    `json:"entries"`          // resident engines
	Bytes           int64  `json:"bytes"`            // summed SizeBytes of resident engines
	Budget          int64  `json:"budget"`           // configured budget (0 = unlimited)
	// BuildLatency distributes executed build durations. It lives on
	// the Registry itself (not the entries), so eviction never makes
	// the exported histogram run backwards.
	BuildLatency obs.HistogramSnapshot `json:"build_latency"`
}

// EntryInfo describes one resident engine for /v1/engines.
type EntryInfo struct {
	Key       Key          `json:"key"`
	SizeBytes int64        `json:"size_bytes"`
	Hits      uint64       `json:"hits"`       // Gets served by this residency
	BuildTime float64      `json:"build_secs"` // wall-clock of the build
	Engine    engine.Stats `json:"engine"`     // request-level serving counters
}

// entry is one resident engine plus its bookkeeping.
type entry struct {
	key     Key
	eng     *engine.Engine
	elem    *list.Element // position in the LRU list
	size    int64
	hits    uint64
	buildNS int64
	// priority is the entry's LFU-DA eviction priority, clock + hits
	// + 1, set on insert and on every hit.
	priority uint64
}

// call is one in-flight build that concurrent Gets coalesce onto.
// waiters (guarded by the registry mutex) counts the Gets still
// blocked on it; when every waiter gives up before the build starts,
// the build is abandoned instead of executed.
type call struct {
	done    chan struct{}
	waiters int
	eng     *engine.Engine
	err     error
}

// Registry is a concurrency-safe, memory-budgeted cache of built
// engines. The zero value is not usable; construct with New.
//
// Every mutation path — Get's hit/miss/insert, explicit Evict, and
// budget eviction — holds mu across its whole read-modify-write, and
// preserves one structural invariant: entries and lru hold exactly
// the same set (lru orders it by recency, for Entries and for
// eviction's ties), bytes equals the summed size of that set, and no
// resident priority is below the eviction clock. Two consequences
// follow and are part of the contract: an engine returned by Get
// stays usable when eviction races it (eviction only drops the
// registry's reference — in-flight holders keep serving, and the
// first collection after the last one returns frees the engine), and
// an Evict that races a build finds nothing (an in-flight build is
// not resident; its insert lands atomically afterwards). The
// race-focused tests in registry_race_test.go hammer these
// interleavings under -race and assert the invariant at quiescent
// points.
type Registry struct {
	build    BuildFunc
	budget   int64         // bytes; 0 = unlimited
	buildSem chan struct{} // caps concurrent builds of distinct keys

	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // front = most recently used; values are *entry
	bytes    int64
	clock    uint64       // LFU-DA aging clock: the last victim's priority
	reserve  func() int64 // bytes held outside the cache; nil = none
	inflight map[Key]*call

	hits, misses, builds, evictions, manualEvictions uint64

	buildHist *obs.Histogram // durations of executed builds
}

// New returns a registry that builds cold keys with build and keeps
// resident engines within budgetBytes (0 disables the budget),
// evicting by LFU-DA (see evictLocked). The most recently inserted
// engine is never evicted — a single engine larger than the budget
// serves its requests and is dropped as soon as a different key
// becomes more recent.
func New(build BuildFunc, budgetBytes int64) *Registry {
	if build == nil {
		panic("registry: nil BuildFunc")
	}
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &Registry{
		build:     build,
		budget:    budgetBytes,
		buildSem:  make(chan struct{}, runtime.GOMAXPROCS(0)),
		entries:   make(map[Key]*entry),
		lru:       list.New(),
		inflight:  make(map[Key]*call),
		buildHist: obs.NewHistogram(obs.BuildDurationBuckets),
	}
}

// Get returns the engine for key, building it if no resident engine
// exists. Concurrent Gets for the same cold key share one build: all
// callers block until it finishes and receive the same engine or the
// same error. Build errors are not cached — the next Get retries.
//
// ctx cancels the *wait*, not the build: a build keeps running for
// the benefit of the other waiters (and the cache) even if this
// caller gives up.
func (r *Registry) Get(ctx context.Context, key Key) (*engine.Engine, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.hits++
		e.hits++
		e.priority = r.clock + e.hits + 1
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		return e.eng, nil
	}
	r.misses++
	if c, ok := r.inflight[key]; ok {
		// Someone is already building this key; join them.
		c.waiters++
		r.mu.Unlock()
		return r.wait(ctx, c)
	}
	c := &call{done: make(chan struct{}), waiters: 1}
	r.inflight[key] = c
	r.mu.Unlock()

	// The build is shared by every waiter (and the cache), so it runs
	// in its own goroutine on a context detached from the caller that
	// happened to start it: the initiator's deadline cancels its wait
	// below, exactly like any other waiter's, never a build in
	// progress.
	buildCtx := context.WithoutCancel(ctx)
	go func() {
		// The semaphore bounds concurrent builds — and with them the
		// memory held by structures the budget cannot see yet — at
		// GOMAXPROCS; beyond that, distinct cold keys queue here. A
		// queued build whose waiters have all timed out is abandoned
		// rather than executed, so a burst of never-to-be-used keys
		// costs queue slots, not preprocessing passes.
		r.buildSem <- struct{}{}
		r.mu.Lock()
		if c.waiters == 0 {
			delete(r.inflight, key)
			c.err = context.Canceled
			r.mu.Unlock()
			<-r.buildSem
			close(c.done)
			return
		}
		r.builds++
		r.mu.Unlock()
		start := time.Now()
		eng, err := r.build(buildCtx, key)
		buildNS := time.Since(start).Nanoseconds()
		r.buildHist.Observe(time.Duration(buildNS).Seconds())
		<-r.buildSem
		r.mu.Lock()
		delete(r.inflight, key)
		c.eng, c.err = eng, err
		if err == nil {
			e := &entry{key: key, eng: eng, size: int64(eng.SizeBytes()), buildNS: buildNS}
			e.elem = r.lru.PushFront(e)
			r.entries[key] = e
			r.bytes += e.size
			r.evictLocked()
			// Priced after the evictions its arrival caused, as if it
			// had been inserted into the room they made.
			e.priority = r.clock + 1
		}
		r.mu.Unlock()
		close(c.done)
	}()
	return r.wait(ctx, c)
}

// wait blocks on a shared build until it finishes or ctx expires; a
// departing waiter deregisters itself so fully-abandoned queued
// builds can be skipped.
func (r *Registry) wait(ctx context.Context, c *call) (*engine.Engine, error) {
	select {
	case <-c.done:
		return c.eng, c.err
	case <-ctx.Done():
		r.mu.Lock()
		c.waiters--
		r.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Reserve charges memory held outside the cache to the budget: every
// eviction pass adds fn() to the resident bytes, so the engines share
// what is left. fn runs under the registry lock; it must be cheap and
// must not call back into the registry. A nil fn removes the charge.
func (r *Registry) Reserve(fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserve = fn
}

// evictLocked drops entries until the budget is respected, by LFU
// with dynamic aging (Arlitt et al., 2000): the victim is the lowest
// priority, found scanning from the least recently used end so that
// ties go to the least recently used, and the clock becomes the
// victim's priority. Since every priority is set from the clock, a
// recent hit outweighs an old one: a key that was popular once is
// aged out by keys that are popular now. The most recent entry always
// stays: evicting the engine a request is about to use would turn an
// oversized engine into a rebuild-per-request livelock.
func (r *Registry) evictLocked() {
	if r.budget <= 0 {
		return
	}
	var reserved int64
	if r.reserve != nil {
		reserved = r.reserve()
	}
	for r.bytes+reserved > r.budget && r.lru.Len() > 1 {
		victim := r.lru.Back().Value.(*entry)
		for el := victim.elem.Prev(); el != r.lru.Front(); el = el.Prev() {
			if e := el.Value.(*entry); e.priority < victim.priority {
				victim = e
			}
		}
		r.clock = victim.priority
		r.lru.Remove(victim.elem)
		delete(r.entries, victim.key)
		r.bytes -= victim.size
		r.evictions++
		// In-flight requests holding the *engine.Engine keep serving;
		// the structures are freed by GC once they return.
	}
}

// Evict removes key's resident engine, reporting whether one existed.
// Requests already holding the engine are unaffected.
func (r *Registry) Evict(key Key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok {
		return false
	}
	r.lru.Remove(e.elem)
	delete(r.entries, key)
	r.bytes -= e.size
	r.manualEvictions++
	return true
}

// Stats snapshots the aggregate counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Hits:            r.hits,
		Misses:          r.misses,
		Builds:          r.builds,
		Evictions:       r.evictions,
		ManualEvictions: r.manualEvictions,
		Entries:         len(r.entries),
		Bytes:           r.bytes,
		Budget:          r.budget,
		BuildLatency:    r.buildHist.Snapshot(),
	}
}

// Entries lists the resident engines, most recently used first.
func (r *Registry) Entries() []EntryInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EntryInfo, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, EntryInfo{
			Key:       e.key,
			SizeBytes: e.size,
			Hits:      e.hits,
			BuildTime: time.Duration(e.buildNS).Seconds(),
			Engine:    e.eng.Stats(),
		})
	}
	return out
}
