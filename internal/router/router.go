// Package router shards engine keys across a fleet of srjserver
// backends. The registry (one process) amortizes preprocessing per
// key; the server (one host) amortizes it across clients; the router
// amortizes across *hosts*: a consistent-hash ring assigns each
// (dataset, l, algorithm, seed) key a home backend, so the fleet's
// aggregate memory budget scales horizontally and a key's structures
// are built on exactly one host instead of everywhere.
//
// The Router is itself a Source factory — Bind fixes a key and
// returns the same Draw/DrawFunc contract srj.Engine and srj.Client
// serve, so callers cannot tell a sharded fleet from a single engine,
// and the shared conformance suite holds it to that.
//
// Failure handling draws one line: *transport* failures (connection
// refused, a stream dying mid-frame, a malformed response) mark the
// backend unhealthy and fail the draw over to the next ring node —
// which is exactly where the key would live if the backend were
// removed, so retried keys land where a ring resize would put them
// anyway. *Semantic* answers (an HTTP error or in-stream error frame
// from a backend that understood the request: ErrSampleCap,
// ErrBadRequest, ErrEmptyJoin, ErrLowAcceptance) and the caller's own
// context expiring surface unchanged — retrying a request the fleet
// understood and refused would turn every client error into n client
// errors and every cancellation into a stampede.
//
// Because the update broadcast keeps every shard's store a replica of
// the same live join, reads need not pin to the ring owner:
// Options.ReadReplicas spreads each key's draws across the first k
// healthy nodes of its failover order, and AddBackend/RemoveBackend
// resize the ring on a live router (see membership.go).
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
)

// Defaults for optional Options fields.
const (
	// DefaultVNodes is the virtual nodes per backend: enough that the
	// largest arc a backend owns stays close to 1/n of the ring.
	DefaultVNodes = 64
	// DefaultProbeInterval paces the background health probes.
	DefaultProbeInterval = 5 * time.Second
	// probeTimeout bounds one /healthz probe.
	probeTimeout = 2 * time.Second
	// maxKeyStats bounds the per-key routing table so adversarial key
	// churn cannot grow it without bound; keys beyond the cap still
	// route (the ring is stateless), they just go uncounted.
	maxKeyStats = 1024
	// maxKeySeqs bounds the per-key update sequencer map the same way.
	// Evicting a cold sequencer is safe because probing the fleet for
	// the key's highest last-applied ID is the documented cold-start
	// path — a re-entering key re-probes and resumes the sequence.
	maxKeySeqs = 1024
)

// Options configures New. The zero value serves: DefaultVNodes
// virtual nodes, DefaultProbeInterval background probing, one read
// replica, and http.DefaultClient.
type Options struct {
	// VNodes is the virtual nodes per backend (default DefaultVNodes).
	VNodes int
	// ReadReplicas spreads each key's draws across the first k healthy
	// nodes of its failover order instead of pinning every read to the
	// ring owner (default 1 — today's owner-only routing). Safe
	// because the update broadcast keeps every shard's store a
	// replica of the same live join, and a nonzero request seed makes
	// the sampled stream independent of which engine serves it. The
	// replica choice is a deterministic tie-break from the request
	// seed and the key hash — never wall clock or a global RNG. Shards
	// with the same build history (booted over the same data, fed the
	// same updates) answer a seeded draw with byte-identical samples.
	// A shard recovered from a snapshot or added at runtime rebuilt
	// its store from flattened point lists: it serves the same live
	// join with other seeded bytes, so with one in the replica set a
	// seeded draw's bytes depend on the replica that answers
	// (TestServerSnapshotRecoveryDivergesFromPeer). Unseeded draws
	// rotate round-robin. Values beyond the healthy backend count are
	// clamped per draw.
	ReadReplicas int
	// ProbeInterval paces background /healthz probes of every backend
	// (default DefaultProbeInterval); negative disables probing —
	// health is then tracked passively, from request outcomes only.
	ProbeInterval time.Duration
	// HTTPClient is shared by all backend clients; nil uses
	// http.DefaultClient. For many concurrent draws use a transport
	// with MaxIdleConnsPerHost sized to the concurrency.
	HTTPClient *http.Client
	// Logger receives structured logs: the proxy access log at Info,
	// failovers at Warn (with the request ID, so a failover line joins
	// up with the backend's and client's view of the same draw). nil
	// disables logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler returned by Handler(). Off by default.
	EnablePprof bool
}

// backend is one srjserver plus its routing state.
type backend struct {
	addr   string
	client *server.Client

	healthy   atomic.Bool   // flipped by probes and request outcomes
	requests  atomic.Uint64 // draw attempts routed here
	failures  atomic.Uint64 // attempts the backend answered with an error or failed in transport
	failovers atomic.Uint64 // transport failures that moved a draw onward
	inflight  atomic.Int64  // draws currently streaming from this backend
}

// fleet is one immutable membership snapshot: the backends and the
// ring built over their addresses, with ring indices positional into
// the backends slice. Readers load one snapshot per operation and
// never see a half-resized fleet; membership changes build a new
// fleet and swap the pointer.
type fleet struct {
	backends []*backend
	ring     *ring
}

// keyCounter is the per-key routing record.
type keyCounter struct {
	backend   string // backend that served the key's latest draw
	draws     uint64
	failovers uint64
}

// Router routes engine keys across a fleet of srjserver backends by
// consistent hashing. Construct with New; Close stops the health
// prober. Safe for concurrent use. The fleet is resizable at runtime
// via AddBackend/RemoveBackend.
type Router struct {
	fleet    atomic.Pointer[fleet]
	vnodes   int
	replicas int
	hc       *http.Client // shared by backend clients, kept for AddBackend
	start    time.Time
	logger   *slog.Logger
	pprof    bool

	// Push-side metrics. Per-backend series come from the backend
	// atomics instead — membership is admin-bounded, so the backend
	// label stays bounded and those counters stay monotonic per
	// backend.
	drawHist    *obs.Histogram  // srj_draw_duration_seconds (all algorithms, one proxy path)
	drawSamples atomic.Uint64   // srj_draw_samples_total
	requests    *obs.CounterVec // srj_requests_total{code}, fed by the handler

	// rr rotates unseeded draws across read replicas.
	rr atomic.Uint64

	// updateMu fences updates against membership changes: every
	// stamped broadcast holds the read side for its whole flight, and
	// AddBackend holds the write side across state transfer + fleet
	// swap — so an update either completes entirely against the old
	// fleet (and is captured by the transferred snapshots) or starts
	// after the swap (and broadcasts to the new node). Reads never
	// block on it.
	updateMu sync.RWMutex
	// memberMu serializes membership operations among themselves.
	memberMu sync.Mutex

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	mu          sync.Mutex
	keys        map[registry.Key]*keyCounter
	keysDropped uint64

	// Per-key update sequencing (see ApplyUpdate). seqMu guards the
	// map and the clock; each keySeq serializes stamping for its key.
	seqMu    sync.Mutex
	seq      map[registry.Key]*keySeq
	seqClock uint64 // advances per keySeqFor call; orders eviction
}

// keySeq is the update-ID counter of one dataset key. init false
// means the next stamp must first probe the fleet for its highest
// last-applied ID — at first use, and again after any broadcast
// failure left the fleet state uncertain. outstanding tracks stamps
// currently in flight (refcounted, to tolerate concurrent retries at
// one ID): a re-probe seeds next above them, so a failed broadcast
// can never cause a concurrent in-flight ID to be re-stamped with
// different contents — the one mistake probeSeq's doc calls
// unrecoverable.
type keySeq struct {
	mu          sync.Mutex
	init        bool
	next        uint64
	outstanding map[uint64]int
	// dead marks an entry evicted from r.seq; a stamper that raced
	// the eviction re-fetches a live entry instead of using it.
	dead bool
	// lastUse is the seqClock at the entry's latest keySeqFor hit;
	// guarded by Router.seqMu, not ks.mu.
	lastUse uint64
}

// note records a stamp entering flight. Caller holds ks.mu.
func (ks *keySeq) note(id uint64) {
	if ks.outstanding == nil {
		ks.outstanding = make(map[uint64]int)
	}
	ks.outstanding[id]++
}

// done records a stamp leaving flight. Caller holds ks.mu.
func (ks *keySeq) done(id uint64) {
	if n := ks.outstanding[id]; n > 1 {
		ks.outstanding[id] = n - 1
	} else {
		delete(ks.outstanding, id)
	}
}

// New returns a router over the given backend base URLs (e.g.
// "http://shard0:8080"). The address strings are identity: the ring
// hashes them, so spelling a backend two ways makes two ring members.
func New(backends []string, opts Options) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	if opts.VNodes <= 0 {
		opts.VNodes = DefaultVNodes
	}
	if opts.ReadReplicas <= 0 {
		opts.ReadReplicas = 1
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	addrs := make([]string, 0, len(backends))
	seen := map[string]bool{}
	for _, a := range backends {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" {
			return nil, errors.New("router: empty backend address")
		}
		if seen[a] {
			return nil, fmt.Errorf("router: duplicate backend %q", a)
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	r := &Router{
		vnodes:   opts.VNodes,
		replicas: opts.ReadReplicas,
		hc:       opts.HTTPClient,
		start:    time.Now(),
		keys:     make(map[registry.Key]*keyCounter),
		seq:      make(map[registry.Key]*keySeq),
		logger:   opts.Logger,
		pprof:    opts.EnablePprof,
		drawHist: obs.NewHistogram(obs.DrawDurationBuckets),
		requests: obs.NewCounterVec(),
	}
	f := &fleet{ring: buildRing(addrs, opts.VNodes)}
	for _, a := range addrs {
		b := &backend{addr: a, client: server.NewClient(a, opts.HTTPClient)}
		b.healthy.Store(true) // optimistic until a probe or request says otherwise
		f.backends = append(f.backends, b)
	}
	r.fleet.Store(f)
	if opts.ProbeInterval > 0 {
		r.probeStop = make(chan struct{})
		r.probeDone = make(chan struct{})
		go r.probeLoop(opts.ProbeInterval)
	}
	return r, nil
}

// Close stops the background health prober. Draws through the router
// keep working after Close; health is then tracked passively.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		if r.probeStop != nil {
			close(r.probeStop)
			<-r.probeDone
		}
	})
}

// probeLoop probes every backend once per interval until Close.
func (r *Router) probeLoop(interval time.Duration) {
	defer close(r.probeDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-t.C:
			r.ProbeNow(context.Background())
		}
	}
}

// broadcast runs fn against every backend of the snapshot
// concurrently and returns the per-backend results, indexed like
// f.backends. Fleet-wide operations (probes, evictions, stats
// collection) use it so one slow backend costs its own timeout, not
// everyone's summed.
func (f *fleet) broadcast(fn func(i int, b *backend) error) []error {
	errs := make([]error, len(f.backends))
	var wg sync.WaitGroup
	for i, b := range f.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			errs[i] = fn(i, b)
		}(i, b)
	}
	wg.Wait()
	return errs
}

// ProbeNow probes every backend's /healthz once, concurrently,
// updates the health flags, and returns the number healthy. The
// background prober calls it on its interval; callers wanting fresh
// health before a burst (or with probing disabled) call it directly.
func (r *Router) ProbeNow(ctx context.Context) int {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	f := r.fleet.Load()
	healthy := 0
	for _, err := range f.broadcast(func(_ int, b *backend) error {
		err := b.client.Health(ctx)
		b.healthy.Store(err == nil)
		return err
	}) {
		if err == nil {
			healthy++
		}
	}
	return healthy
}

// Health reports whether the fleet can serve: it probes every backend
// now and errors only when none answers — the ring routes around any
// smaller outage.
func (r *Router) Health(ctx context.Context) error {
	if n := r.ProbeNow(ctx); n == 0 {
		return fmt.Errorf("router: none of the %d backends is healthy", len(r.fleet.Load().backends))
	}
	return nil
}

// Backends lists the backend base URLs of the current fleet, in
// membership order (construction order, runtime additions appended).
func (r *Router) Backends() []string {
	f := r.fleet.Load()
	out := make([]string, len(f.backends))
	for i, b := range f.backends {
		out[i] = b.addr
	}
	return out
}

// Locate returns the backend address that owns key on the ring — the
// stable assignment, ignoring health (failover is a per-draw detour,
// not a reassignment). The same key normalization as Bind applies.
func (r *Router) Locate(key registry.Key) string {
	f := r.fleet.Load()
	return f.backends[f.ring.owner(hashKey(normalizeKey(key)))].addr
}

// normalizeKey applies the fleet-wide default algorithm, exactly like
// Client.Bind and the server's SampleRequest.Key, so the ring and the
// backends agree on what key a request addresses.
func normalizeKey(key registry.Key) registry.Key {
	key.Algorithm = server.NormalizeAlgorithm(key.Algorithm)
	return key
}

// Bound is a Router fixed to one engine key: a Source. Create with
// Bind.
type Bound struct {
	r   *Router
	key registry.Key
}

// Bind fixes one engine key and returns the Source serving it through
// the ring. An empty Algorithm defaults to "bbst".
func (r *Router) Bind(key registry.Key) *Bound {
	return &Bound{r: r, key: normalizeKey(key)}
}

// Key returns the engine key the source is bound to.
func (b *Bound) Key() registry.Key { return b.key }

// Draw serves one request through the key's shard (failing over along
// the ring on transport errors). See the srj.Source contract; with
// req.Into the accumulation is allocation-free.
func (b *Bound) Draw(ctx context.Context, req engine.Request) (engine.Result, error) {
	start := time.Now()
	t, err := req.Resolve()
	if err != nil {
		return engine.Result{Elapsed: time.Since(start)}, err
	}
	// Total delivery is bounded by t (each attempt aborts on
	// over-delivery and retries only fill the gap), so Result.Pairs
	// stays backed by req.Into when one was given.
	out, err := server.Collect(req.Into, t, func(fn func([]geom.Pair) error) error {
		return b.r.drawFunc(ctx, b.key, t, req.Seed, fn)
	})
	return engine.Result{Pairs: out, Elapsed: time.Since(start)}, err
}

// DrawFunc serves one request, streaming each batch to fn as it
// arrives off the wire from the key's shard. The batch's backing
// array is reused; fn must not retain it. See the srj.Source
// contract: req.Into never receives samples here.
func (b *Bound) DrawFunc(ctx context.Context, req engine.Request, fn func(batch []geom.Pair) error) error {
	t, err := req.ResolveStream()
	if err != nil {
		return err
	}
	return b.r.drawFunc(ctx, b.key, t, req.Seed, fn)
}

// drawFunc is the routed draw: walk the key's replica order (healthy
// backends first, the chosen replica rotated to the front), stream
// from the first that answers, and on a transport failure resume on
// the next node without replaying what fn already received — the
// retry re-requests the full stream and skips the delivered prefix,
// so a seeded draw stays byte-identical whether or not a shard died
// under it, and an unseeded one never double-delivers.
func (r *Router) drawFunc(ctx context.Context, key registry.Key, t int, seed uint64, fn func(batch []geom.Pair) error) error {
	sreq := server.SampleRequest{
		Dataset:   key.Dataset,
		L:         key.L,
		Algorithm: key.Algorithm,
		Seed:      key.Seed,
		DrawSeed:  seed,
		T:         t,
	}
	f := r.fleet.Load()
	order := r.order(f, key, seed)
	delivered := 0
	failovers := 0
	start := time.Now()
	defer func() {
		// One observation per routed draw, after the last attempt —
		// failover detours are part of the latency the caller saw.
		r.drawHist.Observe(time.Since(start).Seconds())
		r.drawSamples.Add(uint64(delivered))
	}()
	var lastErr error
	for _, bi := range order {
		b := f.backends[bi]
		b.requests.Add(1)
		b.inflight.Add(1)
		skip := delivered
		var fnErr error
		err := b.client.SampleFunc(ctx, sreq, func(batch []geom.Pair) error {
			if skip > 0 {
				if len(batch) <= skip {
					skip -= len(batch)
					return nil
				}
				batch = batch[skip:]
				skip = 0
			}
			delivered += len(batch)
			if ferr := fn(batch); ferr != nil {
				fnErr = ferr
				return ferr
			}
			return nil
		})
		b.inflight.Add(-1)
		if err == nil {
			b.healthy.Store(true)
			r.noteKey(key, b.addr, failovers)
			return nil
		}
		if fnErr != nil {
			// fn's own error is returned verbatim and never retried
			// (and never counted against the backend): the caller
			// aborted the draw, the fleet didn't fail it.
			return fnErr
		}
		switch classify(err) {
		case errAnswer:
			// The backend is alive — it answered, with a refusal or a
			// sampler failure. Surface it unchanged; retrying an
			// answer on every shard would turn one client error into
			// n of them.
			b.failures.Add(1)
			r.noteKey(key, b.addr, failovers)
			return err
		case errCaller:
			// The caller's own context expired; nobody failed.
			return err
		}
		// Transport failure: mark the backend down (the prober will
		// bring it back) and resume on the next ring node.
		b.failures.Add(1)
		b.healthy.Store(false)
		b.failovers.Add(1)
		failovers++
		lastErr = err
		if r.logger != nil {
			r.logger.LogAttrs(ctx, slog.LevelWarn, "failover",
				slog.String("request_id", obs.RequestIDFrom(ctx)),
				slog.String("backend", b.addr),
				slog.String("dataset", key.Dataset),
				slog.String("algorithm", key.Algorithm),
				slog.Int("delivered", delivered),
				slog.String("error", err.Error()),
			)
		}
	}
	return fmt.Errorf("router: all %d backends failed for %s: %w", len(order), key, lastErr)
}

// order returns the backends to try for key: its ring sequence,
// stably partitioned so currently-healthy nodes come first, then —
// with ReadReplicas > 1 — rotated so the chosen replica leads and the
// other replicas remain the next failover targets. Each health flag
// is loaded exactly once — a flag flipping between two reads (a probe
// racing a draw) must not drop a backend from, or duplicate it in,
// the failover order.
//
// The replica choice is deterministic for seeded draws: mix64 over
// the request seed and the key hash, so the same seeded request picks
// the same replica on every router — and since every replica's store
// is byte-identical and the stream seed is engine-independent, the
// draw is byte-identical regardless. Unseeded draws rotate a shared
// round-robin cursor instead.
func (r *Router) order(f *fleet, key registry.Key, seed uint64) []int {
	h := hashKey(key)
	seq := f.ring.sequence(h, make([]int, 0, len(f.backends)))
	healthy := make([]bool, len(f.backends))
	for _, bi := range seq {
		healthy[bi] = f.backends[bi].healthy.Load()
	}
	out := make([]int, 0, len(seq))
	for _, bi := range seq {
		if healthy[bi] {
			out = append(out, bi)
		}
	}
	nHealthy := len(out)
	for _, bi := range seq {
		if !healthy[bi] {
			out = append(out, bi)
		}
	}
	if k := r.replicas; k > 1 {
		if k > nHealthy {
			// Never spread onto known-unhealthy nodes: a degraded
			// fleet serves from whoever is left.
			k = nHealthy
		}
		if k > 1 {
			var pick int
			if seed != 0 {
				pick = int(mix64(seed^h) % uint64(k))
			} else {
				pick = int(r.rr.Add(1) % uint64(k))
			}
			rotateLeft(out[:k], pick)
		}
	}
	return out
}

// rotateLeft rotates s left by n (0 <= n < len(s)) in place.
func rotateLeft(s []int, n int) {
	if n == 0 {
		return
	}
	tmp := make([]int, n)
	copy(tmp, s[:n])
	copy(s, s[n:])
	copy(s[len(s)-n:], tmp)
}

// errKind sorts a failed draw attempt by whose fault it is, because
// each answer gets different handling: answers surface (and count
// against the backend), caller cancellations surface (and count
// against nobody), transport failures fail over.
type errKind int

const (
	// errAnswer: the backend understood the request and answered with
	// an error — an *server.APIError or *server.StreamError, including
	// server-side timeouts.
	errAnswer errKind = iota
	// errCaller: the caller's own context expired or was canceled;
	// the fleet did nothing wrong.
	errCaller
	// errTransport: a failure to communicate — connection refused,
	// TLS failures, streams truncated mid-frame, malformed responses,
	// over- and under-delivery. Eligible for failover.
	errTransport
)

// classify maps a draw attempt's error onto its errKind. Order
// matters: an APIError carrying a server-side timeout code unwraps to
// context.DeadlineExceeded too, and it is an answer, not the caller's
// context.
func classify(err error) errKind {
	var apiErr *server.APIError
	var streamErr *server.StreamError
	if errors.As(err, &apiErr) || errors.As(err, &streamErr) {
		return errAnswer
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return errCaller
	}
	return errTransport
}

// noteKey folds one completed draw into the per-key routing table.
func (r *Router) noteKey(key registry.Key, addr string, failovers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kc, ok := r.keys[key]
	if !ok {
		if len(r.keys) >= maxKeyStats {
			r.keysDropped++
			return
		}
		kc = &keyCounter{}
		r.keys[key] = kc
	}
	kc.backend = addr
	kc.draws++
	kc.failovers += uint64(failovers)
}

// BackendStats is one backend's routing counters.
type BackendStats struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Requests uint64 `json:"requests"` // draw attempts routed here
	// Failures counts attempts the backend answered with an error or
	// failed in transport. Caller-side aborts — an fn error, the
	// caller's own context expiring — are not the backend's failure
	// and are not counted, so this number is alertable.
	Failures  uint64 `json:"failures"`
	Failovers uint64 `json:"failovers"` // transport failures that moved a draw onward
}

// KeyStats is one engine key's routing record.
type KeyStats struct {
	Key       registry.Key `json:"key"`
	Backend   string       `json:"backend"` // backend that served the latest draw
	Draws     uint64       `json:"draws"`
	Failovers uint64       `json:"failovers"`
}

// Stats is a snapshot of the router's routing state: per-backend and
// per-key counters (the latter capped at maxKeyStats tracked keys;
// KeysUntracked counts draws for keys beyond the cap).
type Stats struct {
	Backends      []BackendStats `json:"backends"`
	Keys          []KeyStats     `json:"keys"`
	KeysUntracked uint64         `json:"keys_untracked,omitempty"`
}

// Stats snapshots the routing counters. Under concurrent traffic the
// fields are individually, not jointly, consistent.
func (r *Router) Stats() Stats {
	f := r.fleet.Load()
	st := Stats{Backends: make([]BackendStats, 0, len(f.backends))}
	for _, b := range f.backends {
		st.Backends = append(st.Backends, BackendStats{
			Addr:      b.addr,
			Healthy:   b.healthy.Load(),
			Requests:  b.requests.Load(),
			Failures:  b.failures.Load(),
			Failovers: b.failovers.Load(),
		})
	}
	r.mu.Lock()
	st.Keys = make([]KeyStats, 0, len(r.keys))
	for key, kc := range r.keys {
		st.Keys = append(st.Keys, KeyStats{
			Key:       key,
			Backend:   kc.backend,
			Draws:     kc.draws,
			Failovers: kc.failovers,
		})
	}
	st.KeysUntracked = r.keysDropped
	r.mu.Unlock()
	sort.Slice(st.Keys, func(i, j int) bool { return st.Keys[i].Key.String() < st.Keys[j].Key.String() })
	return st
}

// EvictEngine asks every backend (concurrently) to drop the resident
// engine for key. It broadcasts rather than routing: failover may
// have built the engine on any ring successor, and cleanup must find
// it wherever it landed. evicted reports whether any backend dropped
// one; err reports backends that could not be asked — both can be
// set at once, and evicted=true alongside an error means an
// unreachable backend may still hold the engine.
func (r *Router) EvictEngine(ctx context.Context, key registry.Key) (evicted bool, err error) {
	key = normalizeKey(key)
	f := r.fleet.Load()
	dropped := make([]bool, len(f.backends))
	errs := f.broadcast(func(i int, b *backend) error {
		ok, err := b.client.EvictEngine(ctx, key)
		dropped[i] = ok
		return err
	})
	for i := range f.backends {
		evicted = evicted || dropped[i]
		if errs[i] != nil && err == nil {
			err = fmt.Errorf("router: evicting on %s: %w", f.backends[i].addr, errs[i])
		}
	}
	return evicted, err
}

// UpdateResult reports one fleet-wide update: the highest generation
// any backend answered with, and the update ID the batch was
// sequenced at (for an empty probe, the fleet's highest last-applied
// ID).
type UpdateResult struct {
	Generation uint64
	UpdateID   uint64
}

// ApplyUpdate sequences and broadcasts one insert/delete batch for
// key to every backend. It broadcasts rather than routing for the
// same reason eviction does — failover means any ring successor may
// be serving the key, and a shard whose store missed an update would
// serve deleted points after the next failover — plus one more: the
// key's sibling keys (same dataset, different l) live on other
// shards, and a replicated update stream keeps every shard's store
// serving the same point sets (which is also what makes replicated
// reads byte-identical).
//
// The router is the dataset's sequencer: each non-empty batch is
// stamped with the next per-key update ID (seeded from the fleet's
// highest last-applied ID the first time a key is stamped — so a
// restarted router resumes the sequence, never restarts it) and
// backends apply strictly in ID order, parking small reorderings in a
// gap buffer and acknowledging duplicates idempotently. Concurrent
// ApplyUpdates through ONE router therefore commute onto every shard
// in the same order — shards with the same build history stay
// byte-identical replicas under multi-writer traffic. Run one router per dataset's write path; two routers
// stamping the same key independently would fork the sequence.
//
// err reports backends that could not apply. The result's UpdateID
// alongside a non-nil err is the healing handle: re-applying the same
// batch at that explicit ID (ApplyUpdateAt) is idempotent on backends
// that took it and fills the gap on backends that did not. After any
// failed broadcast the sequencer re-probes the fleet before stamping
// again — seeding above both the fleet's high-water mark and any
// stamp still in flight — so an aborted stamp cannot leave a
// permanent hole and cannot re-issue a concurrent in-flight ID.
func (r *Router) ApplyUpdate(ctx context.Context, key registry.Key, u dynamic.Update) (UpdateResult, error) {
	// Updates hold the membership read-fence for their whole flight;
	// see updateMu.
	r.updateMu.RLock()
	defer r.updateMu.RUnlock()
	key = normalizeKey(key)
	f := r.fleet.Load()
	if u.Empty() {
		// A probe consults the fleet without consuming an ID.
		return r.broadcastUpdate(ctx, f, key, u, 0)
	}
	ks := r.lockKeySeq(key)
	if !ks.init {
		last, err := r.probeSeq(ctx, f, key)
		if err != nil {
			ks.mu.Unlock()
			return UpdateResult{}, err
		}
		next := last + 1
		// Never seed below a stamp still in flight: a concurrent
		// update may hold a higher ID than any backend has applied
		// yet, and re-stamping it with different contents would fork
		// the sequence.
		for id := range ks.outstanding {
			if id >= next {
				next = id + 1
			}
		}
		ks.next = next
		ks.init = true
	}
	id := ks.next
	ks.next++
	ks.note(id)
	ks.mu.Unlock()
	// The stamp is taken before the fan-out and the lock is NOT held
	// across it: concurrent updates broadcast in parallel and may
	// arrive at a backend reordered — its gap buffer restores ID
	// order. What the lock guarantees is unique, gapless stamping.
	res, err := r.applyAt(ctx, f, key, id, u)
	ks.mu.Lock()
	ks.done(id)
	if err != nil {
		// Some backends may hold the update, others not; re-probe
		// before the next stamp so the sequence re-converges on what
		// the fleet actually applied. Our own ID is already out of
		// outstanding, so only stamps still genuinely in flight
		// constrain the re-seed.
		ks.init = false
	}
	ks.mu.Unlock()
	return res, err
}

// ApplyUpdateAt broadcasts a batch at an explicit update ID — the
// retry path. A client that got an error carrying a stamped ID (or a
// sequencer of record replaying history) re-applies at the same ID:
// backends that already hold it acknowledge idempotently, backends
// with a gap fill it.
func (r *Router) ApplyUpdateAt(ctx context.Context, key registry.Key, id uint64, u dynamic.Update) (UpdateResult, error) {
	if id == 0 || u.Empty() {
		return r.ApplyUpdate(ctx, key, u)
	}
	r.updateMu.RLock()
	defer r.updateMu.RUnlock()
	key = normalizeKey(key)
	f := r.fleet.Load()
	ks := r.lockKeySeq(key)
	if ks.init && id >= ks.next {
		// Never re-stamp an ID the caller has already used.
		ks.next = id + 1
	}
	// Explicit retries count as in flight too: a failed ApplyUpdate's
	// re-probe must not seed below an ID a caller is actively
	// re-broadcasting.
	ks.note(id)
	ks.mu.Unlock()
	res, err := r.applyAt(ctx, f, key, id, u)
	ks.mu.Lock()
	ks.done(id)
	ks.mu.Unlock()
	return res, err
}

// applyAt broadcasts a stamped batch; the result always carries the
// stamp, even when every backend failed, so callers (and the HTTP
// error body) can hand it back for an idempotent retry.
func (r *Router) applyAt(ctx context.Context, f *fleet, key registry.Key, id uint64, u dynamic.Update) (UpdateResult, error) {
	res, err := r.broadcastUpdate(ctx, f, key, u, id)
	res.UpdateID = id
	return res, err
}

// lockKeySeq returns the key's live sequencer entry with its lock
// held. The loop covers a stamper racing eviction: keySeqFor may
// return an entry evictKeySeqLocked kills before the lock lands, and
// using it would stamp into state no longer reachable from r.seq.
func (r *Router) lockKeySeq(key registry.Key) *keySeq {
	for {
		ks := r.keySeqFor(key)
		ks.mu.Lock()
		if !ks.dead {
			return ks
		}
		ks.mu.Unlock()
	}
}

// keySeqFor returns (creating) the sequencer state of one key,
// evicting the coldest idle entry when the map is at maxKeySeqs.
func (r *Router) keySeqFor(key registry.Key) *keySeq {
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	r.seqClock++
	ks, ok := r.seq[key]
	if ok {
		ks.lastUse = r.seqClock
		return ks
	}
	if len(r.seq) >= maxKeySeqs {
		r.evictKeySeqLocked()
	}
	ks = &keySeq{lastUse: r.seqClock}
	r.seq[key] = ks
	return ks
}

// evictKeySeqLocked drops the coldest evictable sequencer entry.
// Caller holds r.seqMu. An entry is evictable when its lock is free
// (TryLock — a held lock means a stamp is being taken right now) and
// nothing it stamped is still in flight; if no entry qualifies the
// map briefly exceeds the cap rather than blocking the write path.
// The victim is marked dead under its own lock so a stamper that
// fetched it before the delete re-fetches a live entry.
func (r *Router) evictKeySeqLocked() {
	var victimKey registry.Key
	var victim *keySeq
	for key, ks := range r.seq {
		if !ks.mu.TryLock() {
			continue
		}
		if len(ks.outstanding) > 0 {
			ks.mu.Unlock()
			continue
		}
		if victim == nil || ks.lastUse < victim.lastUse {
			if victim != nil {
				victim.mu.Unlock()
			}
			victimKey, victim = key, ks
			continue
		}
		ks.mu.Unlock()
	}
	if victim == nil {
		return
	}
	victim.dead = true
	victim.mu.Unlock()
	delete(r.seq, victimKey)
}

// probeSeq asks every backend for its last applied update ID (an
// empty update is the probe) and returns the fleet maximum. Every
// backend must answer: seeding the counter below an unreachable
// backend's high-water mark could re-stamp an ID it already holds
// with different contents, the one unrecoverable sequencing mistake.
func (r *Router) probeSeq(ctx context.Context, f *fleet, key registry.Key) (uint64, error) {
	res, err := r.broadcastUpdate(ctx, f, key, dynamic.Update{}, 0)
	if err != nil {
		return 0, fmt.Errorf("router: seeding update sequence for %s: %w", key, err)
	}
	return res.UpdateID, nil
}

// broadcastUpdate fans one update (stamped with id when non-zero) out
// to every backend of the snapshot and folds the responses.
func (r *Router) broadcastUpdate(ctx context.Context, f *fleet, key registry.Key, u dynamic.Update, id uint64) (UpdateResult, error) {
	ureq := server.UpdateRequest{
		Dataset:   key.Dataset,
		L:         key.L,
		Algorithm: key.Algorithm,
		Seed:      key.Seed,
		UpdateID:  id,
		InsertR:   u.InsertR,
		InsertS:   u.InsertS,
		DeleteR:   u.DeleteR,
		DeleteS:   u.DeleteS,
	}
	resps := make([]server.UpdateResponse, len(f.backends))
	errs := f.broadcast(func(i int, b *backend) error {
		resp, err := b.client.ApplyUpdate(ctx, ureq)
		resps[i] = resp
		return err
	})
	var res UpdateResult
	var err error
	for i := range f.backends {
		if errs[i] != nil {
			if err == nil {
				err = fmt.Errorf("router: updating on %s: %w", f.backends[i].addr, errs[i])
			}
			continue
		}
		if resps[i].Generation > res.Generation {
			res.Generation = resps[i].Generation
		}
		if resps[i].UpdateID > res.UpdateID {
			res.UpdateID = resps[i].UpdateID
		}
	}
	return res, err
}

// Apply serves the bound key's update path (the srjtest.Updatable
// contract): the batch is sequenced, broadcast to every shard, and
// the new generation comes back.
func (b *Bound) Apply(ctx context.Context, u dynamic.Update) (uint64, error) {
	res, err := b.r.ApplyUpdate(ctx, b.key, u)
	return res.Generation, err
}

// ServerStats fetches /v1/stats from every backend concurrently,
// keyed by address. Unreachable backends are omitted; the first
// error is returned alongside whatever was collected.
func (r *Router) ServerStats(ctx context.Context) (map[string]server.StatsResponse, error) {
	f := r.fleet.Load()
	stats := make([]server.StatsResponse, len(f.backends))
	errs := f.broadcast(func(i int, b *backend) error {
		var err error
		stats[i], err = b.client.Stats(ctx)
		return err
	})
	out := make(map[string]server.StatsResponse, len(f.backends))
	var firstErr error
	for i, b := range f.backends {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("router: stats from %s: %w", b.addr, errs[i])
			}
			continue
		}
		out[b.addr] = stats[i]
	}
	return out, firstErr
}

// Uptime reports how long the router has been up.
func (r *Router) Uptime() time.Duration { return time.Since(r.start) }
