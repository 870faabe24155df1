// Package server exposes the engine registry over HTTP, turning the
// paper's amortization into a network service: one process pays the
// Õ(n + m) preprocessing per (dataset, l, algorithm, seed) key and a
// whole fleet of clients draws Õ(1) expected-time samples from it.
//
// The API surface is small:
//
//	POST   /v1/sample  — draw t samples for a key; JSON or a framed
//	                     binary encoding (see wire.go) streamed in
//	                     Engine.SampleFunc chunks
//	POST   /v1/update  — apply an insert/delete batch to a key's
//	                     dynamic store (JSON or the framed binary
//	                     encoding of update_wire.go) and answer with
//	                     the bumped dataset generation
//	GET    /v1/stats   — registry + per-engine serving counters
//	GET    /v1/engines — the resident engines, most recently used first
//	DELETE /v1/engines — evict one engine by key (tools that insert
//	                     throwaway keys, like srjbench -remote, clean
//	                     up with this)
//	POST   /v1/snapshot/dump    — one dataset's complete store state
//	                              (router state transfer, donor side)
//	POST   /v1/snapshot/install — adopt a transferred store state
//	                              (router state transfer, recipient)
//	GET    /healthz    — liveness; 503 when a store's persister fails
//
// Every request is bounded: t is capped (Config.MaxT, and the
// buffering JSON transport at the lower Config.MaxTJSON), bodies are
// size-limited, sampling runs under a context deadline, and the
// registry caps concurrent engine builds at GOMAXPROCS — adversarial
// requests cannot force unbounded allocation or pin workers forever.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/registry"
)

// ErrBadKey marks registry build errors caused by the request — an
// unknown dataset or algorithm name, an invalid l — as distinct from
// server-side failures. Builders wrap such errors with it so the
// handler can answer 400 instead of 500.
var ErrBadKey = errors.New("server: bad engine key")

// Defaults for optional Config fields.
const (
	DefaultMaxT = 1_000_000
	// DefaultMaxTJSON is the default cap of the JSON transport,
	// which — unlike the streamed binary transport — materializes
	// the whole response (~48 bytes/pair, so ~12 MiB at this cap)
	// before writing it. Bulk transfers belong on the binary
	// transport.
	DefaultMaxTJSON = 1 << 18
	DefaultTimeout  = 30 * time.Second
	// MaxBodyBytes bounds a /v1/sample request body; requests are a
	// few short fields, so 1 MiB is generous.
	MaxBodyBytes = 1 << 20
)

// Config parameterizes a Server.
type Config struct {
	// Registry resolves keys to engines. Required.
	Registry *registry.Registry
	// Stores resolves keys to dynamic stores for POST /v1/update and
	// generation-aware sampling. nil disables updates (POST
	// /v1/update answers 501) and serves every dataset statically.
	Stores *dynamic.Stores
	// InstallStore adopts a transferred store state (POST
	// /v1/snapshot/install): construct a store at the dump's
	// generation and last-applied ID and register it for the key. The
	// host process wires it (srj.NewServer does) because store
	// construction, WAL attachment, and engine eviction live above
	// this package. nil answers 501. Installing state the server
	// already holds at the same or a newer last-applied ID must
	// succeed idempotently.
	InstallStore func(ctx context.Context, dump SnapshotDump) error
	// MaxT caps the samples one request may ask for (default
	// DefaultMaxT). Binary responses stream in constant memory, so
	// this cap is about sampling work, not response size.
	MaxT int
	// MaxTJSON caps t for the buffering JSON transport (default
	// min(DefaultMaxTJSON, MaxT); never above MaxT). It bounds
	// per-request response memory at ~48*MaxTJSON bytes — under
	// concurrent load that multiplies per in-flight request, so keep
	// it small and push bulk traffic to the binary transport.
	MaxTJSON int
	// MaxUpdateOps caps the operations one update request may carry
	// (default DefaultMaxUpdateOps).
	MaxUpdateOps int
	// Timeout bounds one request end to end, engine build included
	// (default DefaultTimeout).
	Timeout time.Duration
	// Logger receives structured request logs: the per-request access
	// log at Info, slow draws at Warn. nil disables logging.
	Logger *slog.Logger
	// SlowDraw, when positive, logs any draw slower than it at Warn
	// with full attribution (request ID, key, generation, acceptance
	// rate). Zero disables slow-draw logging.
	SlowDraw time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints do not belong on an open port.
	EnablePprof bool
}

// Server is the HTTP handler of the serving subsystem. Create with
// New; it is safe for concurrent use.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	start   time.Time
	metrics serverMetrics
}

// New validates cfg, applies defaults, and returns a ready handler.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("server: Config.Registry is required")
	}
	if cfg.MaxT <= 0 {
		cfg.MaxT = DefaultMaxT
	}
	if cfg.MaxTJSON <= 0 {
		cfg.MaxTJSON = DefaultMaxTJSON
	}
	if cfg.MaxTJSON > cfg.MaxT {
		cfg.MaxTJSON = cfg.MaxT
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now(), metrics: newServerMetrics()}
	s.mux.HandleFunc("POST /v1/sample", s.handleSample)
	s.mux.HandleFunc("POST /v1/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/engines", s.handleEngines)
	s.mux.HandleFunc("DELETE /v1/engines", s.handleEvict)
	s.mux.HandleFunc("POST /v1/snapshot/dump", s.handleSnapshotDump)
	s.mux.HandleFunc("POST /v1/snapshot/install", s.handleSnapshotInstall)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", obs.Handler(s.collectMetrics))
	if cfg.EnablePprof {
		obs.MountPprof(s.mux)
	}
	return s, nil
}

// ServeHTTP implements http.Handler: it threads the request ID
// through (accepting a caller-supplied one, minting otherwise, and
// echoing it on the response so clients can attribute errors), counts
// the outcome code, and emits the access log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := obs.EnsureRequestID(r)
	w.Header().Set(obs.RequestIDHeader, id)
	r = r.WithContext(obs.WithRequestID(r.Context(), id))
	rec := &obs.StatusRecorder{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	s.metrics.requests.Inc(outcomeCode(rec))
	if s.cfg.Logger != nil {
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.Status),
			slog.Duration("elapsed", time.Since(start)),
		)
	}
}

// outcomeCode classifies one finished response for srj_requests_total.
// Error paths stamp their exact code into ErrorCodeHeader; anything
// without one is classified by status class. A draw that fails after
// the 200 and first frame are on the wire counts as ok here — the
// mid-stream error frame is the client's signal, not HTTP's.
func outcomeCode(rec *obs.StatusRecorder) string {
	if code := rec.Header().Get(ErrorCodeHeader); code != "" {
		return code
	}
	switch {
	case rec.Status < http.StatusBadRequest:
		return "ok"
	case rec.Status < http.StatusInternalServerError:
		return CodeBadRequest
	default:
		return CodeInternal
	}
}

// MaxT reports the configured per-request sample cap.
func (s *Server) MaxT() int { return s.cfg.MaxT }

// SampleRequest is the body of POST /v1/sample.
type SampleRequest struct {
	// Dataset names the point-set pair to join; the set of valid
	// names is the registry builder's business (srjserver: built-in
	// generators plus -load files).
	Dataset string `json:"dataset"`
	// L is the window half-extent; must be positive and finite.
	L float64 `json:"l"`
	// Algorithm selects the sampler; empty means "bbst".
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives the engine's request streams. Requests with equal
	// keys share one engine, so equal seeds do NOT replay samples —
	// the seed selects an engine, and its stream advances per request.
	Seed uint64 `json:"seed,omitempty"`
	// DrawSeed, when nonzero, is the per-request stream seed: the
	// request draws from a stream seeded with it, so equal
	// (key, draw_seed) requests return identical samples regardless
	// of interleaved traffic. Zero keeps the engine's own advancing
	// sequence. Honored by both the JSON and the framed binary
	// transport.
	DrawSeed uint64 `json:"draw_seed,omitempty"`
	// T is the number of samples to draw; 0 < T <= the server's MaxT.
	T int `json:"t"`
	// Format selects the response encoding: "json" (default) or
	// "binary" (the framed stream of wire.go). An Accept header of
	// ContentTypeBinary also selects binary.
	Format string `json:"format,omitempty"`
}

// DefaultAlgorithm is the fleet-wide default algorithm name an empty
// Algorithm field resolves to — the single definition every tier's
// key normalization shares (SampleRequest.Key, UpdateRequest.Key,
// the router's ring, srj.Server.Apply), so the sample and update
// paths can never address different keys for the same request.
const DefaultAlgorithm = "bbst"

// NormalizeAlgorithm applies the fleet-wide default algorithm name.
func NormalizeAlgorithm(a string) string {
	if a == "" {
		return DefaultAlgorithm
	}
	return a
}

// Key returns the registry key the request addresses.
func (q SampleRequest) Key() registry.Key {
	return registry.Key{Dataset: q.Dataset, L: q.L, Algorithm: NormalizeAlgorithm(q.Algorithm), Seed: q.Seed}
}

// SampleResponse is the JSON body of a successful /v1/sample.
type SampleResponse struct {
	Count int         `json:"count"`
	Pairs []geom.Pair `json:"pairs"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSecs float64              `json:"uptime_secs"`
	MaxT       int                  `json:"max_t"`
	Registry   registry.Stats       `json:"registry"`
	Engines    []registry.EntryInfo `json:"engines"`
	// Stores lists the live dynamic stores (generation, rebuild and
	// in-place op counts per key) so the JSON surface and /metrics
	// never disagree. Empty on a purely static server.
	Stores []dynamic.StoreInfo `json:"stores,omitempty"`
}

// Machine-readable error codes carried in every non-2xx answer, so
// clients can branch on error kinds without parsing messages. The Go
// client maps them back onto the canonical sentinel errors (see
// APIError.Unwrap): the same errors.Is checks work against a local
// Engine and a remote server.
const (
	CodeBadRequest    = "bad_request"    // malformed request (engine.ErrBadRequest)
	CodeBadKey        = "bad_key"        // the key names nothing buildable (ErrBadKey)
	CodeSampleCap     = "sample_cap"     // t exceeds a configured cap (engine.ErrSampleCap)
	CodeEmptyJoin     = "empty_join"     // provably empty join (core.ErrEmptyJoin)
	CodeLowAcceptance = "low_acceptance" // rejection budget exhausted (core.ErrLowAcceptance)
	// CodeStaleGeneration reports a dataset generation that raced
	// past the request mid-flight (dynamic.ErrStaleGeneration). The
	// server retries internally; a client that still sees it can
	// simply retry — the condition is transient by construction.
	CodeStaleGeneration = "stale_generation"
	// CodeUpdateSequence reports an update ID the store could not
	// apply in order (dynamic.ErrUpdateSequence): too far ahead of the
	// last applied ID, or a gap whose predecessor never arrived. The
	// stamping sequencer (the router) re-probes the fleet and retries.
	CodeUpdateSequence = "update_sequence"
	CodeTimeout        = "timeout"  // request deadline exceeded
	CodeCanceled       = "canceled" // request context canceled
	CodeInternal       = "internal" // anything else
)

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// ErrorCodeHeader carries the machine-readable error code of a
// non-2xx answer as a response header, duplicating the body's code
// field. It exists for the serving tiers themselves: the outcome
// counter behind srj_requests_total reads it after the handler ran,
// without re-parsing the body it just wrote.
const ErrorCodeHeader = "X-SRJ-Error-Code"

// WriteError answers with a JSON error body carrying apiCode. It is
// exported (with StatusFor and CodeFor) so alternative serving fronts
// — the shard router's proxy — answer errors in the exact shape this
// server does, and one client understands every tier.
func WriteError(w http.ResponseWriter, status int, apiCode string, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ErrorCodeHeader, apiCode)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...), Code: apiCode})
}

// StatusFor maps an error to the HTTP status that describes it.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadKey), errors.Is(err, registry.ErrInvalidKey),
		errors.Is(err, engine.ErrSampleCap), errors.Is(err, engine.ErrBadRequest),
		errors.Is(err, core.ErrNoParallelWithoutReplacement):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrEmptyJoin):
		// The key is well-formed but the join it names has no pairs
		// to sample: the request cannot be processed.
		return http.StatusUnprocessableEntity
	case errors.Is(err, dynamic.ErrStaleGeneration):
		// The dataset generation moved mid-request; the state the
		// client addressed conflicts with the store's. Retryable.
		return http.StatusConflict
	case errors.Is(err, dynamic.ErrUpdateSequence):
		// The update's ID conflicts with the store's sequence state.
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the code is for the access log only.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// codeSentinels is the single source of truth tying wire-level error
// codes to the canonical sentinel errors: CodeFor and sentinelFor are
// both derived from it, so the two directions cannot drift apart.
// Order matters twice over — CodeFor takes the first sentinel the
// error Is, and sentinelFor takes the first row carrying the code
// (the canonical sentinel of a code with several rows goes first).
var codeSentinels = []struct {
	code     string
	sentinel error
}{
	{CodeSampleCap, engine.ErrSampleCap},
	{CodeBadRequest, engine.ErrBadRequest},
	// A parallel-draw request without replacement is a client mistake
	// (the combination is unsupported by contract, see
	// core.ErrNoParallelWithoutReplacement); no serving path draws in
	// parallel today, but the mapping is declared so the sentinel
	// cannot silently decay to "internal" if one ever does.
	{CodeBadRequest, core.ErrNoParallelWithoutReplacement},
	{CodeBadKey, ErrBadKey},
	{CodeBadKey, registry.ErrInvalidKey},
	{CodeEmptyJoin, core.ErrEmptyJoin},
	{CodeLowAcceptance, core.ErrLowAcceptance},
	{CodeStaleGeneration, dynamic.ErrStaleGeneration},
	{CodeUpdateSequence, dynamic.ErrUpdateSequence},
	{CodeTimeout, context.DeadlineExceeded},
	{CodeCanceled, context.Canceled},
}

// CodeFor maps an error to its wire-level error code.
func CodeFor(err error) string {
	for _, cs := range codeSentinels {
		if errors.Is(err, cs.sentinel) {
			return cs.code
		}
	}
	return CodeInternal
}

// sentinelFor inverts CodeFor: the canonical sentinel a wire-level
// error code names, or nil for unknown/internal codes. Shared by
// APIError (pre-stream HTTP errors) and StreamError (mid-stream
// error frames).
func sentinelFor(code string) error {
	for _, cs := range codeSentinels {
		if cs.code == code {
			return cs.sentinel
		}
	}
	return nil
}

// DecodeSampleRequest decodes and validates a POST /v1/sample body —
// the one validation srjserver's handler and the router proxy both
// apply, kept as a single function so the tiers cannot drift apart.
// maxT <= 0 skips the sample cap (the router defers capping to its
// backends); maxTJSON caps the buffering JSON transport. On failure
// the error response (status, code, message) is already written and
// ok is false.
func DecodeSampleRequest(w http.ResponseWriter, r *http.Request, maxT, maxTJSON int) (req SampleRequest, binaryOut, ok bool) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return req, false, false
	}
	if req.Dataset == "" {
		WriteError(w, http.StatusBadRequest, CodeBadKey, "dataset is required")
		return req, false, false
	}
	// Non-positive t is the client's mistake whatever the transport:
	// both formats answer 400 here, before any engine is resolved.
	if req.T <= 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "t must be positive, got %d", req.T)
		return req, false, false
	}
	if maxT > 0 && req.T > maxT {
		WriteError(w, http.StatusBadRequest, CodeSampleCap, "t=%d exceeds the server cap %d", req.T, maxT)
		return req, false, false
	}
	// An explicit body format wins; the Accept header is only a
	// fallback for clients that leave the field empty.
	if req.Format != "" && req.Format != "json" && req.Format != "binary" {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "unknown format %q (json or binary)", req.Format)
		return req, false, false
	}
	binaryOut = req.Format == "binary" ||
		(req.Format == "" && r.Header.Get("Accept") == ContentTypeBinary)
	if !binaryOut && req.T > maxTJSON {
		WriteError(w, http.StatusBadRequest, CodeSampleCap,
			"t=%d exceeds the JSON transport cap %d; use format \"binary\" for bulk transfers",
			req.T, maxTJSON)
		return req, false, false
	}
	return req, binaryOut, true
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	req, binaryOut, ok := DecodeSampleRequest(w, r, s.cfg.MaxT, s.cfg.MaxTJSON)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	key, eng, err := s.resolveEngine(ctx, req)
	if err != nil {
		WriteError(w, StatusFor(err), CodeFor(err), "building engine %s: %v", req.Key(), err)
		return
	}
	dreq := engine.Request{T: req.T, Seed: req.DrawSeed}
	start := time.Now()
	var samples int
	if binaryOut {
		samples, err = s.streamBinary(ctx, w, eng, dreq)
	} else {
		samples, err = s.respondJSON(ctx, w, eng, dreq)
	}
	elapsed := time.Since(start)
	// One histogram observation per request, after the draw — never
	// inside the sampler's rejection loop. The algorithm label comes
	// from the resolved key, whose algorithm set is bounded.
	s.metrics.drawHist.Observe(key.Algorithm, elapsed.Seconds())
	s.metrics.drawSamples.Add(key.Algorithm, uint64(samples))
	if s.cfg.Logger != nil && s.cfg.SlowDraw > 0 && elapsed >= s.cfg.SlowDraw {
		attrs := []slog.Attr{
			slog.String("request_id", obs.RequestIDFrom(r.Context())),
			slog.String("dataset", req.Dataset),
			slog.String("algorithm", key.Algorithm),
			slog.Uint64("generation", key.Generation),
			slog.Int("t", req.T),
			slog.Int("samples", samples),
			slog.Duration("elapsed", elapsed),
			slog.Float64("acceptance_rate", eng.Stats().AcceptanceRate()),
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow draw", attrs...)
	}
}

// respondJSON draws all requested samples (bounded by MaxTJSON), then
// encodes one JSON body. Drawing goes through the engine's
// context-aware DrawFunc, so the deadline is honored between chunks;
// the response write gets its own deadline so a client that stops
// reading cannot pin the handler.
func (s *Server) respondJSON(ctx context.Context, w http.ResponseWriter, eng *engine.Engine, req engine.Request) (int, error) {
	pairs := make([]geom.Pair, 0, req.T)
	err := eng.DrawFunc(ctx, req, func(batch []geom.Pair) error {
		pairs = append(pairs, batch...)
		return nil
	})
	if err != nil {
		WriteError(w, StatusFor(err), CodeFor(err), "sampling: %v", err)
		return len(pairs), err
	}
	w.Header().Set("Content-Type", "application/json")
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
	json.NewEncoder(w).Encode(SampleResponse{Count: len(pairs), Pairs: pairs})
	return len(pairs), nil
}

// streamBinary streams the requested samples as framed chunks,
// flushing per chunk, in constant memory. Errors after the first
// chunk arrive as an in-stream error frame (the 200 status is already
// on the wire). The engine's DrawFunc checks ctx between batches, and
// each frame write gets a fresh deadline: a client making progress
// can stream forever, but one that stops reading blocks our Write,
// trips the deadline, and frees the handler and its sampler clone —
// the between-batch ctx check alone never fires while Write is stuck.
func (s *Server) streamBinary(ctx context.Context, w http.ResponseWriter, eng *engine.Engine, req engine.Request) (int, error) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
	if err := WriteStreamHeader(w); err != nil {
		return 0, err
	}
	flusher, _ := w.(http.Flusher)
	var scratch []byte
	delivered := 0
	err := eng.DrawFunc(ctx, req, func(batch []geom.Pair) error {
		rc.SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
		var werr error
		scratch, werr = WriteStreamFrame(w, batch, scratch)
		if werr != nil {
			return werr
		}
		delivered += len(batch)
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		WriteStreamError(w, CodeFor(err), err.Error())
		return delivered, err
	}
	WriteStreamEnd(w)
	return delivered, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSecs: time.Since(s.start).Seconds(),
		MaxT:       s.cfg.MaxT,
		Registry:   s.cfg.Registry.Stats(),
		Engines:    s.cfg.Registry.Entries(),
	}
	if s.cfg.Stores != nil {
		resp.Stores = s.cfg.Stores.Infos()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cfg.Registry.Entries())
}

// EvictResponse is the body of DELETE /v1/engines.
type EvictResponse struct {
	Evicted bool `json:"evicted"` // false when no engine was resident
}

// handleEvict drops one key's resident engines — every generation of
// it, so a mutated dataset's history of view engines goes with the
// static entry. The body is a registry key: {"dataset":..., "l":...,
// "algorithm":..., "seed":...}; the default algorithm rule of
// SampleRequest applies.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeEvictRequest(w, r)
	if !ok {
		return
	}
	// Generation MaxUint64 matches every real generation, the plain
	// gen-0 static entry included — one call evicts the key's whole
	// history.
	all := req.Key()
	all.Generation = ^uint64(0)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(EvictResponse{Evicted: s.cfg.Registry.EvictOlder(all) > 0})
}

// DecodeEvictRequest decodes and validates a DELETE /v1/engines body
// — shared with the router proxy, like DecodeSampleRequest, so the
// tiers answer identically. On failure the error response is already
// written and ok is false.
func DecodeEvictRequest(w http.ResponseWriter, r *http.Request) (req SampleRequest, ok bool) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return req, false
	}
	if req.Dataset == "" {
		WriteError(w, http.StatusBadRequest, CodeBadKey, "dataset is required")
		return req, false
	}
	return req, true
}

// handleHealthz is liveness plus one degradation check: a store whose
// persister is failing (disk full, permissions) still serves reads
// from memory, but it can no longer bound its recovery time — so the
// health answer flips to 503 and the router's prober takes the shard
// out of the healthy read set instead of letting it degrade silently.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Stores != nil {
		if key, err := s.cfg.Stores.FirstPersistErr(); err != nil {
			WriteError(w, http.StatusServiceUnavailable, CodeInternal,
				"degraded: store %s cannot persist: %v", key, err)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
