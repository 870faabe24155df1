package router

// The router's HTTP surface: the same sampling API internal/server
// speaks, proxied shard-side. srjrouter mounts this so existing
// clients — srj.NewClient, curl, anything speaking the wire
// protocol — point at one address and get the whole fleet:
// requests route to the key's shard, failover included, and every
// endpoint answers in the exact shapes srjserver does (same status
// codes, same error codes, same JSON bodies). For POST /v1/sample
// that holds by construction: both tiers answer through one writer
// (server.RespondSample) behind one middleware (server.Instrument), so
// a draw that fails before its first sample gets the same status and
// code from either, and counts under that code on both. Routing-
// specific telemetry lives on its own path, /v1/router, so the shared
// paths stay byte-compatible.

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
)

// writeDeadline bounds one response write so a client that stops
// reading frees the handler (mirrors the server's per-frame
// deadlines).
const writeDeadline = 30 * time.Second

// Handler returns the router's HTTP API — srjserver's surface,
// fleet-wide:
//
//	POST   /v1/sample  — routed draw; JSON or the framed binary
//	                     stream, wire-compatible with srjserver
//	POST   /v1/update  — broadcast insert/delete batch (JSON or the
//	                     framed binary encoding); answers with the
//	                     fleet's new dataset generation
//	GET    /v1/stats   — aggregate fleet stats in srjserver's
//	                     StatsResponse shape (registry counters
//	                     summed, engines concatenated)
//	GET    /v1/engines — every backend's resident engines
//	DELETE /v1/engines — broadcast eviction of one key
//	GET    /v1/router  — routing stats (Stats: per-backend health
//	                     and counters, per-key assignments)
//	POST   /v1/router/backends — admin: add a backend to the live
//	                     ring (health-probe + state transfer first)
//	DELETE /v1/router/backends — admin: remove a backend (drain,
//	                     evict its engines, pre-warm moved keys)
//	GET    /healthz    — 200 while at least one backend is healthy
//
// Sample caps and dataset validation live on the backends; their
// refusals proxy through unchanged (same status, same error code).
// The one router-side bound is the JSON transport cap
// (server.DefaultMaxTJSON): the proxy buffers JSON responses in its
// own memory, so that bound is the router's, not the backends' —
// bulk transfers belong on the streamed binary transport either way.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", r.handleSample)
	mux.HandleFunc("POST /v1/update", r.handleUpdate)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /v1/engines", r.handleEngines)
	mux.HandleFunc("DELETE /v1/engines", r.handleEvict)
	mux.HandleFunc("GET /v1/router", r.handleRouterStats)
	mux.HandleFunc("POST /v1/router/backends", r.handleAddBackend)
	mux.HandleFunc("DELETE /v1/router/backends", r.handleRemoveBackend)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(r.collectMetrics))
	if r.pprof {
		obs.MountPprof(mux)
	}
	// srjserver's middleware. Minting the request ID here makes the
	// router the origin of the ID a whole proxied draw shares.
	return server.Instrument(mux, r.requests, r.logger)
}

// handleSample routes one draw to the key's shard and answers it
// through srjserver's own writer (server.RespondSample), so both
// transports answer in srjserver's shapes: a refusal or failure before
// the first sample — a backend's ErrSampleCap, a bad key, a sampler
// giving up, a shard that died before delivering and exhausted
// failover — with its pre-stream HTTP status, a later one as an error
// frame. Mid-stream failover happens underneath, invisibly, so the
// client only ever sees one contiguous stream.
func (r *Router) handleSample(w http.ResponseWriter, req *http.Request) {
	sreq, binaryOut, ok := server.DecodeSampleRequest(w, req, 0, server.DefaultMaxTJSON)
	if !ok {
		return
	}
	server.RespondSample(req.Context(), w, r.Bind(sreq.Key()),
		engine.Request{T: sreq.T, Seed: sreq.DrawSeed}, binaryOut, writeDeadline)
}

// handleUpdate sequences and broadcasts one mutation batch across the
// fleet — the body and response are exactly srjserver's POST
// /v1/update, with the stamped update ID in the response. A request
// already carrying an update ID (the UpdateIDHeader) is a retry: it
// re-broadcasts at that exact ID instead of stamping a fresh one. A
// partial broadcast is an error: unlike eviction, an update a shard
// missed leaves that shard serving deleted points, so the client must
// know — and the echoed update ID is what makes its retry idempotent.
func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	ureq, ok := server.DecodeUpdateRequest(w, req, 0)
	if !ok {
		return
	}
	res, err := r.ApplyUpdateAt(req.Context(), ureq.Key(), ureq.UpdateID, ureq.Ops())
	if err != nil {
		var apiErr *server.APIError
		if errors.As(err, &apiErr) {
			// A backend understood the update and refused it — relay
			// its answer unchanged, like the sampling proxy does.
			server.WriteError(w, apiErr.Status, apiErr.Code, "%s", apiErr.Message)
			return
		}
		server.WriteError(w, http.StatusBadGateway, server.CodeInternal,
			"updating %s (fleet at generation %d, update %d): %v", ureq.Key(), res.Generation, res.UpdateID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(server.UpdateResponse{
		Generation: res.Generation,
		Ops:        ureq.Ops().Ops(),
		UpdateID:   res.UpdateID,
	})
}

// handleStats aggregates the fleet into srjserver's StatsResponse
// shape: registry counters summed, resident engines concatenated,
// MaxT the smallest cap any reachable backend enforces. A client
// that watched one srjserver watches the whole fleet unchanged.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	stats, err := r.ServerStats(req.Context())
	if len(stats) == 0 {
		server.WriteError(w, http.StatusBadGateway, server.CodeInternal,
			"no backend reachable for stats: %v", err)
		return
	}
	agg := server.StatsResponse{UptimeSecs: r.Uptime().Seconds()}
	for addr, st := range stats {
		if agg.MaxT == 0 || (st.MaxT > 0 && st.MaxT < agg.MaxT) {
			agg.MaxT = st.MaxT
		}
		agg.Registry.Hits += st.Registry.Hits
		agg.Registry.Misses += st.Registry.Misses
		agg.Registry.Builds += st.Registry.Builds
		agg.Registry.Evictions += st.Registry.Evictions
		agg.Registry.ManualEvictions += st.Registry.ManualEvictions
		agg.Registry.Entries += st.Registry.Entries
		agg.Registry.Bytes += st.Registry.Bytes
		agg.Registry.Budget += st.Registry.Budget
		agg.Registry.BuildLatency = agg.Registry.BuildLatency.Merge(st.Registry.BuildLatency)
		agg.Engines = append(agg.Engines, st.Engines...)
		for _, info := range st.Stores {
			info.Backend = addr
			agg.Stores = append(agg.Stores, info)
		}
	}
	sort.Slice(agg.Stores, func(i, j int) bool {
		a, b := agg.Stores[i], agg.Stores[j]
		if a.Key != b.Key {
			return a.Key.String() < b.Key.String()
		}
		return a.Backend < b.Backend
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(agg)
}

// handleEngines concatenates every backend's resident engines —
// /v1/engines fleet-wide. Unreachable backends contribute nothing.
func (r *Router) handleEngines(w http.ResponseWriter, req *http.Request) {
	stats, err := r.ServerStats(req.Context())
	if len(stats) == 0 {
		server.WriteError(w, http.StatusBadGateway, server.CodeInternal,
			"no backend reachable for engines: %v", err)
		return
	}
	engines := make([]registry.EntryInfo, 0, len(stats))
	for _, st := range stats {
		engines = append(engines, st.Engines...)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(engines)
}

// handleEvict broadcasts one key's eviction across the fleet — the
// body and response are exactly srjserver's DELETE /v1/engines. A
// partial broadcast (some backend unreachable) with at least one
// eviction still answers evicted=true: the wire shape has no partial
// state, and the backends that answered are clean.
func (r *Router) handleEvict(w http.ResponseWriter, req *http.Request) {
	sreq, ok := server.DecodeEvictRequest(w, req)
	if !ok {
		return
	}
	evicted, err := r.EvictEngine(req.Context(), sreq.Key())
	if err != nil && !evicted {
		server.WriteError(w, http.StatusBadGateway, server.CodeInternal, "evicting %s: %v", sreq.Key(), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(server.EvictResponse{Evicted: evicted})
}

// handleRouterStats serves the routing-specific telemetry.
func (r *Router) handleRouterStats(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.Stats())
}

// handleAddBackend grows the fleet: the JSON body names one backend
// base URL, AddBackend does the probe + state transfer + ring swap,
// and the response lists the resulting membership. Membership
// refusals (already a member, an empty address) are 400s; a fleet
// that cannot complete the transfer is a 502.
func (r *Router) handleAddBackend(w http.ResponseWriter, req *http.Request) {
	breq, ok := decodeBackendRequest(w, req)
	if !ok {
		return
	}
	if err := r.AddBackend(req.Context(), breq.Backend); err != nil {
		writeMembershipError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(server.BackendsResponse{Backends: r.Backends()})
}

// handleRemoveBackend shrinks the fleet; same shapes as
// handleAddBackend. Removal's drain/evict/pre-warm steps are
// best-effort against an already-dead server, so removing a crashed
// backend succeeds.
func (r *Router) handleRemoveBackend(w http.ResponseWriter, req *http.Request) {
	breq, ok := decodeBackendRequest(w, req)
	if !ok {
		return
	}
	if err := r.RemoveBackend(req.Context(), breq.Backend); err != nil {
		writeMembershipError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(server.BackendsResponse{Backends: r.Backends()})
}

// decodeBackendRequest decodes the admin endpoints' one-field body.
func decodeBackendRequest(w http.ResponseWriter, req *http.Request) (server.BackendRequest, bool) {
	var breq server.BackendRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, server.MaxBodyBytes)).Decode(&breq); err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, "decoding request: %v", err)
		return breq, false
	}
	if strings.TrimSpace(breq.Backend) == "" {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, "backend address is required")
		return breq, false
	}
	return breq, true
}

// writeMembershipError sorts a membership failure into caller error
// (the request named an address the fleet cannot accept) vs fleet
// error (probe or state transfer failed).
func writeMembershipError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrAlreadyMember) || errors.Is(err, ErrNotMember) || errors.Is(err, ErrLastBackend) {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, "%v", err)
		return
	}
	server.WriteError(w, http.StatusBadGateway, server.CodeInternal, "%v", err)
}

// handleHealthz answers from the health flags the background prober
// and request outcomes maintain — a load balancer polling /healthz
// every second must not multiply probe traffic onto the fleet, and a
// single slow probe must not flap a backend's keys onto its ring
// successor. Callers needing a live fleet check use Health/ProbeNow.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	f := r.fleet.Load()
	healthy := 0
	for _, b := range f.backends {
		if b.healthy.Load() {
			healthy++
		}
	}
	if healthy == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeInternal,
			"none of the %d backends is healthy", len(f.backends))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}
