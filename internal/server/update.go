package server

// POST /v1/update: the mutation half of the serving API. A request
// addresses one engine key (dataset, l, algorithm, seed — the same
// spelling as /v1/sample) and carries batches of point inserts and
// ID deletes per side. The server routes it to the key's dynamic
// store (created on first update from the same dataset resolver the
// static engines use; BBST keys only), which applies the batch in
// place and bumps the dataset generation; the handler then evicts the
// registry engines the bump just made stale and answers with the new
// generation.
//
// Two request encodings are accepted, mirroring /v1/sample's two
// response transports: JSON (self-describing, for small batches and
// non-Go clients) and a framed binary encoding (ContentTypeUpdate,
// see update_wire.go) that carries bulk inserts at 20 bytes per
// point instead of ~50 bytes of JSON.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/registry"
)

// DefaultMaxUpdateOps caps the operations one update request may
// carry. At 20 bytes per inserted point this bounds the decoded
// request at ~20 MiB.
const DefaultMaxUpdateOps = 1 << 20

// MaxUpdateBodyBytes bounds a /v1/update request body. Binary insert
// batches are 20 bytes per point, so this comfortably fits
// DefaultMaxUpdateOps operations with framing overhead.
const MaxUpdateBodyBytes = 64 << 20

// UpdateRequest is the body of POST /v1/update: the engine key the
// update addresses plus the operation batches. The key fields follow
// SampleRequest exactly (empty Algorithm means "bbst"); the ops
// fields mirror dynamic.Update.
type UpdateRequest struct {
	Dataset   string  `json:"dataset"`
	L         float64 `json:"l"`
	Algorithm string  `json:"algorithm,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`

	// UpdateID sequences the update fleet-wide (dynamic.Store.ApplyAt
	// semantics: 0 self-stamps; otherwise apply strictly in ID order,
	// duplicates acknowledged idempotently). The router stamps it; on
	// the wire it travels in the UpdateIDHeader so the binary body
	// needs no version bump. An empty update probes the sequence.
	UpdateID uint64 `json:"update_id,omitempty"`

	InsertR []geom.Point `json:"insert_r,omitempty"`
	InsertS []geom.Point `json:"insert_s,omitempty"`
	DeleteR []int32      `json:"delete_r,omitempty"`
	DeleteS []int32      `json:"delete_s,omitempty"`

	// Format selects the client-side request encoding: "json"
	// (default) or "binary" (the framed encoding of update_wire.go).
	// Server-side the Content-Type decides; this field never travels.
	Format string `json:"-"`
}

// Key returns the registry key the update addresses (generation
// zero: the store owns the generation).
func (q UpdateRequest) Key() registry.Key {
	return registry.Key{Dataset: q.Dataset, L: q.L, Algorithm: NormalizeAlgorithm(q.Algorithm), Seed: q.Seed}
}

// Ops extracts the mutation batch.
func (q UpdateRequest) Ops() dynamic.Update {
	return dynamic.Update{
		InsertR: q.InsertR,
		InsertS: q.InsertS,
		DeleteR: q.DeleteR,
		DeleteS: q.DeleteS,
	}
}

// UpdateResponse is the body of a successful POST /v1/update.
type UpdateResponse struct {
	// Generation is the dataset generation after the update — the
	// value sampling requests will be served at. Subsequent equal
	// responses mean the update was empty (a generation probe).
	Generation uint64 `json:"generation"`
	// Ops echoes the number of operations applied.
	Ops int `json:"ops"`
	// UpdateID is the sequence ID the update applied at (self-stamped
	// when the request carried none). For an empty update it reports
	// the store's last applied ID — the sequence probe the router
	// seeds its counter from.
	UpdateID uint64 `json:"update_id,omitempty"`
	// Duplicate reports the ID was already applied; Generation is the
	// current generation and nothing was re-applied.
	Duplicate bool `json:"duplicate,omitempty"`
}

// UpdateIDHeader carries UpdateRequest.UpdateID on POST /v1/update.
// A header (rather than a body field) so the fuzz-pinned binary
// update encoding keeps its version: the ID is transport sequencing
// metadata, not part of the batch.
const UpdateIDHeader = "X-SRJ-Update-ID"

// DecodeUpdateRequest decodes and validates a POST /v1/update body in
// either encoding — shared with the router proxy like
// DecodeSampleRequest, so the tiers answer identically. On failure
// the error response is already written and ok is false.
func DecodeUpdateRequest(w http.ResponseWriter, r *http.Request, maxOps int) (req UpdateRequest, ok bool) {
	if maxOps <= 0 {
		maxOps = DefaultMaxUpdateOps
	}
	body := http.MaxBytesReader(w, r.Body, MaxUpdateBodyBytes)
	var err error
	if r.Header.Get("Content-Type") == ContentTypeUpdate {
		req, err = DecodeUpdateBody(body, maxOps)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad update body: %v", err)
			return req, false
		}
	} else {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad update body: %v", err)
			return req, false
		}
	}
	if h := r.Header.Get(UpdateIDHeader); h != "" {
		id, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad %s header: %v", UpdateIDHeader, err)
			return req, false
		}
		req.UpdateID = id
	}
	if req.Dataset == "" {
		WriteError(w, http.StatusBadRequest, CodeBadKey, "dataset is required")
		return req, false
	}
	if n := req.Ops().Ops(); n > maxOps {
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			"update carries %d operations, cap is %d; split the batch", n, maxOps)
		return req, false
	}
	if err := req.Ops().Validate(); err != nil {
		WriteError(w, StatusFor(err), CodeFor(err), "bad update: %v", err)
		return req, false
	}
	return req, true
}

// handleUpdate applies one mutation batch and answers with the new
// generation. Engines cached for older generations of the key are
// evicted — on this server; the router broadcasts the update so every
// shard does the same.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Stores == nil {
		WriteError(w, http.StatusNotImplemented, CodeBadRequest,
			"dynamic updates are not enabled on this server")
		return
	}
	req, ok := DecodeUpdateRequest(w, r, s.cfg.MaxUpdateOps)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	res, err := s.cfg.Stores.ApplyAt(ctx, req.Key(), req.UpdateID, req.Ops())
	if err != nil {
		WriteError(w, StatusFor(err), CodeFor(err), "updating %s: %v", req.Key(), err)
		return
	}
	// The bump just made every older generation's cached engine
	// stale; drop them now rather than letting them age out.
	key := req.Key()
	key.Generation = res.Generation
	s.cfg.Registry.EvictOlder(key)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(UpdateResponse{
		Generation: res.Generation,
		Ops:        req.Ops().Ops(),
		UpdateID:   res.UpdateID,
		Duplicate:  res.Duplicate,
	})
}

// resolveEngine resolves a sample request to a serving engine. Static
// datasets go straight to the registry at generation 0. A dataset
// with a store is served at the store's current generation: the
// generation-tagged key either hits a cached engine of that exact
// generation or builds (cheaply — the store already holds the view
// engine), so a request can never be served deleted points by a
// stale cache entry. A generation racing past us mid-lookup surfaces
// as ErrStaleGeneration, which is retried with the fresh generation;
// under pathological update pressure the store's current view serves
// directly, uncached.
func (s *Server) resolveEngine(ctx context.Context, req SampleRequest) (registry.Key, *engine.Engine, error) {
	key := req.Key()
	var st *dynamic.Store
	if s.cfg.Stores != nil {
		st, _ = s.cfg.Stores.Lookup(key)
	}
	if st == nil {
		eng, err := s.cfg.Registry.Get(ctx, key)
		return key, eng, err
	}
	for attempt := 0; attempt < 4; attempt++ {
		key.Generation = st.Generation()
		eng, err := s.cfg.Registry.Get(ctx, key)
		if err == nil || !errors.Is(err, dynamic.ErrStaleGeneration) {
			return key, eng, err
		}
	}
	gen, eng, err := st.ViewEngine()
	if err != nil {
		return key, nil, fmt.Errorf("store %s: %w", key, err)
	}
	key.Generation = gen
	return key, eng, nil
}
