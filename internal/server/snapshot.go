package server

// State transfer for live ring membership: when the router adds a
// backend at runtime, it dumps each dataset's current store state
// from an existing member (POST /v1/snapshot/dump) and installs it on
// the newcomer (POST /v1/snapshot/install) before the ring includes
// it for reads. The dump carries the generation and last-applied
// update ID alongside the live point sets, so the installed store
// resumes the router's per-key update sequence exactly where the
// donor left it — subsequent stamped broadcasts apply gap-free.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/dynamic"
	"repro/internal/registry"
)

// SnapshotDump is one dataset's complete dynamic-store state: the
// body of a /v1/snapshot/dump response and a /v1/snapshot/install
// request. The embedded state's generation and last-applied update ID
// seat the installed store in the dataset's version history and the
// router's update sequence; its R and S are the live point sets at
// that generation.
type SnapshotDump struct {
	Dataset   string  `json:"dataset"`
	L         float64 `json:"l"`
	Algorithm string  `json:"algorithm,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	dynamic.Snapshot
}

// Key returns the registry key the dump addresses.
func (d SnapshotDump) Key() registry.Key {
	return registry.Key{Dataset: d.Dataset, L: d.L, Algorithm: NormalizeAlgorithm(d.Algorithm), Seed: d.Seed}
}

// SnapshotInstallResponse is the body of a successful install.
type SnapshotInstallResponse struct {
	Generation    uint64 `json:"generation"`
	LastAppliedID uint64 `json:"last_applied_update_id"`
}

// BackendRequest is the body of the router's POST/DELETE
// /v1/router/backends admin endpoint.
type BackendRequest struct {
	Backend string `json:"backend"`
}

// BackendsResponse answers a membership change with the resulting
// fleet.
type BackendsResponse struct {
	Backends []string `json:"backends"`
}

// handleSnapshotDump answers with the named dataset's complete store
// state. Only keys with a live dynamic store dump — a key served
// statically has no update sequence to transfer.
func (s *Server) handleSnapshotDump(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Stores == nil {
		WriteError(w, http.StatusNotImplemented, CodeBadRequest, "dynamic updates are disabled on this server")
		return
	}
	req, ok := DecodeEvictRequest(w, r)
	if !ok {
		return
	}
	st, ok := s.cfg.Stores.Lookup(req.Key())
	if !ok {
		WriteError(w, http.StatusNotFound, CodeBadKey, "no dynamic store for %s", req.Key())
		return
	}
	key := req.Key()
	w.Header().Set("Content-Type", "application/json")
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.cfg.Timeout))
	json.NewEncoder(w).Encode(SnapshotDump{
		Dataset:   key.Dataset,
		L:         key.L,
		Algorithm: key.Algorithm,
		Seed:      key.Seed,
		Snapshot:  st.Dump(),
	})
}

// handleSnapshotInstall builds a store over a transferred state
// (Stores.Install), or acknowledges one the key's store already
// covers, and answers with the generation and last-applied update ID
// of the store that serves the key — which may be further along than
// the dump.
func (s *Server) handleSnapshotInstall(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Stores == nil {
		WriteError(w, http.StatusNotImplemented, CodeBadRequest, "dynamic updates are disabled on this server")
		return
	}
	var dump SnapshotDump
	// Point sets ride along, so the body cap is the update cap, not
	// the request cap.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxUpdateBodyBytes)).Decode(&dump); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	if dump.Dataset == "" {
		WriteError(w, http.StatusBadRequest, CodeBadKey, "dataset is required")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	st, err := s.cfg.Stores.Install(ctx, dump.Key(), dump.Snapshot)
	if err != nil {
		WriteError(w, StatusFor(err), CodeFor(err), "installing %s: %v", dump.Key(), err)
		return
	}
	// The store serves the key from now on; drop the static engine
	// it replaces, as handleUpdate does.
	s.cfg.Registry.Evict(dump.Key())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SnapshotInstallResponse{
		Generation:    st.Generation(),
		LastAppliedID: st.LastApplied(),
	})
}

// DumpSnapshot fetches one dataset's complete store state from the
// server — the donor half of the router's state transfer.
func (c *Client) DumpSnapshot(ctx context.Context, key registry.Key) (SnapshotDump, error) {
	var out SnapshotDump
	payload, err := json.Marshal(SampleRequest{
		Dataset: key.Dataset, L: key.L, Algorithm: key.Algorithm, Seed: key.Seed,
	})
	if err != nil {
		return out, err
	}
	err = c.postJSON(ctx, "/v1/snapshot/dump", payload, &out)
	return out, err
}

// InstallSnapshot installs a transferred store state on the server —
// the recipient half of the router's state transfer. Installing a
// state the server already holds (same or older last-applied ID) is
// acknowledged idempotently.
func (c *Client) InstallSnapshot(ctx context.Context, dump SnapshotDump) (SnapshotInstallResponse, error) {
	var out SnapshotInstallResponse
	payload, err := json.Marshal(dump)
	if err != nil {
		return out, err
	}
	err = c.postJSON(ctx, "/v1/snapshot/install", payload, &out)
	return out, err
}

// AddRouterBackend asks a router to grow its fleet by one backend and
// returns the resulting membership. Only meaningful against a router
// (srjserver has no ring); a server answers 404.
func (c *Client) AddRouterBackend(ctx context.Context, backend string) ([]string, error) {
	return c.memberChange(ctx, http.MethodPost, backend)
}

// RemoveRouterBackend asks a router to shrink its fleet by one
// backend and returns the resulting membership.
func (c *Client) RemoveRouterBackend(ctx context.Context, backend string) ([]string, error) {
	return c.memberChange(ctx, http.MethodDelete, backend)
}

func (c *Client) memberChange(ctx context.Context, method, backend string) ([]string, error) {
	payload, err := json.Marshal(BackendRequest{Backend: backend})
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+"/v1/router/backends", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	injectRequestID(ctx, hr)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var body BackendsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Backends, nil
}

// postJSON posts a JSON payload and decodes the JSON answer.
func (c *Client) postJSON(ctx context.Context, path string, payload []byte, out any) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	injectRequestID(ctx, hr)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
