package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Client speaks the srjserver wire protocol. The zero value is not
// usable; construct with NewClient. A Client is safe for concurrent
// use — it holds no per-request state beyond the http.Client's
// connection pool.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:8080"). hc may be nil to use
// http.DefaultClient; pass a custom client to control connection
// pooling, TLS, or transport-level timeouts (per-request deadlines
// belong in the context instead).
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// APIError is a non-2xx answer from the server.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine-readable error code (see the Code constants)
	Message string // the server's error body
	// RequestID echoes the X-SRJ-Request-ID of the failed exchange,
	// so an error value in a client log names the exact server/router
	// log lines that explain it.
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("server: %s (HTTP %d, request %s)", e.Message, e.Status, e.RequestID)
	}
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// Unwrap maps the server's error code back onto the canonical
// sentinel it was derived from, so errors.Is works identically
// against a remote server and a local engine — a sample-cap refusal
// is errors.Is(err, engine.ErrSampleCap) on both sides of the wire.
func (e *APIError) Unwrap() error { return sentinelFor(e.Code) }

// apiError decodes resp's error body into an *APIError.
func apiError(resp *http.Response) error {
	var body errorResponse
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	return &APIError{
		Status:    resp.StatusCode,
		Code:      body.Code,
		Message:   msg,
		RequestID: resp.Header.Get(obs.RequestIDHeader),
	}
}

// injectRequestID forwards the context's request ID (if any) on an
// outbound request, so a draw proxied router -> backend keeps one ID
// across every hop.
func injectRequestID(ctx context.Context, hr *http.Request) {
	if id := obs.RequestIDFrom(ctx); id != "" {
		hr.Header.Set(obs.RequestIDHeader, id)
	}
}

// postSample issues the request with the given Accept header and
// returns the response on HTTP 200. The caller owns resp.Body.
func (c *Client) postSample(ctx context.Context, req SampleRequest, accept string) (*http.Response, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sample", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", accept)
	injectRequestID(ctx, hr)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// Sample draws req.T uniform independent join samples over the wire
// using the compact binary transport. Equal requests against one
// server do not replay samples: the engine's stream advances with
// every request it serves.
func (c *Client) Sample(ctx context.Context, req SampleRequest) ([]geom.Pair, error) {
	if req.T < 0 {
		return nil, fmt.Errorf("server: negative sample count %d", req.T)
	}
	return Collect(nil, req.T, func(fn func([]geom.Pair) error) error {
		return c.SampleFunc(ctx, req, fn)
	})
}

// SampleFunc streams req.T samples, invoking fn with each decoded
// batch as it arrives off the wire — constant client memory however
// large req.T is. The batch's backing array is reused; fn must not
// retain it. An fn error aborts the stream and is returned verbatim.
func (c *Client) SampleFunc(ctx context.Context, req SampleRequest, fn func(batch []geom.Pair) error) error {
	req.Format = "binary"
	resp, err := c.postSample(ctx, req, ContentTypeBinary)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var fnErr error
	delivered := 0
	n, err := readWireStream(resp.Body, func(batch []geom.Pair) error {
		// Abort as soon as the stream exceeds what was asked for: a
		// misbehaving server must not be able to push unbounded excess
		// samples through fn (or through Sample's accumulator).
		if delivered += len(batch); delivered > req.T {
			return fmt.Errorf("server: stream delivered more than the %d samples requested", req.T)
		}
		if ferr := fn(batch); ferr != nil {
			fnErr = ferr
			return ferr
		}
		return nil
	})
	if err != nil {
		// fn's own error is returned verbatim, even when the caller's
		// context is (also) done — cancel-and-return-sentinel is a
		// legitimate early-stop idiom.
		if fnErr != nil {
			return fnErr
		}
		// A fully decoded server-side error frame wins over a
		// concurrently expiring local context: the server's failure
		// (say, ErrLowAcceptance) is what a local engine would have
		// returned, and it made it off the wire intact.
		var serr *StreamError
		if errors.As(err, &serr) {
			if serr.RequestID == "" {
				serr.RequestID = resp.Header.Get(obs.RequestIDHeader)
			}
			return err
		}
		// A context that expired mid-stream surfaces as a transport
		// read error; report the cancellation itself so callers can
		// errors.Is(err, context.Canceled) exactly as with a local
		// engine.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	if n != req.T {
		return fmt.Errorf("server: stream delivered %d of %d samples", n, req.T)
	}
	return nil
}

// SampleJSON draws req.T samples using the JSON transport — slower
// and larger than Sample, but self-describing (useful for debugging
// and non-Go consumers).
func (c *Client) SampleJSON(ctx context.Context, req SampleRequest) ([]geom.Pair, error) {
	req.Format = "json"
	resp, err := c.postSample(ctx, req, "application/json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body SampleResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("server: decoding response: %w", err)
	}
	return body.Pairs, nil
}

// ApplyUpdate posts one insert/delete batch to the server's dynamic
// store for the request's key and returns the server's answer — most
// importantly the new dataset generation. The framed binary request
// encoding is used unless req.Format is "json"; bulk ingest belongs
// on binary (20 bytes per point). An empty batch is a generation
// probe: the server answers with the current generation without
// bumping it.
func (c *Client) ApplyUpdate(ctx context.Context, req UpdateRequest) (UpdateResponse, error) {
	var out UpdateResponse
	var body bytes.Buffer
	contentType := "application/json"
	if req.Format == "json" {
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			return out, err
		}
	} else {
		contentType = ContentTypeUpdate
		if err := EncodeUpdateRequest(&body, req); err != nil {
			return out, err
		}
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/update", &body)
	if err != nil {
		return out, err
	}
	hr.Header.Set("Content-Type", contentType)
	if req.UpdateID != 0 {
		// Sequencing metadata travels as a header on both encodings;
		// see UpdateIDHeader.
		hr.Header.Set(UpdateIDHeader, strconv.FormatUint(req.UpdateID, 10))
	}
	injectRequestID(ctx, hr)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("server: decoding update response: %w", err)
	}
	return out, nil
}

// getJSON fetches path and decodes the JSON body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
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

// Stats fetches the server's aggregate serving counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.getJSON(ctx, "/v1/stats", &out)
	return out, err
}

// Engines lists the server's resident engines, most recently used
// first.
func (c *Client) Engines(ctx context.Context) ([]registry.EntryInfo, error) {
	var out []registry.EntryInfo
	err := c.getJSON(ctx, "/v1/engines", &out)
	return out, err
}

// EvictEngine asks the server to drop the resident engine for key,
// reporting whether one existed. Benchmarks and load tools that
// insert throwaway keys should clean up with this so they do not
// crowd a long-lived server's cache.
func (c *Client) EvictEngine(ctx context.Context, key registry.Key) (bool, error) {
	payload, err := json.Marshal(SampleRequest{
		Dataset: key.Dataset, L: key.L, Algorithm: key.Algorithm, Seed: key.Seed,
	})
	if err != nil {
		return false, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/engines", bytes.NewReader(payload))
	if err != nil {
		return false, err
	}
	hr.Header.Set("Content-Type", "application/json")
	injectRequestID(ctx, hr)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, apiError(resp)
	}
	var body EvictResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	return body.Evicted, nil
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	injectRequestID(ctx, hr)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: "health check failed"}
	}
	return nil
}
