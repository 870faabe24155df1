package srj

// The context-first sampling contract. The paper's whole point is
// amortization — build once, sample forever — and srj serves the
// "sample forever" half through two implementations: an in-process
// Engine and a remote Client. Source is the one request/response
// contract both satisfy, so callers (and every later tier: shard
// routers, alternative transports, dynamic-update frontends) are
// written once against Draw/DrawFunc and swap local for remote
// serving freely.

import (
	"context"
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/server"
)

// Source draws uniform independent join samples on request. Every
// implementation in this package — *Engine (in-process, pooled
// sampler clones), *Client bound to an engine key (remote, the
// srjserver wire protocol), and *Router bound to one (remote, the
// key's consistent-hash shard with ring failover) — satisfies it with
// identical semantics:
//
//   - Cancellation: ctx is honored between sampling batches; a
//     canceled or expired context stops an in-flight draw promptly
//     and surfaces as ctx.Err() via errors.Is.
//   - Determinism: equal Request.Seed values (nonzero) against the
//     same built structures yield identical samples, whatever other
//     traffic is interleaved.
//   - Caps: a request exceeding the configured per-request cap fails
//     fast with ErrSampleCap; malformed requests fail with
//     ErrBadRequest. No request forces an unbounded allocation.
//
// All implementations are safe for concurrent use.
type Source interface {
	// Draw serves one request and returns the samples with
	// per-request stats. On error the Result may carry the samples
	// drawn before the failure.
	Draw(ctx context.Context, req Request) (Result, error)
	// DrawFunc serves one request, streaming the samples to fn in
	// batches whose backing array is reused — fn must not retain it.
	// An error from fn aborts the draw and is returned verbatim.
	DrawFunc(ctx context.Context, req Request, fn func(batch []Pair) error) error
}

// Request carries the per-request parameters of one Source draw:
// T (the sample count), Seed (nonzero pins a reproducible stream),
// and Into (a caller buffer making Draw allocation-free). The zero
// value is invalid: a positive T (or a non-nil Into implying one) is
// required. The alias keeps local and remote validation literally
// the same code (Request.Resolve / Request.ResolveStream).
type Request = engine.Request

// Result is the answer to one Source.Draw: the samples plus
// per-request stats (Pairs, backed by Request.Into when one was
// provided, and the request's Elapsed latency).
type Result = engine.Result

// ErrBadRequest reports a malformed Source request: a non-positive
// sample count, or an Into buffer smaller than T. Unlike ErrSampleCap
// it is independent of any configured cap.
var ErrBadRequest = engine.ErrBadRequest

// ErrUnbound reports a Source call on a Client that was never bound
// to an engine key; see Client.Bind.
var ErrUnbound = errors.New("srj: client is not bound to an engine key (use Client.Bind)")

// Compile-time checks: every serving surface implements the contract
// — the in-process engine, the remote client, and the sharding
// router's bound form (Router.Bind).
var (
	_ Source = (*Engine)(nil)
	_ Source = (*Client)(nil)
	_ Source = (*router.Bound)(nil)
)

// Draw serves one request against the engine's once-built structures.
// See Source for the contract; this is the primary local sampling
// API. With Request.Into it is allocation-free in steady state.
func (e *Engine) Draw(ctx context.Context, req Request) (Result, error) {
	return e.e.Draw(ctx, req)
}

// DrawFunc serves one request, streaming batches to fn through a
// pooled buffer that is reused across batches and requests — fn must
// not retain it. ctx is checked between batches.
func (e *Engine) DrawFunc(ctx context.Context, req Request, fn func(batch []Pair) error) error {
	return e.e.DrawFunc(ctx, req, fn)
}

// Bind returns a copy of the client that serves the Source contract
// against one engine key: Draw and DrawFunc address (key.Dataset,
// key.L, key.Algorithm, key.Seed) on the remote server, with
// Request.Seed traveling as the wire protocol's per-request
// draw_seed. The receiver is unchanged; the full multi-key client
// API remains available on the bound copy.
func (c *Client) Bind(key EngineKey) *Client {
	key.Algorithm = server.NormalizeAlgorithm(key.Algorithm)
	return &Client{Client: c.Client, key: key, bound: true}
}

// Key returns the engine key the client is bound to, and whether it
// is bound at all.
func (c *Client) Key() (EngineKey, bool) { return c.key, c.bound }

// Draw serves one request against the bound engine key over the wire
// (the framed binary transport). See Source for the contract shared
// with the in-process Engine.
func (c *Client) Draw(ctx context.Context, req Request) (Result, error) {
	start := time.Now()
	t, err := c.resolveBound(req, Request.Resolve)
	if err != nil {
		return Result{}, err
	}
	// The stream aborts if the server over-delivers, so with Into the
	// pairs stay within its backing array: Result.Pairs is the
	// caller's buffer.
	pairs, err := server.Collect(req.Into, t, func(fn func([]Pair) error) error {
		return c.Client.SampleFunc(ctx, c.wireRequest(t, req.Seed), fn)
	})
	return Result{Pairs: pairs, Elapsed: time.Since(start)}, err
}

// DrawFunc serves one request against the bound engine key, streaming
// each decoded batch to fn as it arrives off the wire — constant
// client memory however large T is. The batch's backing array is
// reused; fn must not retain it. As on every Source, req.Into never
// receives samples here — it only defaults T.
func (c *Client) DrawFunc(ctx context.Context, req Request, fn func(batch []Pair) error) error {
	t, err := c.resolveBound(req, Request.ResolveStream)
	if err != nil {
		return err
	}
	return c.Client.SampleFunc(ctx, c.wireRequest(t, req.Seed), fn)
}

// wireRequest spells the bound key plus per-request parameters as the
// wire protocol's SampleRequest.
func (c *Client) wireRequest(t int, drawSeed uint64) server.SampleRequest {
	return server.SampleRequest{
		Dataset:   c.key.Dataset,
		L:         c.key.L,
		Algorithm: c.key.Algorithm,
		Seed:      c.key.Seed,
		DrawSeed:  drawSeed,
		T:         t,
	}
}

// resolveBound is the shared front of the client's Source methods:
// the request must be well-formed (per the given Request validator —
// the same code the engine runs, so local and remote reject
// malformed requests identically, and before any network round trip)
// and the client bound to a key.
func (c *Client) resolveBound(req Request, resolve func(Request) (int, error)) (int, error) {
	if !c.bound {
		return 0, ErrUnbound
	}
	return resolve(req)
}
