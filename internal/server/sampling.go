package server

// The HTTP sampling surface srjserver and the shard router share: the
// request middleware, the outcome classifier, the POST /v1/sample
// answer on both transports, and the collector that buffers a
// streaming draw. What differs between the tiers (where batches come
// from, the write deadline) is passed in.

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Instrument wraps a tier's API handler in the middleware both tiers
// apply: it threads the request ID through (accepting a
// caller-supplied one, minting otherwise, and echoing it on the
// response so clients can attribute errors), counts the outcome code
// into requests, and, with a logger, emits the access log line.
func Instrument(h http.Handler, requests *obs.CounterVec, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.EnsureRequestID(r)
		w.Header().Set(obs.RequestIDHeader, id)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		rec := &obs.StatusRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		requests.Inc(outcomeCode(rec))
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.Status),
				slog.Duration("elapsed", time.Since(start)),
			)
		}
	})
}

// outcomeCode classifies one finished response for srj_requests_total
// on either tier. Error paths stamp their exact code into
// ErrorCodeHeader (WriteError does), so a refusal or a draw that
// failed before its first sample counts under its code; anything
// without one is classified by status class. A draw that fails after
// the 200 and first frame are on the wire counts as ok — the
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

// Streamer is the streaming half of the Source contract, as the
// serving tiers draw from it: a resolved engine on srjserver, a routed
// key binding on the router.
type Streamer interface {
	DrawFunc(ctx context.Context, req engine.Request, fn func(batch []geom.Pair) error) error
}

// RespondSample answers one decoded POST /v1/sample draw from src, as
// the framed binary stream or one JSON body, and returns the pairs
// delivered with the draw's error. A draw that fails before its first
// sample answers with the error's HTTP status and code on either
// transport; a later failure arrives as an error frame. Each write
// gets a fresh writeTimeout deadline: a client that stops reading
// blocks Write, trips it, and frees the handler and its sampler
// clone, which the draw's between-batch ctx check alone never would.
func RespondSample(ctx context.Context, w http.ResponseWriter, src Streamer, req engine.Request, binaryOut bool, writeTimeout time.Duration) (int, error) {
	rc := http.NewResponseController(w)
	if !binaryOut {
		pairs, err := Collect(nil, req.T, func(fn func([]geom.Pair) error) error {
			return src.DrawFunc(ctx, req, fn)
		})
		if err != nil {
			WriteError(w, StatusFor(err), CodeFor(err), "sampling: %v", err)
			return len(pairs), err
		}
		w.Header().Set("Content-Type", "application/json")
		rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		json.NewEncoder(w).Encode(SampleResponse{Count: len(pairs), Pairs: pairs})
		return len(pairs), nil
	}

	// The stream header goes out with the first batch, so a draw
	// refused or failed before any sample answers with its status.
	flusher, _ := w.(http.Flusher)
	started := false
	open := func() error {
		rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if started {
			return nil
		}
		started = true
		w.Header().Set("Content-Type", ContentTypeBinary)
		return WriteStreamHeader(w)
	}
	var scratch []byte
	delivered := 0
	err := src.DrawFunc(ctx, req, func(batch []geom.Pair) error {
		if err := open(); err != nil {
			return err
		}
		var werr error
		if scratch, werr = WriteStreamFrame(w, batch, scratch); werr != nil {
			return werr
		}
		delivered += len(batch)
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	switch {
	case err != nil && !started:
		WriteError(w, StatusFor(err), CodeFor(err), "sampling: %v", err)
	case err != nil:
		WriteStreamError(w, CodeFor(err), err.Error())
	case open() == nil:
		WriteStreamEnd(w)
	}
	return delivered, err
}

// Collect turns a streaming draw of t samples into a buffered one:
// stream runs the draw, handing each batch to its callback. With into
// non-nil the pairs land in into's backing array (every stream aborts
// on over-delivery, so with t <= len(into) the appends never
// reallocate); otherwise in a buffer preallocated to at most
// MaxFramePairs, since t may not be validated yet and trusting it
// would allocate before validating. On error the pairs delivered
// before it are returned.
func Collect(into []geom.Pair, t int, stream func(fn func(batch []geom.Pair) error) error) ([]geom.Pair, error) {
	out := into[:0]
	if into == nil {
		out = make([]geom.Pair, 0, min(t, MaxFramePairs))
	}
	err := stream(func(batch []geom.Pair) error {
		out = append(out, batch...)
		return nil
	})
	return out, err
}
