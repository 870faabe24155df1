package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/registry"
)

// TestSentinelRoundTrip pins the whole wire-error contract in one
// table: for every canonical sentinel, the code CodeFor assigns, the
// HTTP status StatusFor assigns, and — for the canonical (first)
// sentinel of each code — that errors.Is sees the sentinel through
// *APIError (pre-stream HTTP errors) and *StreamError (mid-stream
// error frames) exactly as it would against a local engine. The
// srjlint sentinelwire analyzer checks that every sentinel reaches
// these tables; this test checks that the mappings mean what they say.
func TestSentinelRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		sentinel  error
		code      string
		status    int
		canonical bool // first row of its code: Unwrap round-trips to it
	}{
		{"sample_cap", engine.ErrSampleCap, CodeSampleCap, http.StatusBadRequest, true},
		{"bad_request", engine.ErrBadRequest, CodeBadRequest, http.StatusBadRequest, true},
		{"no_parallel", core.ErrNoParallelWithoutReplacement, CodeBadRequest, http.StatusBadRequest, false},
		{"bad_key", ErrBadKey, CodeBadKey, http.StatusBadRequest, true},
		{"invalid_key", registry.ErrInvalidKey, CodeBadKey, http.StatusBadRequest, false},
		{"empty_join", core.ErrEmptyJoin, CodeEmptyJoin, http.StatusUnprocessableEntity, true},
		{"low_acceptance", core.ErrLowAcceptance, CodeLowAcceptance, http.StatusInternalServerError, true},
		{"update_sequence", dynamic.ErrUpdateSequence, CodeUpdateSequence, http.StatusConflict, true},
		{"timeout", context.DeadlineExceeded, CodeTimeout, http.StatusGatewayTimeout, true},
		{"canceled", context.Canceled, CodeCanceled, 499, true},
	}

	// One table row per codeSentinels row: adding a sentinel to the
	// wire tables without extending this test is itself a failure.
	if len(cases) != len(codeSentinels) {
		t.Fatalf("test covers %d sentinels, codeSentinels has %d rows; extend the table", len(cases), len(codeSentinels))
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CodeFor(tc.sentinel); got != tc.code {
				t.Errorf("CodeFor = %q, want %q", got, tc.code)
			}
			if got := StatusFor(tc.sentinel); got != tc.status {
				t.Errorf("StatusFor = %d, want %d", got, tc.status)
			}
			// Wrapping must not change the classification: handlers
			// annotate with %w on the way out.
			wrapped := fmt.Errorf("handling request: %w", tc.sentinel)
			if got := CodeFor(wrapped); got != tc.code {
				t.Errorf("CodeFor(wrapped) = %q, want %q", got, tc.code)
			}
			if got := StatusFor(wrapped); got != tc.status {
				t.Errorf("StatusFor(wrapped) = %d, want %d", got, tc.status)
			}

			// The decode direction: what a remote client reconstructs
			// from the code alone.
			canonical := sentinelFor(tc.code)
			if canonical == nil {
				t.Fatalf("sentinelFor(%q) = nil; the code decodes to nothing", tc.code)
			}
			apiErr := error(&APIError{Status: tc.status, Code: tc.code, Message: "x"})
			streamErr := error(&StreamError{Code: tc.code, Message: "x"})
			if tc.canonical {
				if !errors.Is(apiErr, tc.sentinel) {
					t.Errorf("errors.Is(APIError{%s}, %v) = false; remote callers cannot match the sentinel", tc.code, tc.sentinel)
				}
				if !errors.Is(streamErr, tc.sentinel) {
					t.Errorf("errors.Is(StreamError{%s}, %v) = false; remote callers cannot match the sentinel", tc.code, tc.sentinel)
				}
			} else {
				// A non-canonical row still classifies (encode
				// direction above); the code decodes to its
				// canonical sibling.
				if errors.Is(canonical, tc.sentinel) {
					t.Errorf("sentinelFor(%q) unexpectedly Is %v; table order changed", tc.code, tc.sentinel)
				}
			}
		})
	}
}

// TestSentinelRoundTripInternal: unknown errors decay to
// CodeInternal/500 and decode to nothing — errors.Is against any
// sentinel is false rather than wrong.
func TestSentinelRoundTripInternal(t *testing.T) {
	err := errors.New("disk on fire")
	if got := CodeFor(err); got != CodeInternal {
		t.Errorf("CodeFor = %q, want %q", got, CodeInternal)
	}
	if got := StatusFor(err); got != http.StatusInternalServerError {
		t.Errorf("StatusFor = %d, want %d", got, http.StatusInternalServerError)
	}
	if s := sentinelFor(CodeInternal); s != nil {
		t.Errorf("sentinelFor(internal) = %v, want nil", s)
	}
	apiErr := error(&APIError{Status: 500, Code: CodeInternal, Message: "x"})
	if errors.Is(apiErr, engine.ErrSampleCap) || errors.Is(apiErr, dynamic.ErrUpdateSequence) {
		t.Error("internal APIError matched a sentinel it does not carry")
	}
}
