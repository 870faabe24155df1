package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/server"
)

// giveUpBuild builds every key over one fixed dataset whose sampler
// gives up at its first rejected trial: a rejection budget of 1 over
// corner cells dense enough (about 160 S points each) to keep their
// over-counting BBSTs.
func giveUpBuild(_ context.Context, key registry.Key) (*engine.Engine, error) {
	r := rng.New(9)
	pts := func(n int, base int32) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Point{ID: base + int32(i), X: r.Range(0, 50), Y: r.Range(0, 50)}
		}
		return out
	}
	R, S := pts(400, 0), pts(4000, 10000)
	s, err := core.NewBBST(R, S, core.Config{HalfExtent: key.L, Seed: 1, MaxRejects: 1})
	if err != nil {
		return nil, err
	}
	return engine.New(s, key.Seed)
}

// TestTiersAgreeOnFailureBeforeFirstSample: a draw whose sampler gives
// up before its first sample answers alike on srjserver and on a
// router in front of it, on the binary transport — the same pre-stream
// HTTP status and error code, the sentinel intact through the client,
// and the request counted under its code on both tiers.
func TestTiersAgreeOnFailureBeforeFirstSample(t *testing.T) {
	srv, err := server.New(server.Config{Registry: registry.New(giveUpBuild, 0)})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv)
	defer backend.Close()
	rt, err := New([]string{backend.URL}, Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// A draw seed whose stream rejects at the very first trial: a local
	// engine over the same build draws nothing before giving up.
	key := registry.Key{Dataset: "d", L: 10, Algorithm: server.DefaultAlgorithm, Seed: 1}
	local, err := giveUpBuild(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64
	for s := uint64(1); s <= 200 && seed == 0; s++ {
		res, err := local.Draw(context.Background(), engine.Request{T: 1000, Seed: s})
		if errors.Is(err, core.ErrLowAcceptance) && res.Count() == 0 {
			seed = s
		}
	}
	if seed == 0 {
		t.Fatal("no draw seed in 1..200 fails at the first trial")
	}
	req := server.SampleRequest{Dataset: key.Dataset, L: key.L, Seed: key.Seed, DrawSeed: seed, T: 1000, Format: "binary"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	for _, tier := range []struct{ name, base string }{{"srjserver", backend.URL}, {"router", front.URL}} {
		resp, err := http.Post(tier.base+"/v1/sample", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var eb struct{ Code string }
		json.Unmarshal(raw, &eb)
		if resp.StatusCode != http.StatusInternalServerError || eb.Code != server.CodeLowAcceptance ||
			resp.Header.Get(server.ErrorCodeHeader) != server.CodeLowAcceptance {
			t.Errorf("%s: status %d, code %q, %s %q; want 500 and %q (body %q)", tier.name, resp.StatusCode, eb.Code,
				server.ErrorCodeHeader, resp.Header.Get(server.ErrorCodeHeader), server.CodeLowAcceptance, raw)
		}

		_, err = server.NewClient(tier.base, nil).Sample(context.Background(), req)
		var apiErr *server.APIError
		if !errors.Is(err, core.ErrLowAcceptance) || !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
			t.Errorf("%s: client err = %v, want a pre-stream HTTP 500 that Is core.ErrLowAcceptance", tier.name, err)
		}
	}

	// Two failed draws reached the router; the backend saw those two
	// and the two sent to it directly.
	for _, tc := range []struct {
		name, base string
		want       float64
	}{{"srjserver", backend.URL, 4}, {"router", front.URL, 2}} {
		if got := requestsByCode(t, tc.base, server.CodeLowAcceptance); got != tc.want {
			t.Errorf("%s: srj_requests_total{code=%q} = %v, want %v", tc.name, server.CodeLowAcceptance, got, tc.want)
		}
	}
}

// requestsByCode scrapes base's /metrics for srj_requests_total{code}.
func requestsByCode(t *testing.T, base, code string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(string(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name != obs.MetricRequests {
			continue
		}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if l.Name == obs.LabelCode && l.Value == code {
					return s.Value
				}
			}
		}
	}
	return 0
}
