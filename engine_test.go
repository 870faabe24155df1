package srj

// Tests for the query-serving Engine: concurrent stress (run with
// -race), per-request determinism, and the constructor's error paths.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestEngineAllAlgorithmsServe(t *testing.T) {
	R := MustGenerate("uniform", 2000, 1)
	S := MustGenerate("uniform", 2000, 2)
	const l = 200.0
	for _, algo := range Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			e, err := NewEngine(R, S, l, &Options{Algorithm: algo, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Draw(context.Background(), Request{T: 500})
			if err != nil {
				t.Fatal(err)
			}
			pairs := res.Pairs
			if len(pairs) != 500 {
				t.Fatalf("got %d pairs", len(pairs))
			}
			for _, p := range pairs {
				if !Window(p.R, l).Contains(p.S) {
					t.Fatalf("invalid pair %v", p)
				}
			}
			if e.Algorithm() == "" || e.SizeBytes() <= 0 {
				t.Fatalf("bad metadata: %q, %d", e.Algorithm(), e.SizeBytes())
			}
		})
	}
}

// TestEngineConcurrentClients: many goroutines share one Engine; run
// with -race to audit that the post-Count structures are read-only.
func TestEngineConcurrentClients(t *testing.T) {
	R := MustGenerate("nyc", 5000, 1)
	S := MustGenerate("nyc", 5000, 2)
	const l = 150.0
	e, err := NewEngine(R, S, l, &Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Warm(8); err != nil {
		t.Fatal(err)
	}
	const clients = 12
	const requests = 25
	const perRequest = 400
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]Pair, perRequest)
			for req := 0; req < requests; req++ {
				res, err := e.Draw(context.Background(), Request{Into: buf})
				if err != nil {
					errs[i] = err
					return
				}
				for _, p := range res.Pairs {
					if !Window(p.R, l).Contains(p.S) {
						errs[i] = errors.New("pair outside window")
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Requests != clients*requests || st.Samples != clients*requests*perRequest {
		t.Fatalf("stats mismatch: %+v", st)
	}
}

// TestEngineSeedDeterminism: same seed ⇒ same per-request samples for
// a sequential client, independent of clone recycling.
func TestEngineSeedDeterminism(t *testing.T) {
	R := MustGenerate("castreet", 2000, 1)
	S := MustGenerate("castreet", 2000, 2)
	const l = 200.0
	e1, err := NewEngine(R, S, l, &Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(R, S, l, &Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for req := 0; req < 6; req++ {
		ra, err := e1.Draw(context.Background(), Request{T: 250})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := e2.Draw(context.Background(), Request{T: 250})
		if err != nil {
			t.Fatal(err)
		}
		a, b := ra.Pairs, rb.Pairs
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("request %d diverged at sample %d", req, i)
			}
		}
	}
}

func TestEngineConstructorErrors(t *testing.T) {
	R := MustGenerate("uniform", 100, 1)
	S := MustGenerate("uniform", 100, 2)
	if _, err := NewEngine(R, S, 100, &Options{WithoutReplacement: true}); err == nil ||
		!strings.Contains(err.Error(), "WithoutReplacement") {
		t.Errorf("WithoutReplacement accepted: %v", err)
	}
	if _, err := NewEngine(R, S, 100, &Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewEngine(R, S, -1, nil); err == nil {
		t.Error("negative half-extent accepted")
	}
	// A provably empty join fails at construction.
	far := []Point{{ID: 0, X: 0, Y: 0}}
	apart := []Point{{ID: 0, X: 9000, Y: 9000}}
	if _, err := NewEngine(far, apart, 1, nil); !errors.Is(err, ErrEmptyJoin) {
		t.Errorf("err = %v", err)
	}
}
