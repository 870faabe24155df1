package core

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/rng"
)

func newPoolBBST(t *testing.T, seed uint64) (*ClonePool, []geom.Point, []geom.Point, float64) {
	t.Helper()
	r := rng.New(11)
	R := randomPoints(r, 300, 40, 0)
	S := randomPoints(r, 300, 40, 10000)
	const l = 5.0
	s, err := NewBBST(R, S, Config{HalfExtent: l, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewClonePool(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p, R, S, l
}

func TestClonePoolServesValidSamples(t *testing.T) {
	p, _, _, l := newPoolBBST(t, 1)
	for req := 0; req < 20; req++ {
		s, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			pr, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !geom.InWindow(pr.R, pr.S, l) {
				t.Fatalf("invalid pair %v", pr)
			}
		}
		p.Put(s)
	}
}

// TestClonePoolSequentialDeterminism: with equal pool seeds, the k-th
// request draws the same samples regardless of clone recycling.
func TestClonePoolSequentialDeterminism(t *testing.T) {
	p1, _, _, _ := newPoolBBST(t, 42)
	p2, _, _, _ := newPoolBBST(t, 42)
	// Force p2 through a different clone population: extra idle clones
	// must not change what each request draws.
	if err := p2.Warm(3); err != nil {
		t.Fatal(err)
	}
	for req := 0; req < 10; req++ {
		s1, err := p1.Get()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := p2.Get()
		if err != nil {
			t.Fatal(err)
		}
		a, err := s1.Sample(100)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s2.Sample(100)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("request %d diverged at sample %d: %v vs %v", req, i, a[i], b[i])
			}
		}
		p1.Put(s1)
		p2.Put(s2)
	}
}

// TestClonePoolStreamsDiffer: consecutive checkouts must draw from
// independent streams even when the same clone object is recycled.
func TestClonePoolStreamsDiffer(t *testing.T) {
	p, _, _, _ := newPoolBBST(t, 7)
	s1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	a, err := s1.Sample(200)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(s1)
	s2, err := p.Get() // very likely the same object, reseeded
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Sample(200)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(s2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("recycled checkout repeated %d/%d samples", same, len(a))
	}
}

// TestClonePoolGetSeeded: seeded checkouts draw identical sequences
// for equal seeds, and consume nothing from the pool's own seed
// sequence — unseeded traffic stays reproducible around them.
func TestClonePoolGetSeeded(t *testing.T) {
	p1, _, _, _ := newPoolBBST(t, 42)
	p2, _, _, _ := newPoolBBST(t, 42)

	draw := func(p *ClonePool, seeded bool, seed uint64) []geom.Pair {
		t.Helper()
		var (
			s   Sampler
			err error
		)
		if seeded {
			s, err = p.GetSeeded(seed)
		} else {
			s, err = p.Get()
		}
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := s.Sample(150)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(s)
		return pairs
	}
	equal := func(a, b []geom.Pair) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}

	// Equal seeds ⇒ equal sequences, on the same pool and across pools.
	a := draw(p1, true, 77)
	b := draw(p1, true, 77)
	if !equal(a, b) {
		t.Fatal("equal seeds diverged on one pool")
	}
	if c := draw(p2, true, 77); !equal(a, c) {
		t.Fatal("equal seeds diverged across pools")
	}
	if d := draw(p1, true, 78); equal(a, d) {
		t.Fatal("distinct seeds drew identical sequences")
	}

	// p1 served three seeded checkouts p2 never saw; the unseeded
	// sequences of the two pools must nevertheless still agree.
	u1, u2 := draw(p1, false, 0), draw(p2, false, 0)
	if !equal(u1, u2) {
		t.Fatal("seeded checkouts perturbed the unseeded sequence")
	}
}

// TestClonePoolConcurrentStress hammers one pool from many goroutines
// (run with -race: the shared structures must be read-only).
func TestClonePoolConcurrentStress(t *testing.T) {
	for name, mk := range map[string]func(R, S []geom.Point, cfg Config) (Cloner, error){
		"BBST":   func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewBBST(R, S, cfg) },
		"KDS":    func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewKDS(R, S, cfg) },
		"GridKD": func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewGridKD(R, S, cfg) },
	} {
		t.Run(name, func(t *testing.T) {
			r := rng.New(21)
			R := clustered(r, 400, 50, 0)
			S := clustered(r, 400, 50, 10000)
			const l = 5.0
			s, err := mk(R, S, Config{HalfExtent: l, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewClonePool(s, 1)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for req := 0; req < 50; req++ {
						c, err := p.Get()
						if err != nil {
							errs[i] = err
							return
						}
						for k := 0; k < 20; k++ {
							pr, err := c.Next()
							if err != nil {
								errs[i] = err
								return
							}
							if !geom.InWindow(pr.R, pr.S, l) {
								errs[i] = errors.New("pair outside window")
								return
							}
						}
						p.Put(c)
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestClonePoolUniformity: pooled, reseeded checkouts must still draw
// uniformly over J.
func TestClonePoolUniformity(t *testing.T) {
	r := rng.New(31)
	R := randomPoints(r, 25, 12, 0)
	S := randomPoints(r, 25, 12, 10000)
	const l = 3.0
	joined := join.Materialize(R, S, l)
	if len(joined) < 20 {
		t.Fatalf("setup: |J| = %d", len(joined))
	}
	jset := map[string]bool{}
	for _, p := range joined {
		jset[pairID(p)] = true
	}
	s, err := NewBBST(R, S, Config{HalfExtent: l, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewClonePool(s, 17)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 120
	const perRequest = 1000
	counts := map[string]int{}
	for req := 0; req < requests; req++ {
		c, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := c.Sample(perRequest)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			k := pairID(p)
			if !jset[k] {
				t.Fatalf("pair %s not in J", k)
			}
			counts[k]++
		}
		pool.Put(c)
	}
	draws := float64(requests * perRequest)
	expected := draws / float64(len(joined))
	chi2 := 0.0
	for k := range jset {
		d := float64(counts[k]) - expected
		chi2 += d * d / expected
	}
	dof := float64(len(joined) - 1)
	if limit := dof + 4*math.Sqrt(2*dof) + 10; chi2 > limit {
		t.Fatalf("pooled samples skewed: chi2 = %.1f > %.1f", chi2, limit)
	}
}

// TestClonePoolRejectsWithoutReplacement: the duplicate filter cannot
// be pooled.
func TestClonePoolRejectsWithoutReplacement(t *testing.T) {
	r := rng.New(41)
	R := randomPoints(r, 50, 10, 0)
	S := randomPoints(r, 50, 10, 10000)
	s, err := NewBBST(R, S, Config{HalfExtent: 3, Seed: 1, WithoutReplacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClonePool(s, 1); !errors.Is(err, ErrNoParallelWithoutReplacement) {
		t.Fatalf("err = %v", err)
	}
}

// TestClonePoolEmptyJoin: construction surfaces ErrEmptyJoin.
func TestClonePoolEmptyJoin(t *testing.T) {
	R := []geom.Point{{ID: 0, X: 0, Y: 0}}
	S := []geom.Point{{ID: 0, X: 1000, Y: 1000}}
	s, err := NewBBST(R, S, Config{HalfExtent: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClonePool(s, 1); !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("err = %v", err)
	}
}

// TestClonePoolFreedAtNextGC pins that a dropped pool's idle clones
// keep nothing of the parent's structures alive: after one collection
// the grid's finalizer has run. The finalizer sits on the grid, which
// every clone shares, not on the parent sampler struct, which no clone
// points at: a pool holding its idle clones in a sync.Pool (whose
// contents the runtime keeps until the second collection after its
// last use) frees the parent struct at the first collection but pins
// the grid, the records and the alias for one more.
func TestClonePoolFreedAtNextGC(t *testing.T) {
	var freed atomic.Bool
	poolAndDrop(t, &freed)
	runtime.GC()
	for deadline := time.Now().Add(200 * time.Millisecond); !freed.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("the parent's grid is still reachable one collection after its pool was dropped")
	}
}

// poolAndDrop builds a pool over a BBST parent whose grid sets freed
// when it is collected, checks a clone out, draws, returns it and
// drops every reference. It is a function of its own so that nothing
// it built stays live in the caller's frame.
//
//go:noinline
func poolAndDrop(t *testing.T, freed *atomic.Bool) {
	r := rng.New(3)
	s, err := NewBBST(randomPoints(r, 400, 50, 0), randomPoints(r, 400, 50, 10000), Config{HalfExtent: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewClonePool(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(s.g, func(*grid.Grid) { freed.Store(true) })
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	p.Put(c)
}
