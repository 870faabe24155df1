package core

// Frozen grid samplers (BBST, GridKD) through the batched SampleInto:
// seeded byte-identity against a pinned digest and against the Next
// loop, zero allocations once warm, and clones drawing concurrently
// over the shared structures.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/bbst"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Golden digests of the seeded frozen draw streams in frozenDigest:
// FNV-64a over the parent's batch, a clone's batch and a reseeded
// clone's batch, as produced by an implementation whose trial draws r
// from the alias table over µ(r), picks the direction by a cumulative
// scan of r's count record, reaches the cell through r's cell row, and
// draws cases 1–2 by one Intn over the cached count, the BBST cells
// cut into balanced buckets. The BBST digest has cells of at most
// T = 2⌈log₂ m⌉ points scanned, a scanned corner drawn by one Intn over
// the cached count. Any change to the trial's use of the random
// stream, the alias table or the per-cell structures moves them.
const (
	goldenBBSTDigest   = 0x88a398d3078b298c
	goldenGridKDDigest = 0xee0168be97624abc
)

type frozenFactory func(R, S []geom.Point, cfg Config) (Cloner, error)

func newBBSTCloner(R, S []geom.Point, cfg Config) (Cloner, error) { return NewBBST(R, S, cfg) }

func newGridKDCloner(R, S []geom.Point, cfg Config) (Cloner, error) { return NewGridKD(R, S, cfg) }

var frozenFactories = []struct {
	name   string
	mk     frozenFactory
	golden uint64
}{
	{"BBST", newBBSTCloner, goldenBBSTDigest},
	{"GridKD", newGridKDCloner, goldenGridKDDigest},
}

func hashPairs(h interface{ Write([]byte) (int, error) }, pairs []geom.Pair) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range pairs {
		for _, pt := range [2]geom.Point{p.R, p.S} {
			put(math.Float64bits(pt.X))
			put(math.Float64bits(pt.Y))
			put(uint64(uint32(pt.ID)))
		}
	}
}

func mustSampleInto(t *testing.T, s Sampler, n int) []geom.Pair {
	t.Helper()
	out := make([]geom.Pair, n)
	if got, err := SampleInto(s, out); err != nil || got != n {
		t.Fatalf("SampleInto: %d of %d, %v", got, n, err)
	}
	return out
}

// frozenDigest draws seeded batches from a parent, a clone and a
// reseeded clone, checks the parent's batch against a Next loop on an
// identically seeded twin, and hashes the three batches.
func frozenDigest(t *testing.T, mk frozenFactory) uint64 {
	t.Helper()
	R, S := dataset.SplitRS(dataset.NYC(20000, 1), 0.5, 2)
	cfg := Config{HalfExtent: 100, Seed: 23}
	parent, err := mk(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := mk(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	batch := mustSampleInto(t, parent, n)
	for i := 0; i < n; i++ {
		p, err := twin.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p != batch[i] {
			t.Fatalf("draw %d: SampleInto %v, Next loop %v", i, batch[i], p)
		}
	}
	ps, ts := parent.Stats(), twin.Stats()
	if ps.Iterations != ts.Iterations || ps.Samples != ts.Samples {
		t.Fatalf("SampleInto stats %d trials / %d samples, Next loop %d / %d",
			ps.Iterations, ps.Samples, ts.Iterations, ts.Samples)
	}
	h := fnv.New64a()
	hashPairs(h, batch)
	c, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	hashPairs(h, mustSampleInto(t, c, n))
	c.(Reseeder).Reseed(99)
	hashPairs(h, mustSampleInto(t, c, n))
	return h.Sum64()
}

// TestBBSTGoldenDigest holds seeded frozen BBST draws byte-identical
// across rewrites of the trial loop; the GridKD subtest does the same
// for the kd-tree-per-cell variant.
func TestBBSTGoldenDigest(t *testing.T) {
	for _, f := range frozenFactories {
		t.Run(f.name, func(t *testing.T) {
			if got := frozenDigest(t, f.mk); got != f.golden {
				t.Fatalf("draw digest %#x, golden %#x — seeded frozen draws changed", got, f.golden)
			}
		})
	}
}

// TestSampleIntoZeroAllocs holds the bulk API to its contract: once a
// handle has drawn one batch, further batches allocate nothing.
func TestSampleIntoZeroAllocs(t *testing.T) {
	R, S := dataset.SplitRS(dataset.NYC(40000, 1), 0.5, 2)
	cfg := Config{HalfExtent: 100, Seed: 5}
	handles := map[string]func(t *testing.T) Sampler{
		"Mutable": func(t *testing.T) Sampler { return mustUnfreeze(t, R, S, cfg) },
	}
	for _, f := range frozenFactories {
		handles[f.name] = func(t *testing.T) Sampler {
			parent, err := f.mk(R, S, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := parent.Clone()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	for name, mk := range handles {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			buf := make([]geom.Pair, 1000)
			if _, err := SampleInto(s, buf); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := SampleInto(s, buf); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocs per 1000-sample batch after warm-up, want 0", allocs)
			}
		})
	}
}

// TestFrozenClonesConcurrentSampleInto runs reseeded clones of each
// frozen sampler concurrently over the shared grid, corner structures
// and aliases; each clone's output must equal a sequential replay of
// its seed.
func TestFrozenClonesConcurrentSampleInto(t *testing.T) {
	R, S := dataset.SplitRS(dataset.NYC(20000, 3), 0.5, 4)
	for _, f := range frozenFactories {
		t.Run(f.name, func(t *testing.T) {
			parent, err := f.mk(R, S, Config{HalfExtent: 100, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			const clones, batches, batchLen = 4, 5, 400
			handles := make([]Sampler, clones)
			got := make([][]geom.Pair, clones)
			for i := range handles {
				if handles[i], err = parent.Clone(); err != nil {
					t.Fatal(err)
				}
				handles[i].(Reseeder).Reseed(uint64(1000 + i))
				got[i] = make([]geom.Pair, batches*batchLen)
			}
			var wg sync.WaitGroup
			errs := make([]error, clones)
			for i := range handles {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						if _, err := SampleInto(handles[i], got[i][b*batchLen:(b+1)*batchLen]); err != nil {
							errs[i] = fmt.Errorf("clone %d batch %d: %w", i, b, err)
							return
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
			for i, h := range handles {
				h.(Reseeder).Reseed(uint64(1000 + i))
				want := mustSampleInto(t, h, batches*batchLen)
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("clone %d draw %d: concurrent %v, sequential %v", i, j, got[i][j], want[j])
					}
				}
			}
		})
	}
}

// TestCornerSlotFill holds the case-3 bound to the buckets behind it on
// nyc-shaped input: over every R point and corner direction whose cell
// has a BBST pair, the points held by the matching buckets (the filled
// slots) must be at least 95% of µ₃, the matching buckets times the
// cell's capacity. Build balances each cell's buckets, so at most one
// slot per bucket is empty; a cut into full runs of b plus one short
// last bucket would leave about 30% of the slots empty on this input.
// Scanned cells have no slots: their µ is exact.
func TestCornerSlotFill(t *testing.T) {
	R, S := dataset.SplitRS(dataset.NYC(40000, 1), 0.5, 2)
	s, err := NewBBST(R, S, Config{HalfExtent: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Count(); err != nil {
		t.Fatal(err)
	}
	g := &s.gridSampler
	var sc bbst.Scratch
	var mu, filled int
	for i, r := range g.R {
		w := g.window(r)
		row := &g.rows[g.recs[i].row]
		for d := grid.Direction(0); d < grid.NumDirections; d++ {
			if d.Case() != 3 || row[d] < 0 {
				continue
			}
			bc, ok := g.corners[row[d]].(bbstCorner)
			if !ok {
				continue
			}
			mu += int(g.recs[i].cnt[d])
			bc.pair.ReportBuckets(cornerFor(d), w, &sc, func(b bbst.Bucket) bool {
				filled += b.Len()
				return true
			})
		}
	}
	if mu == 0 {
		t.Fatal("no case-3 mass: the input does not exercise the corners")
	}
	ratio := float64(filled) / float64(mu)
	t.Logf("case-3 slots: %d filled of µ₃ = %d (%.3f)", filled, mu, ratio)
	if ratio < 0.95 {
		t.Errorf("filled/µ₃ = %.3f, want >= 0.95: corner buckets are running partial", ratio)
	}
}
