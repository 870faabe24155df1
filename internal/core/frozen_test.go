package core

// Frozen grid samplers (BBST, GridKD) through the batched SampleInto:
// seeded byte-identity against a pinned digest and against the Next
// loop, zero allocations once warm, and clones drawing concurrently
// over the shared structures. The baselines (KDS, KDS-rejection) get
// pinned digests through the same helper.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/bbst"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Golden digests of the seeded frozen draw streams in frozenDigest:
// FNV-64a over the parent's batch, a clone's batch and a reseeded
// clone's batch, as produced by an implementation that runs trials in
// groups of laneN = 8, each phase across the group before the next
// (every lane's r from the alias table over µ(r); its direction by a
// cumulative scan of r's count record and its cell through r's cell
// row; its candidate, cases 1–2 by one Intn over the cached count),
// delivering the lanes in order and carrying what a call did not take
// into the next, the BBST cells cut into balanced buckets. The BBST
// digest has cells of at most T = 2⌈log₂ m⌉ points scanned, a scanned
// corner drawn by one Intn over the cached count. Any change to the
// trial's use of the random stream (laneN and the phase order
// included), the alias table or the per-cell structures moves them.
const (
	goldenBBSTDigest   = 0x9a5ca74ddafaa15d
	goldenGridKDDigest = 0x7bfe6ee490b032c1
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

// Golden digests of the baselines' seeded draw streams, through the
// same frozenDigest: each trial draws r from the alias table, then the
// kd-tree's sample of S(w(r)), then (KDS-rejection only) the
// acceptance variate. Any change to that order, the kd-tree's descent
// or the alias table moves them.
const (
	goldenKDSDigest          = 0x69b9f59c954db4a0
	goldenKDSRejectionDigest = 0x2fffcd156de4ce5a
)

// TestBaselineGoldenDigest holds seeded KDS and KDS-rejection draws
// byte-identical across rewrites of the baselines and their kd-tree.
func TestBaselineGoldenDigest(t *testing.T) {
	for _, f := range []struct {
		name   string
		mk     frozenFactory
		golden uint64
	}{
		{"KDS", func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewKDS(R, S, cfg) }, goldenKDSDigest},
		{"KDS-rejection", func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewKDSRejection(R, S, cfg) }, goldenKDSRejectionDigest},
	} {
		t.Run(f.name, func(t *testing.T) {
			if got := frozenDigest(t, f.mk); got != f.golden {
				t.Fatalf("draw digest %#x, golden %#x — seeded baseline draws changed", got, f.golden)
			}
		})
	}
}

// TestSampleIntoZeroAllocs holds the bulk API to its contract: once a
// handle has drawn one batch, further batches allocate nothing, and
// neither does a Next loop, which runs the same lane groups and carry
// one pair at a time. The baselines, drawn one Next at a time, run
// over a tenth of the data, which keeps JoinSample's materialized join
// small.
func TestSampleIntoZeroAllocs(t *testing.T) {
	R, S := dataset.SplitRS(dataset.NYC(40000, 1), 0.5, 2)
	smallR, smallS := dataset.SplitRS(dataset.NYC(4000, 1), 0.5, 2)
	cfg := Config{HalfExtent: 100, Seed: 5}
	handles := map[string]func(t *testing.T) Sampler{
		"Mutable": func(t *testing.T) Sampler { return mustNewMutable(t, R, S, cfg) },
	}
	clone := func(t *testing.T, mk frozenFactory, R, S []geom.Point) Sampler {
		parent, err := mk(R, S, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, f := range frozenFactories {
		handles[f.name] = func(t *testing.T) Sampler { return clone(t, f.mk, R, S) }
	}
	for name, mk := range map[string]frozenFactory{
		"KDS":           func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewKDS(R, S, cfg) },
		"KDS-rejection": func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewKDSRejection(R, S, cfg) },
		"JoinSample":    func(R, S []geom.Point, cfg Config) (Cloner, error) { return NewJoinSample(R, S, cfg) },
	} {
		handles[name] = func(t *testing.T) Sampler { return clone(t, mk, smallR, smallS) }
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
			allocs = testing.AllocsPerRun(20, func() {
				for range 100 {
					if _, err := s.Next(); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocs per 100 Next calls after warm-up, want 0", allocs)
			}
		})
	}
}

// TestReseedDropsCarry: a handle whose last call left accepted pairs
// in its lane carry must, once reseeded, draw exactly what a fresh
// handle reseeded with the same seed draws, with the same trial and
// sample counts, so a pooled handle never gives one request another's
// leftovers. It covers a frozen BBST clone, a Mutable, and a
// ClonePool.GetSeeded checkout after a Put.
func TestReseedDropsCarry(t *testing.T) {
	R, S := dataset.SplitRS(dataset.NYC(20000, 1), 0.5, 2)
	parent, err := NewBBST(R, S, Config{HalfExtent: 100, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	m := mustNewMutable(t, R, S, Config{HalfExtent: 100, Seed: 31})
	const seed = 77
	// check draws 3 pairs from used (which leaves some in the carry),
	// then reseeds it and compares it with a fresh handle.
	check := func(t *testing.T, used Sampler, reseed func(Sampler) Sampler, fresh Sampler) {
		t.Helper()
		mustSampleInto(t, used, 3)
		if carried(used) == 0 {
			t.Fatal("a draw of 3 left no carry: the test does not reach the case it is for")
		}
		used = reseed(used)
		fresh.(Reseeder).Reseed(seed)
		before := used.Stats()
		got, want := mustSampleInto(t, used, 500), mustSampleInto(t, fresh, 500)
		if !slices.Equal(got, want) {
			t.Fatal("reseeded handle draws another stream than a fresh one")
		}
		a, b := used.Stats(), fresh.Stats()
		if a.Iterations-before.Iterations != b.Iterations || a.Samples-before.Samples != b.Samples {
			t.Fatalf("reseeded handle counted %d trials / %d samples, fresh %d / %d",
				a.Iterations-before.Iterations, a.Samples-before.Samples, b.Iterations, b.Samples)
		}
	}
	reseed := func(s Sampler) Sampler { s.(Reseeder).Reseed(seed); return s }
	clone := func(t *testing.T, c Cloner) Sampler {
		s, err := c.Clone()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("BBST", func(t *testing.T) {
		check(t, clone(t, parent), reseed, clone(t, parent))
	})
	t.Run("Mutable", func(t *testing.T) {
		check(t, clone(t, m), reseed, clone(t, m))
	})
	t.Run("ClonePool", func(t *testing.T) {
		pool, err := NewClonePool(parent, 5)
		if err != nil {
			t.Fatal(err)
		}
		// sync.Pool may hand back another idle clone; retry until the
		// checkout after Put is the handle that left the carry.
		for range 10 {
			s, err := pool.GetSeeded(seed)
			if err != nil {
				t.Fatal(err)
			}
			var again Sampler
			check(t, s, func(s Sampler) Sampler {
				pool.Put(s)
				if again, err = pool.GetSeeded(seed); err != nil {
					t.Fatal(err)
				}
				return again
			}, clone(t, parent))
			pool.Put(again)
			if again == s {
				return
			}
		}
		t.Fatal("the pool never handed back the clone put into it")
	})
}

// carried returns the number of lanes a handle still holds in its
// carry.
func carried(s Sampler) int {
	switch h := s.(type) {
	case *BBSTSampler:
		return h.lanes.left
	case *Mutable:
		return h.lanes.left
	}
	return 0
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
		ri, cnt := recOf(g, i)
		row := &g.rows[ri].cells
		for d := grid.Direction(0); d < grid.NumDirections; d++ {
			if d.Case() != 3 || row[d] < 0 {
				continue
			}
			bc, ok := g.corners[row[d]].(bbstCorner)
			if !ok {
				continue
			}
			mu += int(cnt[d])
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

// TestCornerCountBound pins the premise of the record width rule
// (countBound) on nyc-shaped input at keyspread's shape: a BBST
// corner's µ(r, d) is its matching buckets times the pair's capacity,
// which rounds up to whole buckets, so it can exceed its cell's size,
// and it never exceeds NumBuckets × Cap. No record count outside
// Center exceeds countBound.
func TestCornerCountBound(t *testing.T) {
	R, S := dataset.SplitRS(dataset.NYC(50000, 1), 0.5, 2)
	above := 0
	for _, l := range []float64{50, 119, 200} {
		s, err := NewBBST(R, S, Config{HalfExtent: l, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Count(); err != nil {
			t.Fatal(err)
		}
		g := &s.gridSampler
		bound := g.countBound()
		for i := range g.R {
			ri, cnt := recOf(g, i)
			row := &g.rows[ri]
			for d := grid.West; d < grid.NumDirections; d++ {
				if int(cnt[d]) > bound {
					t.Fatalf("l=%g R[%d] %v: count %d above countBound %d", l, i, d, cnt[d], bound)
				}
				if d.Case() != 3 || row.cells[d] < 0 {
					continue
				}
				bc, ok := g.corners[row.cells[d]].(bbstCorner)
				if !ok {
					continue
				}
				if slots := bc.pair.NumBuckets() * bc.pair.Cap(); int(cnt[d]) > slots {
					t.Fatalf("l=%g R[%d] %v: µ %d above NumBuckets × Cap = %d", l, i, d, cnt[d], slots)
				}
				if int(cnt[d]) > bc.pair.NumPoints() {
					above++
				}
			}
		}
	}
	t.Logf("%d corner counts above their cell's size", above)
	if above == 0 {
		t.Error("no corner count exceeds its cell's size: the input does not show the bucket slack")
	}
}

// TestCountWidth builds engines whose counts do not fit in 16 bits:
// one S cell of 65,536 points, bucket capacity 16 (4,096 full
// buckets), whose edge counts reach 65,536; and one of 65,535 points at
// capacity 2, whose last bucket holds one point, so a corner covering
// the cell counts 32,768 × 2 = 65,536. Count must pick the int32
// records, every record (Center included) must equal refCounts, and
// a mutable index over the same points must pass CheckInvariants.
func TestCountWidth(t *testing.T) {
	const l = 10.0 // the S cell is [50, 60)², its points in [50, 50.5)²
	lattice := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: 50 + float64(i%256)/512, Y: 50 + float64(i/256)/512, ID: int32(i)}
		}
		return pts
	}
	// R: one point of the cell and one each in its West, South and
	// South-West neighbours, each window covering the whole lattice.
	R := []geom.Point{{X: 55, Y: 55, ID: 0}, {X: 49.9, Y: 50.25, ID: 1}, {X: 50.25, Y: 49.9, ID: 2}, {X: 49.9, Y: 49.9, ID: 3}}
	for _, tc := range []struct {
		name      string
		n, cap    int
		dir       grid.Direction // of the count past 65,535, for R[3] or R[1]
		rIdx      int
		wantCount int32
	}{
		{"edge/65536", 1 << 16, 16, grid.East, 1, 1 << 16},
		{"corner-slack/65535", 1<<16 - 1, 2, grid.NorthEast, 3, 1 << 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{HalfExtent: l, Seed: 1, BucketCap: tc.cap}
			s, err := NewBBST(R, lattice(tc.n), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Count(); err != nil {
				t.Fatal(err)
			}
			g := &s.gridSampler
			if _, ok := g.recs.(pointRecs[int32]); !ok {
				t.Fatalf("records are %T, want pointRecs[int32] (countBound %d)", g.recs, g.countBound())
			}
			var sc cornerScratch
			for i, r := range R {
				_, got := recOf(g, i)
				if want := refCounts(g, r, &sc); got != want {
					t.Errorf("R[%d] %+v: record %v, per-point %v", i, r, got, want)
				}
			}
			if _, cnt := recOf(g, tc.rIdx); cnt[tc.dir] != tc.wantCount {
				t.Errorf("R[%d] %v: count %d, want %d", tc.rIdx, tc.dir, cnt[tc.dir], tc.wantCount)
			}
			m, err := NewMutable(R, lattice(tc.n), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Index().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
