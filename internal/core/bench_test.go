package core

// Mutable-vs-frozen rows: draw cost of the in-place maintained index
// next to the frozen BBSTSampler on the same points (one Next per op,
// and 10k-pair SampleInto batches), the cost of one churn batch, and
// the one-off NewMutable. Inputs are nyc-shaped, about
// 100k points per side at l = 100. BenchmarkBuild and BenchmarkCount
// time the frozen building and upper-bounding phases on their own.
// BenchmarkSlotTree times the mutable index's slot tree alone, over
// 100k random slots.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rng"
)

var mutBench struct {
	once sync.Once
	R, S []geom.Point
}

func mutBenchInput() (R, S []geom.Point) {
	mutBench.once.Do(func() {
		mutBench.R, mutBench.S = dataset.SplitRS(dataset.NYC(200_000, 1), 0.5, 2)
	})
	return mutBench.R, mutBench.S
}

func benchFrozen(b *testing.B) *BBSTSampler {
	b.Helper()
	R, S := mutBenchInput()
	s, err := NewBBST(R, S, Config{HalfExtent: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Count(); err != nil {
		b.Fatal(err)
	}
	return s
}

// benchDraws runs b.N draws, one op per sample, and reports the trials
// each sample took.
func benchDraws(b *testing.B, s Sampler) {
	b.Helper()
	before := s.Stats().Iterations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Iterations-before)/float64(b.N), "trials/sample")
}

// benchChurned builds a mutable index over the frozen sampler's points
// and applies n churn batches of 32 ops. It returns the Mutable and the
// generator, which deals the batches that follow.
func benchChurned(b *testing.B, n int) (*Mutable, *churnGen) {
	b.Helper()
	R, S := mutBenchInput()
	m, err := NewMutable(R, S, Config{HalfExtent: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen := newChurnGen(R, S, dataset.NYC(10_000, 7), 3)
	for i := 0; i < n; i++ {
		if m, err = m.Apply(gen.batch(8)); err != nil {
			b.Fatal(err)
		}
	}
	return m, gen
}

// BenchmarkMutableDraw compares one sample from the frozen sampler
// with one from a Mutable over the same points after 100 churn batches.
func BenchmarkMutableDraw(b *testing.B) {
	b.Run("frozen", func(b *testing.B) {
		benchDraws(b, benchFrozen(b))
	})
	b.Run("mutable", func(b *testing.B) {
		m, _ := benchChurned(b, 100)
		benchDraws(b, m)
	})
}

// BenchmarkFrozenSampleInto draws 10k-pair SampleInto batches, one op
// per batch, from the frozen parent, a clone of it, and the churned
// Mutable of BenchmarkMutableDraw, after one warm-up batch.
func BenchmarkFrozenSampleInto(b *testing.B) {
	handles := []struct {
		name string
		mk   func(b *testing.B) Sampler
	}{
		{"parent", func(b *testing.B) Sampler { return benchFrozen(b) }},
		{"clone", func(b *testing.B) Sampler {
			c, err := benchFrozen(b).Clone()
			if err != nil {
				b.Fatal(err)
			}
			return c
		}},
		{"mutable", func(b *testing.B) Sampler { m, _ := benchChurned(b, 100); return m }},
	}
	for _, h := range handles {
		b.Run(h.name, func(b *testing.B) { benchBatches(b, h.mk(b)) })
	}
}

// benchBatches draws b.N 10k-pair SampleInto batches from s after one
// warm-up batch and reports ns/sample, trials/sample and allocs.
func benchBatches(b *testing.B, s Sampler) {
	b.Helper()
	buf := make([]geom.Pair, 10_000)
	if _, err := SampleInto(s, buf); err != nil {
		b.Fatal(err)
	}
	before := s.Stats().Iterations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleInto(s, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	samples := float64(b.N * len(buf))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
	b.ReportMetric(float64(s.Stats().Iterations-before)/samples, "trials/sample")
}

// BenchmarkTrialScale times the trial against input size at fixed work
// per trial: uniform R and S of n points per side, with l chosen so an
// S cell holds ppc points in expectation (ppc = 8: every cell scanned;
// ppc = 64: every cell a BBST), plus a row shaped like the bench
// module's bulk workload (R and S halves of two 400k nyc pools, l =
// 100). Each row builds one frozen sampler and one Mutable over the
// same points and draws 10k-pair batches from a clone of the frozen
// one and from the Mutable. Memory latency, not the trial's Õ(1) work,
// is what grows with n.
func BenchmarkTrialScale(b *testing.B) {
	type row struct {
		name  string
		l     float64
		input func() (R, S []geom.Point)
	}
	var rows []row
	for _, ppc := range []float64{8, 64} {
		for _, n := range []int{25_000, 200_000, 400_000} {
			rows = append(rows, row{
				name: fmt.Sprintf("uniform/ppc=%g/n=%dk", ppc, n/1000),
				l:    math.Sqrt(ppc * dataset.Domain * dataset.Domain / float64(n)),
				input: func() (R, S []geom.Point) {
					return dataset.Uniform(n, 1), dataset.Uniform(n, 2)
				},
			})
		}
	}
	rows = append(rows, row{name: "bulk/nyc/n=200k", l: 100, input: func() (R, S []geom.Point) {
		R, _ = dataset.SplitRS(dataset.NYC(400_000, 1), 0.5, 3)
		_, S = dataset.SplitRS(dataset.NYC(400_000, 2), 0.5, 4)
		return R, S
	}})
	for _, rw := range rows {
		b.Run(rw.name, func(b *testing.B) {
			R, S := rw.input()
			s, err := NewBBST(R, S, Config{HalfExtent: rw.l, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Count(); err != nil {
				b.Fatal(err)
			}
			b.Run("frozen", func(b *testing.B) {
				c, err := s.Clone()
				if err != nil {
					b.Fatal(err)
				}
				benchBatches(b, c)
			})
			b.Run("mutable", func(b *testing.B) {
				m, err := NewMutable(R, S, Config{HalfExtent: rw.l, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				benchBatches(b, m)
			})
		})
	}
}

// BenchmarkMutableApply measures one 32-op churn batch (8 inserts and
// 8 deletes per side), one op per batch: on a fresh NewMutable, whose
// slots lie cell by cell, and after 1,000 batches, whose inserts took
// free slots from anywhere.
func BenchmarkMutableApply(b *testing.B) {
	for _, row := range []struct {
		name   string
		warmup int
	}{{"fresh", 0}, {"churned", 1000}} {
		b.Run(row.name, func(b *testing.B) {
			m, gen := benchChurned(b, row.warmup)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = m.Apply(gen.batch(8)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(32*b.N), "ns/update")
		})
	}
}

// BenchmarkMutableBuild measures the whole build of a mutable index
// from R and S, the build a store runs at construction, and reports
// the index it builds (index_MB, MutableIndex.SizeBytes).
func BenchmarkMutableBuild(b *testing.B) {
	R, S := mutBenchInput()
	cfg := Config{HalfExtent: 100, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var m *Mutable
	for i := 0; i < b.N; i++ {
		var err error
		if m, err = NewMutable(R, S, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Index().SizeBytes())/1e6, "index_MB")
	b.ReportMetric(float64(par.Limit(0)), "workers")
}

// buildCases are the inputs of BenchmarkBuild and BenchmarkCount: nyc
// points, n per side, at window half-extent l. The 25k rows are the
// keyspread workload's shape, whose registry misses each build one
// sampler at l in [50, 200].
var buildCases = []struct {
	name string
	n    int
	l    float64
}{
	{"nyc200k_l100", 200_000, 100},
	{"nyc25k_l50", 25_000, 50},
	{"nyc25k_l100", 25_000, 100},
	{"nyc25k_l150", 25_000, 150},
	{"nyc25k_l200", 25_000, 200},
}

// BenchmarkBuild times the data-structure building phase (Build: grid
// mapping with each cell's sorts, then the corner structures) alone:
// every op builds a fresh sampler. It reports the workers the phase
// may split its cells across (GOMAXPROCS; set it with -cpu).
func BenchmarkBuild(b *testing.B) {
	for _, c := range buildCases {
		b.Run(c.name, func(b *testing.B) {
			R, S := dataset.SplitRS(dataset.NYC(2*c.n, 1), 0.5, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewBBST(R, S, Config{HalfExtent: c.l, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(par.Limit(0)), "workers")
		})
	}
}

// BenchmarkCount times the upper-bounding phase (Count) alone, on the
// same inputs: every op counts a freshly built sampler, with Build
// outside the timer.
func BenchmarkCount(b *testing.B) {
	for _, c := range buildCases {
		b.Run(c.name, func(b *testing.B) {
			R, S := dataset.SplitRS(dataset.NYC(2*c.n, 1), 0.5, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := NewBBST(R, S, Config{HalfExtent: c.l, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Build(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.Count(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(par.Limit(0)), "workers")
		})
	}
}

// BenchmarkScanThreshold sweeps c in the scan threshold
// T = c·⌈log₂ m⌉ through the sampler's unexported scanC: S cells of at
// most T points answer their corners by an exact scan, larger ones
// through their BBST pair; c = 0 (T = 0) is the paper's pure BBST. On
// nyc inputs of n points per side, each c builds and counts one frozen
// sampler, then times 10k-sample SampleInto batches. It reports T,
// ns/sample and trials/sample over the timed batches, the build
// (Preprocess through Count) in build-ms and the footprint in MB.
func BenchmarkScanThreshold(b *testing.B) {
	for _, in := range []struct {
		n int
		l float64
	}{{25_000, 50}, {25_000, 200}, {200_000, 100}} {
		R, S := dataset.SplitRS(dataset.NYC(2*in.n, 1), 0.5, 2)
		for _, c := range []float64{0, 1, 2, 3, 4, 6} {
			b.Run(fmt.Sprintf("n=%dk/l=%g/c=%g", in.n/1000, in.l, c), func(b *testing.B) {
				start := time.Now()
				s, err := NewBBST(R, S, Config{HalfExtent: in.l, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				s.scanC = c
				if err := s.Count(); err != nil {
					b.Fatal(err)
				}
				build := time.Since(start)
				buf := make([]geom.Pair, 10_000)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := SampleInto(s, buf); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				samples := float64(b.N * len(buf))
				b.ReportMetric(float64(scanMax(c, len(S))), "T")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
				b.ReportMetric(float64(s.Stats().Iterations)/samples, "trials/sample")
				b.ReportMetric(float64(build.Microseconds())/1e3, "build-ms")
				b.ReportMetric(float64(s.SizeBytes())/(1<<20), "MB")
			})
		}
	}
}

// Sinks keep BenchmarkSlotTree's calls from being optimized away.
var (
	slotSink *slotRec
	treeSink *slotTree
)

// BenchmarkSlotTree isolates the mutable R-side draw and write over
// 100k random slots: one sample descent per op, and one commit of 32
// random slot writes (one churn batch's worth) per op.
func BenchmarkSlotTree(b *testing.B) {
	r := rng.New(1)
	recs := make([]slotRec, 100_000)
	for i := range recs {
		recs[i] = randomRec(r, int32(i))
	}
	tr := buildSlotTree(recs)
	b.Run("sample", func(b *testing.B) {
		total := tr.Total()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slotSink = tr.sample(r.Float64() * total)
		}
	})
	b.Run("setMany32", func(b *testing.B) {
		type batch struct {
			idx  []int32
			recs []slotRec
		}
		batches := make([]batch, 64)
		for k := range batches {
			idx := make([]int32, 32)
			for j := range idx {
				idx[j] = int32(r.Intn(len(recs)))
			}
			slices.Sort(idx)
			idx = slices.Compact(idx)
			bt := batch{idx: idx, recs: make([]slotRec, len(idx))}
			for j, i := range idx {
				bt.recs[j] = randomRec(r, i)
			}
			batches[k] = bt
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bt := batches[i%len(batches)]
			treeSink = tr.setMany(bt.idx, bt.recs)
		}
	})
}
