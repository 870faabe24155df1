package core

// Mutable-vs-frozen rows: draw cost of the in-place maintained index
// next to the frozen BBSTSampler on the same points, the cost of one
// churn batch, and the one-off Unfreeze. Inputs are nyc-shaped, about
// 100k points per side at l = 100.

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
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

// BenchmarkMutableDraw compares one sample from the frozen sampler
// with one from its unfrozen Mutable after 100 churn batches.
func BenchmarkMutableDraw(b *testing.B) {
	b.Run("frozen", func(b *testing.B) {
		benchDraws(b, benchFrozen(b))
	})
	b.Run("mutable", func(b *testing.B) {
		m, err := benchFrozen(b).Unfreeze()
		if err != nil {
			b.Fatal(err)
		}
		R, S := mutBenchInput()
		gen := newChurnGen(R, S, dataset.NYC(10_000, 7), 3)
		for i := 0; i < 100; i++ {
			if m, err = m.Apply(gen.batch(8)); err != nil {
				b.Fatal(err)
			}
		}
		benchDraws(b, m)
	})
}

// BenchmarkMutableApply measures one 32-op churn batch (8 inserts and
// 8 deletes per side), one op per batch.
func BenchmarkMutableApply(b *testing.B) {
	m, err := benchFrozen(b).Unfreeze()
	if err != nil {
		b.Fatal(err)
	}
	R, S := mutBenchInput()
	gen := newChurnGen(R, S, dataset.NYC(10_000, 7), 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, err = m.Apply(gen.batch(8)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(32*b.N), "ns/update")
}

// BenchmarkUnfreeze measures adopting a counted frozen sampler for
// in-place maintenance.
func BenchmarkUnfreeze(b *testing.B) {
	s := benchFrozen(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Unfreeze(); err != nil {
			b.Fatal(err)
		}
	}
}
