package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	srj "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wal"
)

// probes times each layer in process on the workload's own points,
// after its traced pass, each call inside a span: the core phases
// (the paper's Table III split) and trial loop, an engine draw and
// its per-request floor, wire encoding, the mutable store's adoption,
// writes and draws, and WAL appends.
func probes(ctx context.Context, w workload, in *inputs, sc scale, workDir string, tr *tracer) ([]metric, error) {
	ps := in.data[bulkKey]
	l := w.l
	if w.keys > 1 {
		l = keyspreadL(0, w.keys) // the most popular key
	}
	seed := mix(in.seed, probeSeed)
	buf := make([]srj.Pair, sc.probeT)
	var out []metric

	b, err := core.NewBBST(ps.R, ps.S, core.Config{HalfExtent: l, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, phase := range []struct {
		name string
		fn   func() error
	}{{"core.preprocess", b.Preprocess}, {"core.build", b.Build}, {"core.count", b.Count}} {
		if _, err := tr.probe(phase.name, phase.fn); err != nil {
			return nil, err
		}
	}
	d, err := tr.probe("core.sample", func() error {
		_, err := core.SampleInto(b, buf)
		return err
	})
	if err != nil {
		return nil, err
	}
	cs := b.Stats()
	out = append(out,
		metric{Name: "core.preprocess_ms", Value: ms(cs.PreprocessTime), Unit: "ms"},
		metric{Name: "core.gridmap_ms", Value: ms(cs.GridMapTime), Unit: "ms"},
		metric{Name: "core.upperbound_ms", Value: ms(cs.UpperBoundTime), Unit: "ms"},
		metric{Name: "core.ns_per_trial", Value: float64(d.Nanoseconds()) / float64(cs.Iterations), Unit: "ns"},
		metric{Name: "core.trials_per_sample", Value: float64(cs.Iterations) / float64(cs.Samples), Unit: "trials/sample"},
	)

	eng, err := srj.NewEngine(ps.R, ps.S, l, &srj.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	d, err = tr.probe("engine.draw", func() error {
		_, err := eng.Draw(ctx, srj.Request{Seed: seed, Into: buf})
		return err
	})
	if err != nil {
		return nil, err
	}
	var t1 []time.Duration
	_, err = tr.probe("engine.t1", func() error {
		for i := 0; i < sc.t1Draws; i++ {
			start := time.Now()
			if _, err := eng.Draw(ctx, srj.Request{Seed: seed + uint64(i) + 1, Into: buf[:1]}); err != nil {
				return err
			}
			t1 = append(t1, time.Since(start))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out,
		metric{Name: "engine.ns_per_sample", Value: float64(d.Nanoseconds()) / float64(len(buf)), Unit: "ns"},
		metric{Name: "engine.t1_us", Value: us(quantile(t1, 0.5)), Unit: "us"},
	)

	d, err = tr.probe("server.encode", func() error {
		var scratch []byte
		for off := 0; off < len(buf); off += engine.DefaultBatch {
			var err error
			if scratch, err = server.WriteStreamFrame(io.Discard, buf[off:min(off+engine.DefaultBatch, len(buf))], scratch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{Name: "server.wire_encode_ns_per_pair", Value: float64(d.Nanoseconds()) / float64(len(buf)), Unit: "ns"})

	// The store probe replays the churn writer's batch shape.
	gen := newChurnGen(ps, l, seed)
	first := gen.batch()
	batches := make([]srj.Update, sc.probeBatches)
	for i := range batches {
		batches[i] = gen.batch()
	}
	ops := sc.probeBatches * 4 * batchOps
	st, err := srj.NewStore(ps.R, ps.S, l, &srj.StoreOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	// The first Apply adopts the bulk-built base for in-place
	// maintenance (Unfreeze) before it applies its batch.
	unfreeze, err := tr.probe("dynamic.unfreeze", func() error {
		_, err := st.Apply(ctx, first)
		return err
	})
	if err != nil {
		return nil, err
	}
	apply, err := tr.probe("dynamic.apply", func() error {
		for _, u := range batches {
			if _, err := st.Apply(ctx, u); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d, err = tr.probe("dynamic.draw", func() error {
		_, err := st.Draw(ctx, srj.Request{Seed: seed, Into: buf})
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out,
		metric{Name: "dynamic.unfreeze_ms", Value: ms(unfreeze), Unit: "ms"},
		metric{Name: "dynamic.apply_us_per_op", Value: us(apply) / float64(ops), Unit: "us"},
		metric{Name: "dynamic.ns_per_sample", Value: float64(d.Nanoseconds()) / float64(len(buf)), Unit: "ns"},
		metric{Name: "dynamic.inplace_ops", Value: float64(st.InPlaceOps()), Unit: "count"},
		metric{Name: "dynamic.rebuilds", Value: float64(st.Rebuilds()), Unit: "count"},
	)

	walOut, err := walProbe(workDir, batches, tr)
	if err != nil {
		return nil, err
	}
	return append(out, walOut...), nil
}

// walProbe appends the batches to a fresh write-ahead log with fsync
// policy "always", one record per batch.
func walProbe(workDir string, batches []srj.Update, tr *tracer) ([]metric, error) {
	dir, err := os.MkdirTemp(workDir, "walprobe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	mgr, err := wal.OpenManager(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	ds, err := mgr.Open(srj.EngineKey{Dataset: bulkKey, L: 100, Algorithm: string(srj.BBST)})
	if err != nil {
		return nil, err
	}
	lat := make([]time.Duration, 0, len(batches))
	_, err = tr.probe("wal.append", func() error {
		for i, u := range batches {
			start := time.Now()
			if err := ds.Append(uint64(i+1), u); err != nil {
				return fmt.Errorf("wal append %d: %w", i+1, err)
			}
			lat = append(lat, time.Since(start))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := ds.PersistStats()
	return []metric{
		{Name: "wal.append_us_p50", Value: us(quantile(lat, 0.5)), Unit: "us"},
		{Name: "wal.bytes_per_op", Value: float64(st.Bytes) / float64(len(batches)*4*batchOps), Unit: "B/op"},
		{Name: "wal.syncs", Value: float64(st.Syncs), Unit: "count"},
	}, nil
}
