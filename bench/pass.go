package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	srj "repro"
)

// session is one fleet set up for a workload, plus the workload's
// client-side state on that fleet.
type session struct {
	w    workload
	in   *inputs
	f    *fleet
	chk  *checker
	srcs []*srj.Client // one bound source per engine key
	keys *keySeq       // keyspread: which source request i uses
	gen  *churnGen     // churn: the writer's batches
	// applied counts the update batches the router acknowledged.
	applied uint64
}

// setup builds a fleet for w and warms it up to the first timed
// request: engine builds (keyspread: the warmKeys most popular keys,
// least popular first), and for churn the first update batch, which
// creates a store on every backend and adopts it for in-place
// maintenance.
func setup(ctx context.Context, w workload, in *inputs, workDir string, tr *tracer) (*session, error) {
	f, err := newFleet(fleetConfig{data: in.data, budget: w.budget, durable: w.writes, workDir: workDir, tr: tr})
	if err != nil {
		return nil, err
	}
	s := &session{w: w, in: in, f: f, chk: newChecker()}
	ls := []float64{w.l}
	if w.keys > 1 {
		s.keys = newKeySeq(w.keys, in.seed)
		ls = make([]float64, w.keys)
		for k := range ls {
			ls[k] = keyspreadL(k, w.keys)
		}
	}
	for _, l := range ls {
		s.srcs = append(s.srcs, f.source(srj.EngineKey{Dataset: bulkKey, L: l, Algorithm: string(srj.BBST)}))
	}
	if w.writes {
		s.gen = newChurnGen(in.data[bulkKey], w.l, in.seed)
		u := s.gen.batch()
		if _, err := s.srcs[0].Apply(ctx, u); err != nil {
			f.close()
			return nil, fmt.Errorf("first update: %w", err)
		}
		s.chk.acked(u)
		s.applied++
	}
	for k := max(w.warmKeys, 1) - 1; k >= 0; k-- {
		if _, err := s.srcs[k].Draw(ctx, srj.Request{T: 1, Seed: 1}); err != nil {
			f.close()
			return nil, fmt.Errorf("warming %s: %w", s.key(k), err)
		}
	}
	return s, nil
}

func (s *session) key(k int) srj.EngineKey {
	key, _ := s.srcs[k].Key()
	return key
}

func (s *session) close() error { return s.f.close() }

// loadStats is the outcome of one kind of operation in a pass.
type loadStats struct {
	lat       []time.Duration // of successful operations
	samples   int64
	attempted int
	failed    int
	err       error // the first failure
}

func (a *loadStats) record(d time.Duration, samples int, err error) {
	a.attempted++
	if err != nil {
		a.failed++
		if a.err == nil {
			a.err = err
		}
		return
	}
	a.lat = append(a.lat, d)
	a.samples += int64(samples)
}

func (a *loadStats) merge(b loadStats) {
	a.lat = append(a.lat, b.lat...)
	a.samples += b.samples
	a.attempted += b.attempted
	a.failed += b.failed
	if a.err == nil {
		a.err = b.err
	}
}

// closedLoop runs clients goroutines that each issue op back to back:
// a client sends its next request only once the previous one answered.
// They stop claiming operations once until has passed (until zero: no
// time limit) or maxOps were claimed (maxOps zero: no count limit).
func closedLoop(ctx context.Context, clients int, until time.Time, maxOps int, op func(ctx context.Context, i int) (int, error)) loadStats {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total loadStats
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ls loadStats
			for ctx.Err() == nil && (until.IsZero() || time.Now().Before(until)) {
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i >= maxOps {
					break
				}
				start := time.Now()
				n, err := op(ctx, i)
				ls.record(time.Since(start), n, err)
			}
			mu.Lock()
			total.merge(ls)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// drawSeed is the per-request stream seed of draw i: every draw is
// reproducible, so a pass of fixed length does identical sampling work
// for a given seed whatever the interleaving.
func drawSeed(seed uint64, i int) uint64 { return mix(seed, 1<<32+uint64(i)) | 1 }

// draw issues draw i of a pass, checking every delivered pair.
func (s *session) draw(ctx context.Context, i int, tr *tracer) (int, error) {
	k := 0
	if s.keys != nil {
		k = s.keys.at(i)
	}
	l := s.key(k).L
	id := ""
	if tr != nil {
		id = s.w.name + "-d" + strconv.Itoa(i)
		ctx = srj.WithRequestID(ctx, id)
	}
	n := 0
	start := time.Now()
	err := s.srcs[k].DrawFunc(ctx, srj.Request{T: s.w.t, Seed: drawSeed(s.in.seed, i)}, func(b []srj.Pair) error {
		n += len(b)
		s.chk.window(b, l)
		if s.w.writes {
			s.chk.notDeleted(b, start)
		}
		return nil
	})
	tr.add("client draw", "", id, start, time.Now())
	return n, err
}

// write is the churn writer: an open loop sending one batch per
// writeEvery on a fixed schedule, each timed from when it was due, so
// a stall also charges the batches queued behind it. It stops at until
// (unless zero) or when stop closes, and reports its worst lateness.
func (s *session) write(ctx context.Context, start, until time.Time, stop <-chan struct{}, tr *tracer) (loadStats, time.Duration) {
	var ls loadStats
	var late time.Duration
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * writeEvery)
		if !until.IsZero() && !due.Before(until) {
			break
		}
		u := s.gen.batch()
		select {
		case <-ctx.Done():
			return ls, late
		case <-stop:
			return ls, late
		case <-time.After(time.Until(due)):
		}
		late = max(late, time.Since(due))
		uctx, id := ctx, ""
		if tr != nil {
			id = s.w.name + "-u" + strconv.Itoa(j)
			uctx = srj.WithRequestID(ctx, id)
		}
		sent := time.Now()
		_, err := s.srcs[0].Apply(uctx, u)
		tr.add("client apply", "", id, sent, time.Now())
		if err == nil {
			s.chk.acked(u)
			s.applied++
		}
		ls.record(time.Since(due), 0, err)
	}
	return ls, late
}

// passResult is one measured pass of a workload.
type passResult struct {
	draws, applies loadStats
	window         time.Duration // from the first request to the last answer
	late           time.Duration // the churn writer's worst lateness
	heapMiB        float64       // peak live heap during the pass
}

// run measures one pass: for d (when positive) or for maxOps draws.
func (s *session) run(ctx context.Context, d time.Duration, maxOps int, tr *tracer) passResult {
	// Twice: the first collection moves what the sync.Pools of fleets
	// closed during set-up still hold into the pools' victim caches, the
	// second frees it. With one, whether a closed fleet's engines still
	// counted as live depended on how many collections set-up happened
	// to trigger, and heap_mb read 68 or 110 MiB on bulk.
	runtime.GC()
	runtime.GC()
	peak := watchHeap()
	start := time.Now()
	var until time.Time
	if d > 0 {
		until = start.Add(d)
	}
	var p passResult
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if s.w.writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.applies, p.late = s.write(ctx, start, until, stop, tr)
		}()
	}
	p.draws = closedLoop(ctx, s.w.clients, until, maxOps, func(ctx context.Context, i int) (int, error) {
		return s.draw(ctx, i, tr)
	})
	p.window = time.Since(start)
	close(stop)
	wg.Wait()
	p.heapMiB = peak()
	return p
}

// watchHeap samples the live heap — the bytes the latest garbage
// collection marked reachable — every 50 ms without stopping the
// world; the returned func stops sampling and reports the peak in MiB.
// The heap in use (HeapInuse) also counts garbage awaiting the next
// collection, so its peak depends on where collections happen to fall:
// it spread by 40% between runs of the same workload.
func watchHeap() func() float64 {
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() float64 {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64())
	}
	quit := make(chan struct{})
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		p := read()
		for {
			select {
			case <-t.C:
				p = max(p, read())
			case <-quit:
				peak <- max(p, read())
				return
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-peak / mib
	}
}
