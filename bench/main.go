// Command bench is the repository benchmark. It runs a routed fleet in
// one process — two srj servers and one srj router, each on its own
// loopback listener, driven by srj clients — under four workloads, and
// checks every answer it gets. An untraced run prints the end-to-end
// metrics, the timed ones scaled to a fixed host speed (see hostSpeed);
// a traced run (-trace 1) prints the per-layer metrics, from
// spans the benchmark records at each layer boundary and from probes
// that time each layer in process.
//
// From the repository root:
//
//	bash bench/run.sh -workload bulk -seed 1 -seconds 10 -trace 0
//	go -C bench run . -seed 1 -trace 1 -json results.json
//
// The workload defaults to all four. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit status is non-zero when any operation failed or any
// correctness check did not hold. See README.md for the metrics, the
// workloads, and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	srj "repro"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, fullScale, ".bench_build")
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run that measured, but failed operations or
// correctness checks; the result line is printed regardless.
var errIncorrect = errors.New("operations failed or correctness checks did not hold")

// run executes the benchmark with explicit arguments, output, scale
// and working directory (write-ahead logs and span files) so tests
// can drive it directly.
func run(ctx context.Context, args []string, stdout io.Writer, sc scale, workDir string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: bulk, interactive, keyspread, churn, or all")
		seed    = fs.Uint64("seed", 1, "seed of every input: points, key sequence, update batches, draw seeds")
		seconds = fs.Float64("seconds", 10, "length of the timed window of an untraced run")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		jsonOut = fs.String("json", "", "also write every metric, check and note to this file as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	var selected []workload
	for _, w := range sc.workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}

	var reports []report
	for _, w := range selected {
		in := makeInputs(w, sc, *seed)
		var rep report
		var err error
		if *trace == 1 {
			rep, err = runTraced(ctx, w, in, sc, workDir)
		} else {
			rep, err = runTimed(ctx, w, in, sc, workDir, time.Duration(*seconds*float64(time.Second)))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.print(stdout)
		reports = append(reports, rep)
	}
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(map[string]any{"seed": *seed, "trace": *trace, "workloads": reports}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	line := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, rep := range reports {
		line.Correct = line.Correct && rep.Correct
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
		for _, m := range rep.Metrics {
			if m.Diag {
				continue
			}
			key := m.Name
			if len(reports) > 1 {
				key = rep.Workload + "." + m.Name
			}
			line.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(blob))
	if !line.Correct || line.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// runTimed is an untraced run: the host's speed, several set-ups
// (setup_s is their median), one timed window on the last fleet and
// its checks, and once that fleet is closed the host's speed again.
func runTimed(ctx context.Context, w workload, in *inputs, sc scale, workDir string, window time.Duration) (rep report, err error) {
	before, beforeNote, err := hostSpeed(sc)
	if err != nil {
		return rep, err
	}
	var setups []time.Duration
	var s *session
	for i := 0; i < sc.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return rep, err
			}
		}
		start := time.Now()
		if s, err = setup(ctx, w, in, workDir, nil); err != nil {
			return rep, err
		}
		setups = append(setups, time.Since(start))
	}
	m, err := s.measure(ctx, window, 0, nil)
	var checks []check
	if err == nil {
		checks = s.checks(ctx, sc)
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rep, err
	}
	after, afterNote, err := hostSpeed(sc)
	if err != nil {
		return rep, err
	}
	rep = newReport(w, false, m, checks)
	speed := metric{Name: "host_speed", Value: math.Sqrt(before * after), Unit: "ratio", Diag: true,
		Note: fmt.Sprintf("%.3f before (%s), %.3f after (%s)", before, beforeNote, after, afterNote)}
	rep.Metrics = endToEnd(w, setups, m.p, speed)
	return rep, nil
}

// runTraced is a traced run. Both of its passes run the workload's
// fixed traceOps draws on a fresh fleet: first untraced, as the
// reference for the tracing overhead, then traced. The layer probes
// follow, and the spans are written to workDir.
func runTraced(ctx context.Context, w workload, in *inputs, sc scale, workDir string) (rep report, err error) {
	s, err := setup(ctx, w, in, workDir, nil)
	if err != nil {
		return rep, err
	}
	ref := s.run(ctx, 0, w.traceOps, nil)
	if err := s.close(); err != nil {
		return rep, err
	}
	tr := newTracer()
	if s, err = setup(ctx, w, in, workDir, tr); err != nil {
		return rep, err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	m, err := s.measure(ctx, 0, w.traceOps, tr)
	if err != nil {
		return rep, err
	}
	if !w.writes {
		if err := s.writeProbe(ctx, sc, tr); err != nil {
			return rep, err
		}
	}
	checks := s.checks(ctx, sc)
	pm, err := probes(ctx, w, in, sc, workDir, tr)
	if err != nil {
		return rep, err
	}
	spans := filepath.Join(workDir, "spans-"+w.name+".json")
	if err := tr.write(spans); err != nil {
		return rep, err
	}

	rep = newReport(w, true, m, checks)
	rep.Attempted += ref.draws.attempted + ref.applies.attempted
	rep.Failed += ref.draws.failed + ref.applies.failed
	rep.Metrics = append(layerMetrics(tr, m), pm...)
	rate := func(p passResult) float64 { return float64(p.draws.samples) / p.window.Seconds() }
	p50 := func(p passResult) float64 { return ms(quantile(p.draws.lat, 0.5)) }
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("tracing overhead on %d draws: samples_per_s %.4g untraced vs %.4g traced (%+.1f%%), draw_p50_ms %.4g vs %.4g (%+.1f%%)",
			w.traceOps, rate(ref), rate(m.p), 100*(rate(m.p)/rate(ref)-1), p50(ref), p50(m.p), 100*(p50(m.p)/p50(ref)-1)),
		"spans written to "+spans)
	return rep, nil
}

// measured is one pass with the fleet's counters around it.
type measured struct {
	p             passResult
	before, after srj.ServerStats
	failovers     float64
	identity      check // the routed draw matched the home backend before the pass
}

// measure runs one pass (see session.run) between snapshots of the
// router's /v1/stats and /metrics.
func (s *session) measure(ctx context.Context, d time.Duration, maxOps int, tr *tracer) (m measured, err error) {
	m.identity = identity(ctx, s.f, s.key(0), s.in.seed, "before")
	fo, err := s.f.routerCounter(ctx, obs.MetricRouterFailovers)
	if err != nil {
		return m, err
	}
	if m.before, err = s.f.stats(ctx); err != nil {
		return m, err
	}
	m.p = s.run(ctx, d, maxOps, tr)
	if m.after, err = s.f.stats(ctx); err != nil {
		return m, err
	}
	m.failovers, err = s.f.routerCounter(ctx, obs.MetricRouterFailovers)
	m.failovers -= fo
	return m, err
}

// checks are the correctness checks after a pass: the routed draw
// still matches the home backend, the backends agree on the applied
// update sequence (churn), the sampler passes the chi-square test, and
// every pair delivered in the pass was valid.
func (s *session) checks(ctx context.Context, sc scale) []check {
	out := []check{identity(ctx, s.f, s.key(0), s.in.seed, "after")}
	if s.w.writes {
		out = append(out, agreement(ctx, s.f, s.key(0), s.applied))
	}
	out = append(out, chiSquare(ctx, s.f, s.in.data[checkKey], sc.checkL, sc.checkT, s.in.seed, s.chk))
	return append(out, s.chk.result())
}

// writeProbe sends update batches through the router to a small store
// of the check points, so that the router's broadcast path has spans
// in a traced run whose workload sends no writes.
func (s *session) writeProbe(ctx context.Context, sc scale, tr *tracer) error {
	key := srj.EngineKey{Dataset: checkKey, L: sc.checkL / 2, Algorithm: string(srj.BBST)}
	src := s.f.source(key)
	gen := newChurnGen(s.in.data[checkKey], key.L, mix(s.in.seed, probeSeed))
	for j := 0; j < sc.probeBatches; j++ {
		id := fmt.Sprint("probe-u", j)
		start := time.Now()
		_, err := src.Apply(srj.WithRequestID(ctx, id), gen.batch())
		tr.add("client apply", "", id, start, time.Now())
		if err != nil {
			return fmt.Errorf("write probe: %w", err)
		}
	}
	return nil
}

// metric is one named, measured value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"` // sample counts, percentile
	// Diag marks a metric printed and written to -json but left out of
	// the result line, which carries only the gated metrics: set-up
	// time, throughput and memory. Diagnostics are host_speed, the
	// latencies as measured (draws, and churn's applies), requests_per_s
	// (samples_per_s / t) and error_rate (zero by design; the line
	// carries attempted and failed). See README.md for why.
	Diag bool `json:"diag,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), q)]
}

// rank is the index of the nearest-rank q-quantile among n sorted
// values; n-1-rank values lie beyond it.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// endToEnd derives the end-to-end metrics of an untraced pass. The
// timed gated metrics are reported at the nominal host speed (see
// hostSpeed): set-up time multiplied by the host's speed, throughput
// divided by it.
func endToEnd(w workload, setups []time.Duration, p passResult, speed metric) []metric {
	win := p.window.Seconds()
	ok := len(p.draws.lat)
	beyond := ok - 1 - rank(ok, w.tailQ)
	tailNote := fmt.Sprintf("p%g of %d draws, %d beyond", 100*w.tailQ, ok, beyond)
	if beyond < 10 {
		tailNote += " (fewer than 10: lengthen the window)"
	}
	setup := quantile(setups, 0.5).Seconds()
	setupNote := "at host speed 1; as measured, median"
	for _, d := range setups {
		setupNote += fmt.Sprintf(" %.3f", d.Seconds())
	}
	rate := float64(p.draws.samples) / win
	out := []metric{
		{Name: "setup_s", Value: setup * speed.Value, Unit: "s", Note: setupNote},
		{Name: "samples_per_s", Value: rate / speed.Value, Unit: "1/s",
			Note: fmt.Sprintf("at host speed 1; as measured %.6g (%d samples in %.3f s)", rate, p.draws.samples, win)},
		{Name: "heap_mb", Value: p.heapMiB, Unit: "MiB", Note: "peak live heap, sampled every 50 ms"},
		speed,
		{Name: "requests_per_s", Value: float64(ok) / win, Unit: "1/s", Diag: true,
			Note: fmt.Sprintf("%d draws of t=%d, %d closed-loop clients", ok, w.t, w.clients)},
		{Name: "draw_p50_ms", Value: ms(quantile(p.draws.lat, 0.5)), Unit: "ms", Diag: true},
		{Name: "draw_tail_ms", Value: ms(quantile(p.draws.lat, w.tailQ)), Unit: "ms", Diag: true, Note: tailNote},
	}
	if w.writes {
		n := len(p.applies.lat)
		out = append(out,
			metric{Name: "apply_p50_ms", Value: ms(quantile(p.applies.lat, 0.5)), Unit: "ms", Diag: true,
				Note: fmt.Sprintf("%d batches, timed from when due; worst lateness %.3f ms", n, ms(p.late))},
			metric{Name: "apply_tail_ms", Value: ms(quantile(p.applies.lat, applyTailQ)), Unit: "ms", Diag: true,
				Note: fmt.Sprintf("p%g of %d batches, %d beyond", 100*applyTailQ, n, n-1-rank(n, applyTailQ))})
	}
	attempted := p.draws.attempted + p.applies.attempted
	failed := p.draws.failed + p.applies.failed
	return append(out, metric{Name: "error_rate", Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", Diag: true,
		Note: fmt.Sprintf("%d failed of %d attempted", failed, attempted)})
}

// layerMetrics derives the traffic-side per-layer metrics of a traced
// pass: self times from the spans, counts from /v1/stats and /metrics
// deltas across the pass.
func layerMetrics(tr *tracer, m measured) []metric {
	st := tr.selfTimes()
	b, a := m.before.Registry, m.after.Registry
	hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
	// Acceptance over every engine and store still resident: the
	// trials counters of /v1/stats, summed over their lifetimes.
	var samples, trials float64
	for _, e := range m.after.Engines {
		if e.Key.Generation == 0 {
			samples += float64(e.Engine.Samples)
			trials += float64(e.Engine.Trials)
		}
	}
	for _, info := range m.after.Stores {
		samples += float64(info.Engine.Samples)
		trials += float64(info.Engine.Trials)
	}
	return []metric{
		{Name: "engine.acceptance", Value: ratio(samples, trials), Unit: "ratio"},
		{Name: "registry.hit_ratio", Value: ratio(hits, hits+misses), Unit: "ratio"},
		{Name: "registry.builds", Value: float64(a.Builds - b.Builds), Unit: "count"},
		{Name: "registry.evictions", Value: float64(a.Evictions - b.Evictions), Unit: "count"},
		{Name: "registry.build_ms_mean", Value: 1000 * ratio(a.BuildLatency.Sum, float64(a.BuildLatency.Count)), Unit: "ms",
			Note: fmt.Sprintf("over all %d builds of the fleet, set-up included", a.BuildLatency.Count)},
		{Name: "server.span_us_p50", Value: us(quantile(st.serverSample, 0.5)), Unit: "us",
			Note: fmt.Sprintf("%d backend draw spans", len(st.serverSample))},
		{Name: "router.self_us_p50", Value: us(quantile(st.routerSample, 0.5)), Unit: "us",
			Note: "router draw span minus backend spans"},
		{Name: "router.broadcast_self_ms_p50", Value: ms(quantile(st.routerUpdate, 0.5)), Unit: "ms",
			Note: fmt.Sprintf("%d update broadcasts", len(st.routerUpdate))},
		{Name: "router.failovers", Value: m.failovers, Unit: "count"},
		{Name: "client.self_us_p50", Value: us(quantile(st.clientDraw, 0.5)), Unit: "us",
			Note: "client draw span minus router span"},
	}
}

// report is one workload's outcome.
type report struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes"`
	Metrics   []metric `json:"metrics"`
	Checks    []check  `json:"checks"`
}

func newReport(w workload, traced bool, m measured, checks []check) report {
	p := m.p
	rep := report{
		Workload:  w.name,
		Trace:     traced,
		Correct:   true,
		Attempted: p.draws.attempted + p.applies.attempted,
		Failed:    p.draws.failed + p.applies.failed,
		Checks:    append([]check{m.identity}, checks...),
	}
	for _, c := range rep.Checks {
		rep.Correct = rep.Correct && c.OK
	}
	desc := fmt.Sprintf("%s: nyc n=m=%d, %d closed-loop clients, t=%d", w.why, w.n, w.clients, w.t)
	switch {
	case w.keys > 1:
		desc += fmt.Sprintf(", %d keys with l in [50, 200] picked Zipf(%g), %d MiB engine budget per backend",
			w.keys, zipfS, w.budget>>20)
	case w.writes:
		desc += fmt.Sprintf(", l=%g, one batch of %d inserts + %d deletes every %v, WAL fsync %s",
			w.l, 2*batchOps, 2*batchOps, writeEvery, fsyncPolicy)
	default:
		desc += fmt.Sprintf(", l=%g", w.l)
	}
	b, a := m.before.Registry, m.after.Registry
	rep.Notes = []string{desc, fmt.Sprintf("registry over the pass: %d hits, %d misses (hit ratio %.3f), %d builds, %d evictions",
		a.Hits-b.Hits, a.Misses-b.Misses, ratio(float64(a.Hits-b.Hits), float64(a.Hits-b.Hits+a.Misses-b.Misses)),
		a.Builds-b.Builds, a.Evictions-b.Evictions)}
	for _, ls := range []loadStats{p.draws, p.applies} {
		if ls.err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%d operations failed; first: %v", ls.failed, ls.err))
		}
	}
	return rep
}

// value is a metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r report) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)\n", r.Workload, mode)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-30s %14.6g %-13s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "   check %-16s %-6s %s\n", c.Name, status, c.Detail)
	}
}
