// Command srjbench reproduces the paper's evaluation: every table and
// figure of Section V, at a configurable scale. It also has a serving
// throughput mode (-serve) that builds an Engine once and hammers it
// with concurrent clients, reporting aggregate samples/sec against a
// rebuild-per-request baseline; with -remote the same measurement
// runs over the wire against a live srjserver, comparing its cached-
// engine path (registry hits) to rebuild-per-request (distinct keys).
//
// Usage:
//
//	srjbench                      # run everything at the default scale
//	srjbench -exp table3,figure9  # selected experiments only
//	srjbench -base 100000         # larger datasets (castreet=base .. nyc=8*base)
//	srjbench -t 1000000 -l 50     # override samples and window size
//	srjbench -list
//	srjbench -serve -base 100000 -clients 8 -requests 100 -reqt 10000
//	srjbench -serve -remote http://localhost:8080 -dataset nyc -reqt 10000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	srj "repro"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/server"
)

// paperOrder is the presentation order of the experiments when running
// everything.
var paperOrder = []string{"table2", "figure4", "accuracy", "table3", "table4",
	"figure5", "figure6", "figure7", "figure8", "figure9"}

// baselineSeedOffset displaces the rebuild-baseline's throwaway
// registry keys far from any seed a user would pass by hand, so the
// baseline never collides with the bench key (or an interactively
// warmed engine) on a shared server.
const baselineSeedOffset = uint64(1) << 32

// run executes srjbench with explicit arguments and output so tests
// can drive it directly. Cancelling ctx (main wires it to SIGINT and
// SIGTERM) stops the run cleanly between experiments and between
// sampling batches, never mid-write.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("srjbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		base    = fs.Int("base", 50000, "base dataset size; the four datasets use base, 2x, 4x, 8x")
		t       = fs.Int("t", 100000, "number of samples per run (the paper's t, scaled)")
		l       = fs.Float64("l", 100, "window half-extent (the paper's l)")
		seed    = fs.Uint64("seed", 1, "seed for data generation and sampling; also bases the serve mode rebuild-baseline key space, so runs are reproducible (0 = derive from the clock for guaranteed-fresh keys)")
		expList = fs.String("exp", "", "comma-separated experiments to run (default: all)")
		format  = fs.String("format", "table", "output format: table or csv")
		list    = fs.Bool("list", false, "list experiment names and exit")

		serve    = fs.Bool("serve", false, "serving throughput mode: hammer an Engine with concurrent clients")
		remote   = fs.String("remote", "", "serve mode: benchmark a running srjserver at this base URL instead of an in-process Engine; several comma-separated URLs shard the bench through a consistent-hash Router")
		dataset  = fs.String("dataset", "nyc", "serve mode: dataset for R and S (each of size -base)")
		algo     = fs.String("algo", "bbst", "serve mode: sampling algorithm")
		clients  = fs.Int("clients", runtime.NumCPU(), "serve mode: concurrent client goroutines")
		requests = fs.Int("requests", 100, "serve mode: requests per client")
		reqT     = fs.Int("reqt", 10000, "serve mode: samples per request")
		updRate  = fs.Float64("update-rate", 0, "serve mode: fraction of requests that are insert/delete batches instead of draws (0 disables; local mode serves through a mutable Store, remote mode posts /v1/update — which mutates the server-side dataset for the benched key)")
		metrics  = fs.Bool("metrics", false, "serve mode: dump a Prometheus text-exposition snapshot of the bench's draw metrics after the run")
		replicas = fs.Int("read-replicas", 0, "remote serve mode: spread the benched key's draws across its first k healthy backends (needs -remote with at least 2 URLs; 0 = single home backend)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *serve {
		if *updRate < 0 || *updRate >= 1 {
			return fmt.Errorf("-update-rate must be in [0, 1), got %g", *updRate)
		}
		if *updRate > 0 && server.NormalizeAlgorithm(*algo) != string(srj.BBST) {
			return fmt.Errorf("-update-rate needs -algo %s: dynamic stores are BBST-only, got %q", srj.BBST, *algo)
		}
		cfg := serveConfig{
			dataset:    *dataset,
			n:          *base,
			l:          *l,
			seed:       *seed,
			algo:       srj.Algorithm(*algo),
			clients:    *clients,
			requests:   *requests,
			reqT:       *reqT,
			updateRate: *updRate,
			metrics:    *metrics,
		}
		cfg.readReplicas = *replicas
		if *replicas != 0 && *remote == "" {
			return fmt.Errorf("-read-replicas needs -remote: replica spread is a router property, and the local mode has no fleet")
		}
		if *remote != "" {
			// The dataset lives server-side in remote mode, so a
			// locally-set -base would silently mean nothing; refuse
			// rather than let a benchmark measure the wrong workload.
			baseSet := false
			fs.Visit(func(f *flag.Flag) { baseSet = baseSet || f.Name == "base" })
			if baseSet {
				return fmt.Errorf("-base has no effect with -remote: the dataset size is the server's -n; restart srjserver with the size you want to measure")
			}
			return runServeRemote(ctx, stdout, cfg, *remote)
		}
		return runServe(ctx, stdout, cfg)
	}

	scale := exp.DefaultScale(*base)
	scale.T = *t
	scale.L = *l
	scale.Seed = *seed
	runners := exp.Runners(scale)

	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	if *list {
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	selected := paperOrder
	if *expList != "" {
		selected = strings.Split(*expList, ",")
	}
	for _, name := range selected {
		if err := ctx.Err(); err != nil {
			return err
		}
		name = strings.TrimSpace(name)
		runner, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(names, ", "))
		}
		start := time.Now()
		tbl, err := runner()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		switch *format {
		case "table":
			fmt.Fprintln(stdout, tbl.Render())
			fmt.Fprintf(stdout, "(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		case "csv":
			fmt.Fprint(stdout, tbl.CSV())
			fmt.Fprintln(stdout)
		default:
			return fmt.Errorf("unknown format %q (table or csv)", *format)
		}
	}
	return nil
}

// serveConfig parameterizes the serving throughput mode.
type serveConfig struct {
	dataset    string
	n          int
	l          float64
	seed       uint64
	algo       srj.Algorithm
	clients    int
	requests   int
	reqT       int
	updateRate float64 // fraction of requests that are update batches
	metrics    bool    // dump an exposition snapshot after the run
	// readReplicas spreads the benched key's draws over its first k
	// healthy backends (remote fleet mode only); the per-backend
	// request counters printed after the run show the spread.
	readReplicas int
}

// printLatencyQuantiles reports p50/p95/p99 interpolated from a draw
// latency histogram; a run too short to fill any bucket prints
// nothing rather than NaNs.
func printLatencyQuantiles(stdout io.Writer, snap obs.HistogramSnapshot) {
	printQuantiles(stdout, "latency", snap)
}

// printQuantiles reports p50/p95/p99 under a caller-chosen label, so
// the mixed workload prints draw and apply latency side by side.
func printQuantiles(stdout io.Writer, what string, snap obs.HistogramSnapshot) {
	p50, p95, p99 := snap.Quantile(0.50), snap.Quantile(0.95), snap.Quantile(0.99)
	if math.IsNaN(p50) {
		return
	}
	fmt.Fprintf(stdout, "%s quantiles: p50 %v, p95 %v, p99 %v\n", what,
		time.Duration(p50*float64(time.Second)).Round(time.Microsecond),
		time.Duration(p95*float64(time.Second)).Round(time.Microsecond),
		time.Duration(p99*float64(time.Second)).Round(time.Microsecond))
}

// dumpExposition renders the bench's own draw metrics in the same
// Prometheus text shape srjserver's GET /metrics serves, so the
// output pastes straight into exposition-aware tooling.
func dumpExposition(stdout io.Writer, algo string, snap obs.HistogramSnapshot, samples uint64) {
	m := obs.NewMetricSet()
	label := obs.L(obs.LabelAlgorithm, algo)
	m.Histogram(obs.MetricDrawDuration, "Draw latency as observed by srjbench.", snap, label)
	m.Counter(obs.MetricDrawSamples, "Join samples drawn by srjbench.", float64(samples), label)
	fmt.Fprintln(stdout, "--- metrics snapshot ---")
	if _, err := m.WriteTo(stdout); err != nil {
		fmt.Fprintf(stdout, "warning: metrics snapshot failed: %v\n", err)
	}
}

// hammer fans clients goroutines out, each issuing requests calls of
// do, and returns the first error any client hit. Both serve modes
// use it for their measured phase and their baseline. A canceled ctx
// stops every client between requests (the Source draws inside do
// also honor it between batches).
func hammer(ctx context.Context, clients, requests int, do func(client, req int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				if err := do(i, r); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runMixed is the mixed read/write hammer behind -update-rate: each
// request is a draw through src, or — with probability
// cfg.updateRate — an insert/delete batch through apply. Each client
// inserts points with IDs from its own range and deletes the batch it
// inserted two updates earlier, so the dataset churns at a steady
// size instead of growing without bound.
func runMixed(ctx context.Context, stdout io.Writer, cfg serveConfig, src srj.Source, apply func(ctx context.Context, u srj.Update) (uint64, error), timeout time.Duration) error {
	fmt.Fprintf(stdout, "%d clients x %d requests x %d samples/request, update rate %.2f\n",
		cfg.clients, cfg.requests, cfg.reqT, cfg.updateRate)
	const batchPts = 4 // points inserted per side per update batch
	type clientState struct {
		rng     *rand.Rand
		batches int       // update batches this client has issued
		prev    [][]int32 // ID batches awaiting deletion (fifo, depth 2)
	}
	states := make([]*clientState, cfg.clients)
	for i := range states {
		states[i] = &clientState{rng: rand.New(rand.NewSource(int64(cfg.seed) + int64(i)*7919))}
	}
	var draws, drawSamples, updates, updateOps atomic.Int64
	var lastGen atomic.Uint64
	hist := obs.NewHistogram(obs.DrawDurationBuckets)
	// Apply latency gets its own histogram: the in-place write path's
	// acceptance criterion is that these quantiles stay flat however
	// many batches have been applied.
	applyHist := obs.NewHistogram(obs.DrawDurationBuckets)
	domain := 10_000.0
	start := time.Now()
	err := hammer(ctx, cfg.clients, cfg.requests, func(client, _ int) error {
		reqCtx := ctx
		if timeout > 0 {
			var cancel context.CancelFunc
			reqCtx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		st := states[client]
		if st.rng.Float64() >= cfg.updateRate {
			drawStart := time.Now()
			err := src.DrawFunc(reqCtx, srj.Request{T: cfg.reqT}, func([]srj.Pair) error { return nil })
			if err == nil {
				hist.Observe(time.Since(drawStart).Seconds())
				draws.Add(1)
				drawSamples.Add(int64(cfg.reqT))
			}
			return err
		}
		// IDs far above any generated dataset's range, disjoint per
		// client and never reused: (1<<28) + client*(1<<20) + counter.
		idBase := int32(1<<28) + int32(client)<<20 + int32(st.batches)*2*batchPts
		st.batches++
		u := srj.Update{}
		ids := make([]int32, 0, 2*batchPts)
		for i := 0; i < batchPts; i++ {
			id := idBase + int32(i)
			u.InsertR = append(u.InsertR, srj.Point{ID: id, X: st.rng.Float64() * domain, Y: st.rng.Float64() * domain})
			ids = append(ids, id)
		}
		for i := 0; i < batchPts; i++ {
			id := idBase + int32(batchPts+i)
			u.InsertS = append(u.InsertS, srj.Point{ID: id, X: st.rng.Float64() * domain, Y: st.rng.Float64() * domain})
			ids = append(ids, id)
		}
		if len(st.prev) >= 2 {
			old := st.prev[0]
			st.prev = st.prev[1:]
			u.DeleteR = append(u.DeleteR, old[:batchPts]...)
			u.DeleteS = append(u.DeleteS, old[batchPts:]...)
		}
		st.prev = append(st.prev, ids)
		applyStart := time.Now()
		gen, err := apply(reqCtx, u)
		if err != nil {
			return err
		}
		applyHist.Observe(time.Since(applyStart).Seconds())
		updates.Add(1)
		updateOps.Add(int64(len(u.InsertR) + len(u.InsertS) + len(u.DeleteR) + len(u.DeleteS)))
		for {
			cur := lastGen.Load()
			if gen <= cur || lastGen.CompareAndSwap(cur, gen) {
				break
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "mixed workload finished in %v: %d draws (%d samples), %d update batches (%d ops), dataset at generation %d\n",
		elapsed.Round(time.Millisecond), draws.Load(), drawSamples.Load(), updates.Load(), updateOps.Load(), lastGen.Load())
	fmt.Fprintf(stdout, "throughput: %.3g samples/sec alongside %.1f updates/sec\n",
		float64(drawSamples.Load())/elapsed.Seconds(), float64(updates.Load())/elapsed.Seconds())
	printQuantiles(stdout, "draw latency", hist.Snapshot())
	printQuantiles(stdout, "apply latency", applyHist.Snapshot())
	if cfg.metrics {
		dumpExposition(stdout, string(cfg.algo), hist.Snapshot(), uint64(drawSamples.Load()))
	}
	return nil
}

// runServeMixedLocal is the -update-rate variant of runServe: the
// dataset is served through a mutable Store, and a fraction of the
// hammer's requests are update batches.
func runServeMixedLocal(ctx context.Context, stdout io.Writer, cfg serveConfig) error {
	R, err := srj.Generate(cfg.dataset, cfg.n, cfg.seed)
	if err != nil {
		return err
	}
	S, err := srj.Generate(cfg.dataset, cfg.n, cfg.seed+1)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serve (mutable): algorithm=%s dataset=%s n=m=%d l=%g\n",
		cfg.algo, cfg.dataset, cfg.n, cfg.l)
	buildStart := time.Now()
	store, err := srj.NewStore(R, S, cfg.l, &srj.StoreOptions{Seed: cfg.seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "store base built once in %v (%.1f MiB)\n",
		time.Since(buildStart).Round(time.Millisecond), float64(store.SizeBytes())/(1<<20))
	if err := runMixed(ctx, stdout, cfg, store, store.Apply, 0); err != nil {
		return err
	}
	st := store.Stats()
	fmt.Fprintf(stdout, "store: generation %d, avg draw latency %v\n",
		store.Generation(), st.AvgLatency().Round(time.Microsecond))
	fmt.Fprintf(stdout, "write path: %d ops absorbed in place, %d base rebuilds\n",
		store.InPlaceOps(), store.Rebuilds())
	return nil
}

// runServe builds an Engine once and hammers it with clients×requests
// concurrent sampling requests of reqT samples each through the
// Source API, then reports the aggregate throughput next to a
// rebuild-per-request baseline (what a service calling the one-shot
// srj.Sample per query would pay).
func runServe(ctx context.Context, stdout io.Writer, cfg serveConfig) error {
	if cfg.clients < 1 || cfg.requests < 1 || cfg.reqT < 1 {
		return fmt.Errorf("serve mode needs positive -clients, -requests, -reqt")
	}
	if cfg.updateRate > 0 {
		return runServeMixedLocal(ctx, stdout, cfg)
	}
	R, err := srj.Generate(cfg.dataset, cfg.n, cfg.seed)
	if err != nil {
		return err
	}
	S, err := srj.Generate(cfg.dataset, cfg.n, cfg.seed+1)
	if err != nil {
		return err
	}
	opts := &srj.Options{Algorithm: cfg.algo, Seed: cfg.seed}

	fmt.Fprintf(stdout, "serve: algorithm=%s dataset=%s n=m=%d l=%g\n",
		cfg.algo, cfg.dataset, cfg.n, cfg.l)

	buildStart := time.Now()
	eng, err := srj.NewEngine(R, S, cfg.l, opts)
	if err != nil {
		return err
	}
	if err := eng.Warm(cfg.clients); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "engine built once in %v (%.1f MiB of shared structures)\n",
		time.Since(buildStart).Round(time.Millisecond),
		float64(eng.SizeBytes())/(1<<20))

	fmt.Fprintf(stdout, "%d clients x %d requests x %d samples/request\n",
		cfg.clients, cfg.requests, cfg.reqT)
	bufs := make([][]srj.Pair, cfg.clients) // one reused buffer per client
	for i := range bufs {
		bufs[i] = make([]srj.Pair, cfg.reqT)
	}
	start := time.Now()
	if err := hammer(ctx, cfg.clients, cfg.requests, func(client, _ int) error {
		_, err := eng.Draw(ctx, srj.Request{Into: bufs[client]})
		return err
	}); err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := eng.Stats()
	engineRate := float64(st.Samples) / elapsed.Seconds()
	fmt.Fprintf(stdout, "served %d requests (%d samples) in %v\n",
		st.Requests, st.Samples, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "throughput: %.3g samples/sec, %.1f requests/sec\n",
		engineRate, float64(st.Requests)/elapsed.Seconds())
	fmt.Fprintf(stdout, "latency: avg %v, max %v\n",
		st.AvgLatency().Round(time.Microsecond), st.MaxLatency.Round(time.Microsecond))
	printLatencyQuantiles(stdout, st.Latency)
	if cfg.metrics {
		dumpExposition(stdout, string(cfg.algo), st.Latency, st.Samples)
	}

	// Rebuild-per-request baseline at the same concurrency: every
	// request pays the full build-count-sample pipeline, as a service
	// calling the one-shot srj.Sample per query would. Two requests
	// per client keep the baseline affordable while damping variance.
	const baselineRequests = 2
	rebuildStart := time.Now()
	if err := hammer(ctx, cfg.clients, baselineRequests, func(_, _ int) error {
		_, err := srj.Sample(R, S, cfg.l, cfg.reqT, opts)
		return err
	}); err != nil {
		return err
	}
	rebuild := time.Since(rebuildStart)
	nBaseline := cfg.clients * baselineRequests
	rebuildRate := float64(nBaseline*cfg.reqT) / rebuild.Seconds()
	fmt.Fprintf(stdout, "rebuild-per-request baseline (%d clients x %d requests): %v per request => %.3g samples/sec (engine is %.1fx faster)\n",
		cfg.clients, baselineRequests,
		(rebuild / time.Duration(baselineRequests)).Round(time.Millisecond),
		rebuildRate, engineRate/rebuildRate)
	return nil
}

// remoteTarget abstracts what the remote bench talks to: one
// srjserver through a bound Client, or a fleet of them through a
// consistent-hash Router. Both bind keys to Sources, evict throwaway
// engines, and report registry stats — so the measured loop is
// literally the same code either way.
type remoteTarget interface {
	bind(key srj.EngineKey) srj.Source
	health(ctx context.Context) error
	evict(ctx context.Context, key srj.EngineKey) (bool, error)
	apply(ctx context.Context, key srj.EngineKey, u srj.Update) (uint64, error)
	printStats(ctx context.Context, stdout io.Writer) error
}

// clientTarget is a single srjserver.
type clientTarget struct{ cl *srj.Client }

func (t clientTarget) bind(key srj.EngineKey) srj.Source { return t.cl.Bind(key) }
func (t clientTarget) health(ctx context.Context) error  { return t.cl.Health(ctx) }
func (t clientTarget) evict(ctx context.Context, key srj.EngineKey) (bool, error) {
	return t.cl.EvictEngine(ctx, key)
}
func (t clientTarget) apply(ctx context.Context, key srj.EngineKey, u srj.Update) (uint64, error) {
	return t.cl.Bind(key).Apply(ctx, u)
}
func (t clientTarget) printStats(ctx context.Context, stdout io.Writer) error {
	st, err := t.cl.Stats(ctx)
	if err != nil {
		return err
	}
	printRegistryLine(stdout, "server", st)
	return nil
}

// routerTarget is a sharded fleet behind srj.Router.
type routerTarget struct{ rt *srj.Router }

func (t routerTarget) bind(key srj.EngineKey) srj.Source { return t.rt.Bind(key) }
func (t routerTarget) health(ctx context.Context) error  { return t.rt.Health(ctx) }
func (t routerTarget) evict(ctx context.Context, key srj.EngineKey) (bool, error) {
	return t.rt.EvictEngine(ctx, key)
}
func (t routerTarget) apply(ctx context.Context, key srj.EngineKey, u srj.Update) (uint64, error) {
	res, err := t.rt.ApplyUpdate(ctx, key, u)
	return res.Generation, err
}
func (t routerTarget) printStats(ctx context.Context, stdout io.Writer) error {
	// ServerStats returns whatever the reachable backends answered
	// alongside the first error; a shard that died during the bench
	// must not erase the numbers the survivors reported.
	stats, err := t.rt.ServerStats(ctx)
	if len(stats) == 0 {
		return err
	}
	for _, b := range t.rt.Backends() {
		if st, ok := stats[b]; ok {
			printRegistryLine(stdout, b, st)
		}
	}
	for _, b := range t.rt.Stats().Backends {
		fmt.Fprintf(stdout, "router: %s healthy=%v %d requests, %d failures, %d failovers\n",
			b.Addr, b.Healthy, b.Requests, b.Failures, b.Failovers)
	}
	if err != nil {
		fmt.Fprintf(stdout, "warning: some backends unreachable for stats: %v\n", err)
	}
	return nil
}

func printRegistryLine(stdout io.Writer, who string, st srj.ServerStats) {
	fmt.Fprintf(stdout, "%s registry: %d hits, %d misses, %d builds, %d budget evictions, %d resident engines (%.1f MiB)\n",
		who, st.Registry.Hits, st.Registry.Misses, st.Registry.Builds, st.Registry.Evictions,
		st.Registry.Entries, float64(st.Registry.Bytes)/(1<<20))
}

// runServeRemote benchmarks a running srjserver (or, with several
// comma-separated addresses, a sharded fleet through a Router) over
// the wire, through the same Source API the local mode uses — the
// bound client or router is a drop-in for the in-process Engine. The
// cached-engine path hammers one (dataset, l, algorithm, seed) key —
// after the first request every one is a registry hit — then a
// rebuild-per-request baseline gives every request a distinct seed,
// forcing a registry miss and a full preprocessing pass per request
// (with a router, those distinct keys also spread across the ring,
// which is the horizontal-scaling story measured end to end). The
// ratio is the network-served version of the paper's amortization
// argument.
func runServeRemote(ctx context.Context, stdout io.Writer, cfg serveConfig, base string) error {
	if cfg.clients < 1 || cfg.requests < 1 || cfg.reqT < 1 {
		return fmt.Errorf("serve mode needs positive -clients, -requests, -reqt")
	}
	// Every call is bounded: a quick probe for reachability, then a
	// generous per-request ceiling so a stalled server fails the
	// bench instead of hanging it forever. The transport keeps one
	// idle connection per client goroutine — http.DefaultClient's two
	// would churn TCP connections and understate cached throughput.
	const requestTimeout = 5 * time.Minute
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = cfg.clients
	hc := &http.Client{Transport: transport}

	var addrs []string
	for _, a := range strings.Split(base, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	var target remoteTarget
	switch len(addrs) {
	case 0:
		return fmt.Errorf("-remote needs at least one base URL")
	case 1:
		if cfg.readReplicas > 1 {
			return fmt.Errorf("-read-replicas %d needs at least 2 -remote URLs: one backend has nothing to spread over", cfg.readReplicas)
		}
		target = clientTarget{cl: srj.NewClientHTTP(addrs[0], hc)}
	default:
		rt, err := srj.NewRouter(addrs, srj.RouterOptions{HTTPClient: hc, ReadReplicas: cfg.readReplicas})
		if err != nil {
			return err
		}
		defer rt.Close()
		target = routerTarget{rt: rt}
		if cfg.readReplicas > 1 {
			fmt.Fprintf(stdout, "read replicas: %d (the per-backend request counts after the run show the spread)\n", cfg.readReplicas)
		}
	}

	healthCtx, cancelHealth := context.WithTimeout(ctx, 10*time.Second)
	err := target.health(healthCtx)
	cancelHealth()
	if err != nil {
		return fmt.Errorf("srjserver at %s not reachable: %w", base, err)
	}
	fmt.Fprintf(stdout, "remote serve: %s algorithm=%s dataset=%s (server-side data) l=%g\n",
		base, cfg.algo, cfg.dataset, cfg.l)

	key := srj.EngineKey{
		Dataset: cfg.dataset,
		L:       cfg.l,
		// Normalized at mint: the key is also used for eviction and
		// updates, which must address exactly the engine the draws hit.
		Algorithm: server.NormalizeAlgorithm(string(cfg.algo)),
		Seed:      cfg.seed,
	}
	src := target.bind(key)

	// Warm the key so the timed section measures the cached path,
	// exactly as the local mode builds its Engine outside the timer.
	warmStart := time.Now()
	warmCtx, cancelWarm := context.WithTimeout(ctx, requestTimeout)
	_, err = src.Draw(warmCtx, srj.Request{T: 1})
	cancelWarm()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "engine warmed through the registry in %v\n",
		time.Since(warmStart).Round(time.Millisecond))

	if cfg.updateRate > 0 {
		// Mixed read/write mode: a fraction of requests post
		// /v1/update batches (mutating the server-side dataset for
		// this key); the rest draw as usual. The rebuild-per-request
		// baseline is skipped — update batches already exercise the
		// server's build path through generation bumps.
		err := runMixed(ctx, stdout, cfg, src, func(ctx context.Context, u srj.Update) (uint64, error) {
			return target.apply(ctx, key, u)
		}, requestTimeout)
		if err != nil {
			return err
		}
		statsCtx, cancelStats := context.WithTimeout(ctx, 10*time.Second)
		defer cancelStats()
		return target.printStats(statsCtx, stdout)
	}

	fmt.Fprintf(stdout, "%d clients x %d requests x %d samples/request\n",
		cfg.clients, cfg.requests, cfg.reqT)
	// Client-observed latency: the wire round trip, not just the
	// server-side draw — the number a real client of this fleet sees.
	hist := obs.NewHistogram(obs.DrawDurationBuckets)
	start := time.Now()
	if err := hammer(ctx, cfg.clients, cfg.requests, func(_, _ int) error {
		reqCtx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		reqStart := time.Now()
		err := src.DrawFunc(reqCtx, srj.Request{T: cfg.reqT}, func([]srj.Pair) error { return nil })
		if err == nil {
			hist.Observe(time.Since(reqStart).Seconds())
		}
		return err
	}); err != nil {
		return err
	}
	elapsed := time.Since(start)
	nRequests := cfg.clients * cfg.requests
	nSamples := nRequests * cfg.reqT
	cachedRate := float64(nSamples) / elapsed.Seconds()
	fmt.Fprintf(stdout, "served %d requests (%d samples) in %v\n", nRequests, nSamples, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "cached-engine throughput: %.3g samples/sec, %.1f requests/sec\n",
		cachedRate, float64(nRequests)/elapsed.Seconds())
	printLatencyQuantiles(stdout, hist.Snapshot())
	if cfg.metrics {
		dumpExposition(stdout, string(cfg.algo), hist.Snapshot(), uint64(nSamples))
	}

	// Rebuild-per-request baseline: a distinct seed per request is a
	// distinct registry key, so the server pays a full preprocessing
	// pass for every one. The seed base derives from -seed (offset far
	// from the bench key's own seed) so runs are reproducible; a clean
	// run evicts its throwaway engines below, so repeated runs rebuild
	// rather than silently measuring cache hits. -seed 0 falls back to
	// the wall clock: guaranteed-fresh keys even after a crashed run
	// stranded engines in a long-lived server's cache. Two requests
	// per client keep the baseline affordable.
	const baselineRequests = 2
	seedBase := cfg.seed + baselineSeedOffset
	if cfg.seed == 0 {
		seedBase = uint64(time.Now().UnixNano())
	}
	var seedCounter atomic.Uint64
	// The baseline's throwaway engines would otherwise crowd a
	// long-lived server's cache; evict whatever was inserted on every
	// exit path, failed baselines included.
	defer func() {
		// Eviction must run even when ctx was canceled — that is the
		// Ctrl-C path, and it must not strand throwaway engines.
		evictCtx, cancelEvict := context.WithTimeout(context.WithoutCancel(ctx), time.Minute)
		defer cancelEvict()
		evicted := 0
		for i := uint64(1); i <= seedCounter.Load(); i++ {
			bkey := key
			bkey.Seed = seedBase + i
			ok, err := target.evict(evictCtx, bkey)
			if err != nil {
				// Keep going: one failed eviction must not strand the
				// remaining throwaway engines.
				fmt.Fprintf(stdout, "warning: could not evict baseline engine %s: %v\n", bkey, err)
				continue
			}
			if ok {
				evicted++
			}
		}
		fmt.Fprintf(stdout, "evicted %d baseline engines from the server cache\n", evicted)
	}()
	rebuildStart := time.Now()
	if err := hammer(ctx, cfg.clients, baselineRequests, func(_, _ int) error {
		bkey := key
		bkey.Seed = seedBase + seedCounter.Add(1)
		reqCtx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		return target.bind(bkey).DrawFunc(reqCtx, srj.Request{T: cfg.reqT}, func([]srj.Pair) error { return nil })
	}); err != nil {
		return err
	}
	rebuild := time.Since(rebuildStart)
	nBaseline := cfg.clients * baselineRequests
	rebuildRate := float64(nBaseline*cfg.reqT) / rebuild.Seconds()
	fmt.Fprintf(stdout, "rebuild-per-request baseline (%d clients x %d requests, distinct seeds): %v per request => %.3g samples/sec (cached engine is %.1fx faster)\n",
		cfg.clients, baselineRequests,
		(rebuild / time.Duration(baselineRequests)).Round(time.Millisecond),
		rebuildRate, cachedRate/rebuildRate)

	statsCtx, cancelStats := context.WithTimeout(ctx, 10*time.Second)
	defer cancelStats()
	return target.printStats(statsCtx, stdout)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "srjbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "srjbench: %v\n", err)
		os.Exit(1)
	}
}
