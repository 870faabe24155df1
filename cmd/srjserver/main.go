// Command srjserver serves join samples over HTTP: one process pays
// each (dataset, l, algorithm, seed) preprocessing pass once and any
// number of clients draw Õ(1) expected-time samples from the cached
// engines (under a memory budget, evicting the least frequently used
// with aging).
//
// Datasets are the built-in generators by default; -load mounts point
// files (written by srjgen or srj.SavePoints), each split 50/50 into
// R and S the way the paper derives its join inputs.
//
// Usage:
//
//	srjserver                                  # built-ins, 100k points/side, :8080
//	srjserver -addr :9000 -n 1000000           # bigger datasets
//	srjserver -load taxi=/data/taxi.bin        # file-backed dataset "taxi"
//	srjserver -warm "nyc:100;castreet:50:bbst:7"  # prebuild engines
//	srjserver -budget-mb 4096 -maxt 5000000    # cache and request limits
//
// Datasets are mutable over the wire: POST /v1/update applies
// insert/delete batches to a key's dynamic store (created on first
// update from the same resolver), bumps the dataset generation, and
// evicts the static engine the store replaces. Draws for that key then
// come straight from the store's current view, so deleted points are
// never served; stores count against -budget-mb and are never evicted.
//
// API (see internal/server): POST /v1/sample, POST /v1/update,
// GET /v1/stats, GET /v1/engines, GET /healthz, GET /metrics
// (Prometheus text exposition; -pprof additionally mounts
// /debug/pprof). -slow-draw logs outlier draws at Warn with the
// request ID, key, generation, and acceptance rate; -log-level tunes
// the structured log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	srj "repro"
	"repro/internal/server"
)

// config is the parsed flag set.
type config struct {
	addr     string
	n        int
	dseed    uint64
	budgetMB int64
	maxT     int
	timeout  time.Duration
	load     string
	warm     string
	slowDraw time.Duration
	pprof    bool
	logLevel string
	dataDir  string
	fsync    string
}

// parseFlags reads the command line into a config.
func parseFlags(args []string, stdout io.Writer) (*config, error) {
	fs := flag.NewFlagSet("srjserver", flag.ContinueOnError)
	fs.SetOutput(stdout)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.n, "n", 100_000, "points per side for generated datasets")
	fs.Uint64Var(&cfg.dseed, "dseed", 1, "seed for dataset generation and splitting")
	fs.Int64Var(&cfg.budgetMB, "budget-mb", 1024, "engine cache memory budget in MiB (0 = unlimited)")
	fs.IntVar(&cfg.maxT, "maxt", 1_000_000, "max samples per request")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request deadline, engine build included")
	fs.StringVar(&cfg.load, "load", "", "comma-separated name=path point files served as datasets (split 50/50 into R and S)")
	fs.StringVar(&cfg.warm, "warm", "", "semicolon-separated dataset:l[:algorithm[:seed]] engines to prebuild")
	fs.DurationVar(&cfg.slowDraw, "slow-draw", 0, "log draws slower than this at Warn with full attribution (0 = off)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.logLevel, "log-level", "warn", "structured log level: debug, info, warn, error, or off")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "directory for write-ahead logs and snapshots; updates recover across restarts (empty = in-memory only)")
	fs.StringVar(&cfg.fsync, "fsync", "always", "when log appends reach disk: always, interval, or off (needs -data-dir)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, err := parseLogLevel(cfg.logLevel); err != nil {
		return nil, err
	}
	if cfg.budgetMB < 0 {
		// A negative budget would silently mean "unlimited" further
		// down; an operator who typed -budget-mb -1024 meant a cap.
		return nil, fmt.Errorf("-budget-mb must be >= 0 (0 = unlimited), got %d", cfg.budgetMB)
	}
	if cfg.maxT <= 0 {
		return nil, fmt.Errorf("-maxt must be positive, got %d", cfg.maxT)
	}
	return cfg, nil
}

// parseLogLevel maps the -log-level flag onto a slog level; "off"
// returns ok=false with no error, disabling the logger entirely.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off":
		return slog.LevelError + 4, nil
	}
	return 0, fmt.Errorf("-log-level must be debug, info, warn, error, or off; got %q", s)
}

// buildLogger returns the process logger writing JSON lines to w at
// the configured level, or nil for "off".
func buildLogger(levelFlag string, w io.Writer) *slog.Logger {
	level, err := parseLogLevel(levelFlag)
	if err != nil || levelFlag == "off" {
		return nil
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// buildServer assembles the srj.Server a config describes.
func buildServer(cfg *config, logger *slog.Logger) (*srj.Server, error) {
	loaded := map[string][2][]srj.Point{}
	if cfg.load != "" {
		for _, spec := range strings.Split(cfg.load, ",") {
			name, path, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok || name == "" || path == "" {
				return nil, fmt.Errorf("bad -load entry %q (want name=path)", spec)
			}
			pts, err := srj.LoadPoints(path)
			if err != nil {
				return nil, fmt.Errorf("loading dataset %q: %w", name, err)
			}
			R, S := srj.SplitRS(pts, 0.5, cfg.dseed)
			loaded[name] = [2][]srj.Point{R, S}
		}
	}
	budget := cfg.budgetMB << 20
	if cfg.budgetMB == 0 {
		budget = -1 // ServerOptions convention: negative = unlimited
	}
	opts := &srj.ServerOptions{
		DatasetSize:  cfg.n,
		DatasetSeed:  cfg.dseed,
		MemoryBudget: budget,
		MaxT:         cfg.maxT,
		Timeout:      cfg.timeout,
		Logger:       logger,
		SlowDraw:     cfg.slowDraw,
		EnablePprof:  cfg.pprof,
		DataDir:      cfg.dataDir,
		FsyncPolicy:  cfg.fsync,
	}
	if len(loaded) > 0 {
		builtin := srj.BuiltinDatasets(cfg.n, cfg.dseed)
		opts.Datasets = func(name string) ([]srj.Point, []srj.Point, error) {
			if rs, ok := loaded[name]; ok {
				return rs[0], rs[1], nil
			}
			return builtin(name)
		}
	}
	return srj.NewServer(opts)
}

// parseWarm expands a -warm spec into engine keys.
func parseWarm(spec string) ([]srj.EngineKey, error) {
	var keys []srj.EngineKey
	if spec == "" {
		return keys, nil
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("bad -warm entry %q (want dataset:l[:algorithm[:seed]])", entry)
		}
		// An omitted algorithm takes the fleet-wide default through
		// NormalizeAlgorithm — the same normalization every serving
		// tier applies, so -warm can never address a different key
		// than the requests it warms for.
		algo := ""
		if len(parts) > 2 {
			algo = parts[2]
		}
		key := srj.EngineKey{Dataset: parts[0], Algorithm: server.NormalizeAlgorithm(algo)}
		var err error
		if key.L, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return nil, fmt.Errorf("bad -warm extent in %q: %w", entry, err)
		}
		// ParseFloat accepts "NaN" and "Inf"; the extent must be a
		// real window size.
		if !(key.L > 0) || math.IsInf(key.L, 0) {
			return nil, fmt.Errorf("bad -warm extent in %q: must be positive and finite", entry)
		}
		if len(parts) > 3 {
			if key.Seed, err = strconv.ParseUint(parts[3], 10, 64); err != nil {
				return nil, fmt.Errorf("bad -warm seed in %q: %w", entry, err)
			}
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// run is the testable entry point: it parses args, brings the stack
// up, reports the bound address through ready (tests pass ":0"), and
// serves until ctx is cancelled.
func run(ctx context.Context, args []string, stdout io.Writer, ready func(addr string)) error {
	cfg, err := parseFlags(args, stdout)
	if err != nil {
		return err
	}
	srv, err := buildServer(cfg, buildLogger(cfg.logLevel, stdout))
	if err != nil {
		return err
	}
	// Shutdown order matters: the HTTP server drains first (below),
	// then the deferred Close syncs and closes the write-ahead logs.
	defer srv.Close()
	warmKeys, err := parseWarm(cfg.warm)
	if err != nil {
		return err
	}
	for _, key := range warmKeys {
		start := time.Now()
		if err := srv.Warm(ctx, key); err != nil {
			return fmt.Errorf("warming %s: %w", key, err)
		}
		fmt.Fprintf(stdout, "warmed %s in %v\n", key, time.Since(start).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "srjserver listening on %s (budget %d MiB, max t %d)\n",
		ln.Addr(), cfg.budgetMB, cfg.maxT)
	if ready != nil {
		ready(ln.Addr().String())
	}

	// No blanket WriteTimeout: the sample handler sets per-frame write
	// deadlines itself, so streams that make progress live while
	// stalled readers are cut off.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shutdownCtx)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "srjserver: %v\n", err)
		os.Exit(1)
	}
}
