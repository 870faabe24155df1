// Command srjrouter shards the srjserver sampling API across a fleet
// of backends: a consistent-hash ring assigns each (dataset, l,
// algorithm, seed) engine key one home backend, so every key's
// preprocessing is paid on exactly one host and the fleet's aggregate
// engine-cache budget scales horizontally. Transport failures fail
// over along the ring mid-stream; semantic errors (caps, bad keys)
// surface unchanged. Clients speak the unmodified srjserver wire
// protocol — point srj.NewClient at the router and nothing else
// changes.
//
// Usage:
//
//	srjrouter -backends http://s0:8080,http://s1:8080,http://s2:8080
//	srjrouter -addr :9090 -backends ... -vnodes 128 -probe-interval 2s
//	srjrouter http://s0:8080 http://s1:8080        # backends as args
//	srjrouter -read-replicas 3 -backends ...       # spread reads over 3 nodes
//
// Admin mode talks to a *running* router instead of starting one —
// live ring membership without a restart:
//
//	srjrouter -admin http://router:8090 add http://s3:8080
//	srjrouter -admin http://router:8090 remove http://s1:8080
//
// API: srjserver's surface fleet-wide — POST /v1/sample (JSON or
// framed binary), POST /v1/update (insert/delete batches broadcast to
// every shard, so each backend's store and engine cache advance to
// the same dataset generation), GET /v1/stats (fleet aggregate in
// srjserver's shape), GET/DELETE /v1/engines (concatenated list /
// broadcast eviction), GET /healthz (200 while any backend answers) —
// plus GET /v1/router for routing stats (per-backend health and
// counters, per-key shard assignments), POST/DELETE
// /v1/router/backends for live ring membership (what -admin calls),
// and GET /metrics (Prometheus text exposition; -pprof additionally
// mounts /debug/pprof/).
// -log-level info enables structured JSON access logs with request
// IDs; failovers log at warn.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	srj "repro"
)

// run is the testable entry point: parse args, bring the router up,
// report the bound address through ready (tests pass ":0"), serve
// until ctx is cancelled.
func run(ctx context.Context, args []string, stdout io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("srjrouter", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", ":8090", "listen address")
		backends = fs.String("backends", "", "comma-separated srjserver base URLs (or pass them as arguments)")
		vnodes   = fs.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 64)")
		probe    = fs.Duration("probe-interval", 0, "backend /healthz probe cadence (0 = default 5s, negative disables)")
		pprof    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel = fs.String("log-level", "warn", "structured log level: debug, info, warn, error, off")
		replicas = fs.Int("read-replicas", 0, "spread each key's draws across its first k healthy ring nodes (0 = default 1)")
		admin    = fs.Bool("admin", false, "admin client mode: srjrouter -admin <router-url> add|remove <backend-url>")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *admin {
		return runAdmin(ctx, fs.Args(), stdout)
	}
	logger, err := buildLogger(*logLevel, stdout)
	if err != nil {
		return err
	}
	var list []string
	for _, part := range strings.Split(*backends, ",") {
		if part = strings.TrimSpace(part); part != "" {
			list = append(list, part)
		}
	}
	list = append(list, fs.Args()...)
	if len(list) == 0 {
		return fmt.Errorf("no backends: pass -backends or list srjserver URLs as arguments")
	}

	rt, err := srj.NewRouter(list, srj.RouterOptions{
		VNodes:        *vnodes,
		ProbeInterval: *probe,
		ReadReplicas:  *replicas,
		Logger:        logger,
		EnablePprof:   *pprof,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	// Probe once up front so the startup log tells the operator what
	// the ring can actually reach — but serve regardless: backends may
	// simply not be up yet, and the prober will find them.
	healthy := rt.ProbeNow(ctx)
	fmt.Fprintf(stdout, "srjrouter: %d/%d backends healthy\n", healthy, len(list))
	for _, b := range rt.Backends() {
		fmt.Fprintf(stdout, "  backend %s\n", b)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "srjrouter listening on %s (%d backends)\n", ln.Addr(), len(list))
	if ready != nil {
		ready(ln.Addr().String())
	}

	// As in srjserver: no blanket WriteTimeout — the sample proxy sets
	// per-frame write deadlines itself.
	hs := &http.Server{
		Handler:           rt.Handler(),
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

// runAdmin is the -admin client mode: one membership change against a
// running router's POST/DELETE /v1/router/backends endpoint, printing
// the resulting ring. Adds block until the router has probed the new
// node and transferred every dataset's state, so a zero exit means
// the backend is serving.
func runAdmin(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) != 3 {
		return fmt.Errorf("admin mode: srjrouter -admin <router-url> add|remove <backend-url>")
	}
	routerURL, action, backend := args[0], args[1], args[2]
	cl := srj.NewClient(routerURL)
	var ring []string
	var err error
	switch action {
	case "add":
		ring, err = cl.AddRouterBackend(ctx, backend)
	case "remove":
		ring, err = cl.RemoveRouterBackend(ctx, backend)
	default:
		return fmt.Errorf("admin mode: unknown action %q (want add or remove)", action)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ring now has %d backends\n", len(ring))
	for _, b := range ring {
		fmt.Fprintf(stdout, "  backend %s\n", b)
	}
	return nil
}

// buildLogger returns the process logger writing JSON lines to w at
// the requested level, nil for "off", or an error for an unknown
// level name.
func buildLogger(levelFlag string, w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(levelFlag) {
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn, error, or off; got %q", levelFlag)
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})), nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "srjrouter: %v\n", err)
		os.Exit(1)
	}
}
