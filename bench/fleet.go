package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	srj "repro"
	"repro/internal/obs"
)

// maxConns is the connection cap per host of every HTTP client: the
// host has two cores, and the load never runs more than two client
// goroutines.
const maxConns = 2

// newHTTPClient returns a client whose dials reach the backends by
// their fixed host names (see fleet.hosts).
func (f *fleet) newHTTPClient() *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := f.hosts[addr]; ok {
				addr = a
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// listener is one loopback HTTP server of the fleet.
type listener struct {
	srv  *http.Server
	done chan struct{}
}

// serve starts h on a fresh loopback port and returns its address.
func serve(h http.Handler) (*listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	l := &listener{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, ln.Addr().String(), nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if l.srv.Shutdown(ctx) != nil {
		l.srv.Close()
	}
	<-l.done
}

// fleet is the system under test: two srj servers and one srj router,
// each on its own loopback listener, all in this process.
type fleet struct {
	servers   []*srj.Server
	serverLns []*listener
	// backends are the backend base URLs, "http://backend<i>", and hosts
	// maps each one's host:port to its listener's loopback address. The
	// router's ring hashes backend URLs, so fixed names keep every key
	// on the same backend from run to run; random ports in the URLs
	// would reshuffle keyspread's keys, and with them its hit ratio.
	backends []string
	hosts    map[string]string
	router   *srj.Router
	routerLn *listener
	routerHC *http.Client
	url      string       // router base URL
	hc       *http.Client // the benchmark's own client transport
	dataDir  string
}

type fleetConfig struct {
	data    map[string]pointSets
	budget  int64  // per-backend engine MemoryBudget; 0: the server default
	durable bool   // write-ahead logs under a fresh temp directory, fsync always
	workDir string // parent of the temp directory
	tr      *tracer
}

// fsyncPolicy is the WAL policy of durable fleets: the server's
// default, under which no acknowledged update is lost.
const fsyncPolicy = "always"

func newFleet(cfg fleetConfig) (f *fleet, err error) {
	f = &fleet{hosts: map[string]string{}}
	f.hc, f.routerHC = f.newHTTPClient(), f.newHTTPClient()
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if cfg.durable {
		if f.dataDir, err = os.MkdirTemp(cfg.workDir, "wal-"); err != nil {
			return f, err
		}
	}
	resolve := func(name string) ([]srj.Point, []srj.Point, error) {
		ps, ok := cfg.data[name]
		if !ok {
			return nil, nil, fmt.Errorf("no dataset %q", name)
		}
		return ps.R, ps.S, nil
	}
	for i := 0; i < 2; i++ {
		opts := &srj.ServerOptions{Datasets: resolve, MemoryBudget: cfg.budget}
		if f.dataDir != "" {
			opts.DataDir = filepath.Join(f.dataDir, fmt.Sprint("backend", i))
			opts.FsyncPolicy = fsyncPolicy
		}
		s, err := srj.NewServer(opts)
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, s)
		ln, addr, err := serve(cfg.tr.wrap("server", "router", s))
		if err != nil {
			return f, err
		}
		f.serverLns = append(f.serverLns, ln)
		name := fmt.Sprint("backend", i)
		f.hosts[name+":80"] = addr
		f.backends = append(f.backends, "http://"+name)
	}
	// Health is tracked passively: a background prober would add timer
	// traffic the workloads do not ask for.
	f.router, err = srj.NewRouter(f.backends, srj.RouterOptions{HTTPClient: f.routerHC, ProbeInterval: -1})
	if err != nil {
		return f, err
	}
	f.routerLn, f.url, err = serve(cfg.tr.wrap("router", "client", f.router.Handler()))
	f.url = "http://" + f.url
	return f, err
}

// close stops the fleet from the outside in and waits for every
// listener goroutine; it also removes the fleet's WAL directory. Each
// tier's idle client connections close before the servers they point
// at shut down: a graceful shutdown waits about five seconds for a
// connection that was dialed but never carried a request.
func (f *fleet) close() error {
	f.hc.CloseIdleConnections()
	if f.routerLn != nil {
		f.routerLn.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	f.routerHC.CloseIdleConnections()
	var errs []error
	for i, s := range f.servers {
		if i < len(f.serverLns) {
			f.serverLns[i].close()
		}
		errs = append(errs, s.Close())
	}
	if f.dataDir != "" {
		errs = append(errs, os.RemoveAll(f.dataDir))
	}
	return errors.Join(errs...)
}

// source binds a client of the router to one engine key.
func (f *fleet) source(key srj.EngineKey) *srj.Client {
	return srj.NewClientHTTP(f.url, f.hc).Bind(key)
}

// home binds a client of the key's home backend, bypassing the router.
func (f *fleet) home(key srj.EngineKey) *srj.Client {
	return srj.NewClientHTTP(f.router.Locate(key), f.hc).Bind(key)
}

// stats fetches the router's fleet-aggregated /v1/stats.
func (f *fleet) stats(ctx context.Context) (srj.ServerStats, error) {
	return srj.NewClientHTTP(f.url, f.hc).Stats(ctx)
}

// routerCounter sums one counter family of the router's /metrics over
// its label values.
func (f *fleet) routerCounter(ctx context.Context, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	fams, err := obs.ParseExposition(string(body))
	if err != nil {
		return 0, err
	}
	for _, fam := range fams {
		if fam.Name == name {
			sum := 0.0
			for _, s := range fam.Samples {
				sum += s.Value
			}
			return sum, nil
		}
	}
	return 0, fmt.Errorf("router /metrics has no counter %s", name)
}
