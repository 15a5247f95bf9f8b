// Package serve is the HTTP layer of indserved, the long-lived
// IND-serving daemon: it loads one or more exported datasets (value
// files, persisted sketches, and the batch run's result set) into
// read-only store.Snapshot views and answers SPIDER-style containment
// questions at high QPS without re-running discovery —
// value-membership probes (bloom first, range cursor only on a bloom
// hit), KMV/bloom containment estimates between arbitrary attribute
// pairs, lookups over the discovered verdict set, and on-demand
// single-candidate re-verification through the existing merge engines.
//
// Refresh is an atomic snapshot swap: a reload stages everything into
// a scratch store.Mem, re-snapshots, and swaps one pointer; in-flight
// requests finish on the generation they started on. See README.md in
// this directory for the endpoint contract.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// DefaultCacheSize is the response-cache bound when Config.CacheSize
// is zero.
const DefaultCacheSize = 1024

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so clients that open connections and stall (a
// slowloris) cannot hold them, and their goroutines, open for ever.
const readHeaderTimeout = 10 * time.Second

// Config describes what the server loads and how it serves it.
type Config struct {
	// Specs lists the datasets to load from disk. Reload re-resolves
	// the same specs, so a changed directory is picked up by the next
	// swap.
	Specs []DatasetSpec
	// Sources, used when Specs is empty, stages datasets from
	// already-open stores (the test and embedding path). Reload
	// re-stages from the same bases.
	Sources []Source
	// CacheSize bounds the per-generation response cache; 0 selects
	// DefaultCacheSize, negative disables caching.
	CacheSize int
}

// cacheSize resolves the configured bound.
func (c Config) cacheSize() int {
	if c.CacheSize == 0 {
		return DefaultCacheSize
	}
	return c.CacheSize
}

// Server is one serving process: the current State behind an atomic
// pointer, lifetime metrics, and the HTTP plumbing. All methods are
// safe for concurrent use.
type Server struct {
	cfg     Config
	state   atomic.Pointer[State]
	gen     atomic.Int64
	metrics *Metrics
	mux     *http.ServeMux
	httpSrv *http.Server

	// reloadCh serializes swaps: a reload stages the next generation
	// while the old one serves, then swaps exactly once.
	reloadCh chan struct{}

	// delay, when non-nil, is called by the instrumentation wrapper
	// before each request is handled — the test hook that makes
	// graceful-shutdown behaviour observable (an in-flight request can
	// be parked on it while Shutdown runs).
	delay func(endpoint string)
}

// New loads the configured datasets and returns a ready server. A
// failed load is an error — the daemon never starts half-loaded.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		mux:      http.NewServeMux(),
		reloadCh: make(chan struct{}, 1),
	}
	s.reloadCh <- struct{}{}
	st, err := s.load(1)
	if err != nil {
		return nil, err
	}
	s.gen.Store(1)
	s.state.Store(st)
	s.routes()
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	return s, nil
}

// load stages generation gen from the configured specs or sources.
func (s *Server) load(gen int) (*State, error) {
	if len(s.cfg.Specs) > 0 {
		return LoadState(s.cfg.Specs, gen, s.cfg.cacheSize())
	}
	return BuildState(s.cfg.Sources, gen, s.cfg.cacheSize())
}

// State returns the current serving generation.
func (s *Server) State() *State { return s.state.Load() }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Reload stages the next generation and swaps it in atomically.
// Requests in flight keep the State pointer they resolved at entry, so
// they finish on the old snapshot; new requests see the new one. A
// failed load leaves the current generation serving untouched.
func (s *Server) Reload() (*State, error) {
	<-s.reloadCh
	defer func() { s.reloadCh <- struct{}{} }()
	next := int(s.gen.Load()) + 1
	st, err := s.load(next)
	if err != nil {
		return nil, fmt.Errorf("serve: reload: %w", err)
	}
	s.gen.Store(int64(next))
	s.state.Store(st)
	return st, nil
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, mirroring net/http.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Shutdown stops accepting connections and waits — up to ctx — for
// in-flight requests to complete.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// Metrics returns the lifetime metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Uptime reports how long the server has existed.
func (s *Server) Uptime() time.Duration { return s.metrics.uptime() }
