package rapwam

import (
	"context"
	"net"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/tracestore"
)

// This file re-exports the experiment results service: a long-running
// HTTP/JSON daemon (cmd/rapwamd is its CLI) that serves every table
// and figure of the paper from a content-addressed result cache over
// the experiments grid and the persistent trace store. Each distinct
// (experiment, parameters) cell is computed at most once per emulator
// version: concurrent identical requests share one grid run
// (single-flight), and every later request — in this daemon or a
// restarted one over the same cache directory — is a disk or memory
// hit with a byte-identical body and zero emulator runs.

// ServeConfig parameterizes the results service.
type ServeConfig struct {
	// Addr is the listen address (default ":8080"). Ignored when
	// Listener is set.
	Addr string
	// Listener, when non-nil, serves on an existing listener (tests
	// bind ":0" and pass it here).
	Listener net.Listener
	// ResultDir roots the content-addressed result cache (required).
	ResultDir string
	// TraceDir optionally attaches a persistent trace store so cold
	// computations reuse — and warm — stored traces.
	TraceDir string
	// Parallelism bounds the grid cells in flight across all of the
	// service's concurrent computes together (<= 0: GOMAXPROCS).
	Parallelism int
	// MaxComputes caps concurrent experiment computations; 0 means
	// unlimited. Cache hits and joins of an in-flight identical
	// computation are never throttled — only the request that would
	// START a computation takes a slot.
	MaxComputes int
	// MaxQueue caps cold requests waiting for a compute slot; beyond
	// it requests are shed with 429 + Retry-After instead of queueing
	// without bound. 0 defaults to 4×MaxComputes; ignored when
	// MaxComputes is 0.
	MaxQueue int
	// ComputeTimeout bounds each computation's wall-clock time; expiry
	// maps to 504. 0 disables the per-compute deadline.
	ComputeTimeout time.Duration
	// StaleTempAge is the age past which temp-file droppings and aged
	// quarantined objects are swept (at open and by the scrubber);
	// 0 selects the default, one hour.
	StaleTempAge time.Duration
	// ScrubInterval, when positive, runs a background scrub at that
	// period under Serve: full verification of the result cache and
	// trace store, quarantining whatever fails, plus a temp sweep.
	ScrubInterval time.Duration
	// Chaos, when non-empty, wraps both stores in the deterministic
	// fault injector — a spec like "seed=7,readerr=0.1,bitflip=0.05"
	// (see cmd/rapwamd -chaos). Strictly for fault-tolerance testing:
	// the service must keep returning correct answers under it.
	Chaos string
	// Peers lists every cluster member's base URL (http://host:port),
	// this node's own included. With two or more distinct members the
	// result cache (and trace store, when attached) become
	// cluster-backed: local misses fetch from peers' blob APIs before
	// computing, and cold computes route to the cell's rendezvous
	// owner so a fleet runs each cell exactly once cluster-wide. See
	// cmd/rapwamd -peers / -self.
	Peers []string
	// SelfURL is this node's own base URL, matching its entry in
	// Peers. Required when Peers is set.
	SelfURL string
	// DrainTimeout bounds graceful shutdown (default 5s). Shutdown is
	// normally much faster: cancelling the serve context also cancels
	// every in-flight request's computation.
	DrainTimeout time.Duration
	// Log, when non-nil, receives one line per notable server event,
	// and one ("grid: ...") per completed experiment grid cell.
	Log func(msg string)
}

// Service is an experiment results server ready to serve HTTP.
type Service struct {
	s *service.Server
}

// NewService opens the result cache (and trace store, when configured)
// and builds the service. Use Handler to mount it, or Serve to run a
// complete daemon. Each service owns its grid state (its own Runner),
// so any number of services can live in one process.
func NewService(cfg ServeConfig) (*Service, error) {
	scfg := service.Config{
		ResultDir:      cfg.ResultDir,
		TraceDir:       cfg.TraceDir,
		Parallelism:    cfg.Parallelism,
		MaxComputes:    cfg.MaxComputes,
		MaxQueue:       cfg.MaxQueue,
		ComputeTimeout: cfg.ComputeTimeout,
		StaleTempAge:   cfg.StaleTempAge,
		ScrubInterval:  cfg.ScrubInterval,
		Peers:          cfg.Peers,
		SelfURL:        cfg.SelfURL,
		Log:            cfg.Log,
	}
	if cfg.Chaos != "" {
		faults, err := storage.ParseFaults(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		tempAge := cfg.StaleTempAge
		if tempAge <= 0 {
			tempAge = tracestore.StaleTempAge
		}
		rb, err := storage.NewDir(cfg.ResultDir, tempAge)
		if err != nil {
			return nil, err
		}
		scfg.ResultBackend = storage.NewFault(rb, faults)
		if cfg.TraceDir != "" {
			tb, err := storage.NewDir(cfg.TraceDir, tempAge)
			if err != nil {
				return nil, err
			}
			scfg.TraceBackend = storage.NewFault(tb, faults)
		}
	}
	s, err := service.New(scfg)
	if err != nil {
		return nil, err
	}
	return &Service{s: s}, nil
}

// Handler returns the /v1 API handler (healthz, stats, experiments,
// traces — see docs/API.md).
func (s *Service) Handler() http.Handler { return s.s.Handler() }

// Computes reports how many experiment computations (result-cache
// fills) the service has performed; warm-cache traffic leaves it
// unchanged.
func (s *Service) Computes() int64 { return s.s.Computes() }

// ResultCacheStats returns the service's result cache counters.
func (s *Service) ResultCacheStats() ResultCacheStats { return s.s.ResultCache().Stats() }

// Sheds reports how many requests were refused at admission (HTTP 429)
// because the compute limit and queue were both full.
func (s *Service) Sheds() int64 { return s.s.Sheds() }

// Scrub verifies every object in the result cache and trace store —
// full decode, CRC and content-address checks — quarantining whatever
// fails and sweeping stale temp files, then returns what it found.
// Serve runs this automatically when ScrubInterval is set.
func (s *Service) Scrub() ScrubSummary { return s.s.Scrub() }

// ScrubSummary re-exports one scrub pass's findings.
type ScrubSummary = service.ScrubSummary

// Serve runs the results service until ctx is cancelled, then shuts
// down gracefully: the cancellation reaches every in-flight request's
// grid computation (and the emulator's instruction loop) end to end,
// so draining is prompt even mid-sweep. A clean ctx-initiated
// shutdown returns nil.
func Serve(ctx context.Context, cfg ServeConfig) error {
	s, err := NewService(cfg)
	if err != nil {
		return err
	}
	addr := cfg.Addr
	if addr == "" {
		addr = ":8080"
	}
	return service.Serve(ctx, addr, cfg.Listener, s.s, cfg.DrainTimeout)
}

// ResultCache re-exports the content-addressed experiment result
// cache: rendered results keyed by (experiment, canonical parameters,
// emulator version, codec version), written with the same atomic
// temp+rename discipline as the trace store.
type ResultCache = service.ResultCache

// ResultCacheKey re-exports the result cache key.
type ResultCacheKey = service.CacheKey

// ResultCacheStats re-exports the result cache counters.
type ResultCacheStats = service.CacheStats

// OpenResultCache creates (if needed) and opens a result cache
// directory, sweeping stale temp files left by a killed writer.
func OpenResultCache(dir string) (*ResultCache, error) {
	return service.OpenResultCache(dir)
}
