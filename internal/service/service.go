package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/storage"
	"repro/internal/storage/blob"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Config parameterizes a Server.
type Config struct {
	// ResultDir roots the content-addressed result cache (required
	// unless ResultBackend is set).
	ResultDir string
	// TraceDir optionally attaches a persistent trace store, so cold
	// experiment computations reuse (and warm) stored traces.
	TraceDir string
	// ResultBackend / TraceBackend, when non-nil, override the
	// directory backends — in-memory backends for tests, fault
	// wrappers for chaos runs, networked backends later. A non-nil
	// TraceBackend attaches a trace store even when TraceDir is "".
	ResultBackend blob.Backend
	TraceBackend  blob.Backend
	// Parallelism bounds the grid cells in flight across all of the
	// server's concurrent computes together (<= 0: GOMAXPROCS).
	Parallelism int
	// MaxComputes caps concurrent experiment computations (flights);
	// 0 means unlimited. Cache hits are never throttled.
	MaxComputes int
	// MaxQueue caps cold requests waiting for a compute slot; beyond
	// it requests shed with 429 + Retry-After. 0 defaults to
	// 4×MaxComputes. Ignored when MaxComputes is 0.
	MaxQueue int
	// ComputeTimeout bounds each computation's wall-clock time;
	// expiry returns 504. 0 means no per-compute deadline.
	ComputeTimeout time.Duration
	// StaleTempAge is the age past which temp-file droppings (and
	// aged quarantined objects) are swept at open and by the
	// background scrubber; 0 selects tracestore.StaleTempAge (1h).
	StaleTempAge time.Duration
	// ScrubInterval, when positive, runs a background scrub loop
	// (Server.Scrub: full verification of both stores, quarantining
	// what fails, plus a temp sweep) at that period under Serve.
	ScrubInterval time.Duration
	// Peers lists every cluster member's base URL (http://host:port),
	// including this node's own (SelfURL). With two or more distinct
	// members the result cache — and the trace store, when attached —
	// become cluster-backed: local misses fetch from peers' blob APIs
	// and write through locally, and cold computes route to the cell's
	// rendezvous owner so the fleet runs each cell exactly once
	// cluster-wide. Empty (or just this node) disables clustering.
	Peers []string
	// SelfURL is this node's own base URL, matching its entry in Peers.
	SelfURL string
	// PeerClient is the HTTP client for peer blob fetches and proxied
	// computes (nil: a 10-second-timeout default).
	PeerClient *http.Client
	// PeerWrap, when non-nil, wraps each store's peer-fetch backend —
	// the cluster tests inject blob.Fault here to make the wire
	// hostile.
	PeerWrap func(b blob.Backend) blob.Backend
	// Log, when non-nil, receives one line per notable server event
	// (startup, compute begin/end, cache write failures, scrubs) and,
	// prefixed "grid: ", one per completed grid cell.
	Log func(msg string)
}

// Server is the experiment results service: an http.Handler serving
// the /v1 API over the result cache, admission gate, single-flight
// group and experiments grid.
type Server struct {
	cfg   Config
	cache *ResultCache
	// runner is this server's own grid state — trace store (nil when
	// none is attached), worker budget, trace memo, engine-run counter
	// — so any number of servers share a process without seeing each
	// other's.
	runner  bench.Runner
	mux     *http.ServeMux
	flights flightGroup
	start   time.Time
	// suite is the experiment registry this server serves.
	suite experiments.Suite

	// cluster is nil on a solo node. resultTier/traceTier are the
	// Tiered compositions when clustered (their Local() is what the
	// blob API serves).
	cluster    *cluster
	resultTier *storage.Tiered
	traceTier  *storage.Tiered

	requests atomic.Int64
	errors   atomic.Int64
	inflight atomic.Int64
	computes atomic.Int64
	timeouts atomic.Int64
	degraded atomic.Int64

	// healthMu serializes healthz probes: they round-trip a
	// fixed-name object per backend, so concurrent probes would race
	// benignly but report noise.
	healthMu sync.Mutex
}

// New builds a Server: opens (creating if needed) the result cache,
// attaches the trace store when configured, and wires the routes.
func New(cfg Config) (*Server, error) {
	tempAge := cfg.StaleTempAge
	if tempAge <= 0 {
		tempAge = tracestore.StaleTempAge
	}
	// Resolve the LOCAL backends first: they are what this node
	// mutates, scrubs, and serves to peers over the blob API.
	var localResult blob.Backend
	if cfg.ResultBackend != nil {
		localResult = cfg.ResultBackend
	} else {
		if cfg.ResultDir == "" {
			return nil, fmt.Errorf("service: empty result cache directory")
		}
		d, err := blob.NewDir(cfg.ResultDir, tempAge)
		if err != nil {
			return nil, fmt.Errorf("service: result cache: %w", err)
		}
		localResult = d
	}
	var localTrace blob.Backend
	switch {
	case cfg.TraceBackend != nil:
		localTrace = cfg.TraceBackend
	case cfg.TraceDir != "":
		d, err := blob.NewDir(cfg.TraceDir, tempAge)
		if err != nil {
			return nil, fmt.Errorf("tracestore: %w", err)
		}
		localTrace = d
	}

	s := &Server{cfg: cfg, start: time.Now(), suite: experiments.Registry()}
	clu, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	s.cluster = clu

	// When clustered, both stores sit on a Tiered composition: local
	// first, peer-fetch with local write-through on miss. Everything
	// above the Backend interface — cache verification, quarantining,
	// the trace codec's CRCs — is unchanged, which is the point: a
	// corrupt peer blob heals exactly like a corrupt local one.
	resultB, traceB := localResult, localTrace
	if clu != nil {
		s.resultTier = storage.NewTiered(localResult, clu.peerBackend("results", cfg.PeerWrap))
		resultB = s.resultTier
		if localTrace != nil {
			s.traceTier = storage.NewTiered(localTrace, clu.peerBackend("traces", cfg.PeerWrap))
			traceB = s.traceTier
		}
	}
	s.cache = NewResultCacheOn(resultB)
	if traceB != nil {
		s.runner.Store = tracestore.NewOn(traceB)
	}

	s.flights.adm = newAdmission(cfg.MaxComputes, cfg.MaxQueue)
	s.flights.timeout = cfg.ComputeTimeout
	s.runner.Par = cfg.Parallelism
	if cfg.Log != nil {
		s.runner.Progress = func(msg string) { cfg.Log("grid: " + msg) }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{bench}", s.handleTrace)
	// The blob API serves this node's LOCAL objects to peers (the
	// cluster read tier). Serving the local backend — never the Tiered
	// wrapper — means a miss here is final: peers cannot bounce a
	// lookup around the fleet.
	mux.Handle("/v1/blobs/results/", http.StripPrefix("/v1/blobs/results/", storage.BlobHandler(localResult)))
	if localTrace != nil {
		mux.Handle("/v1/blobs/traces/", http.StripPrefix("/v1/blobs/traces/", storage.BlobHandler(localTrace)))
	}
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler (request counting
// included).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		s.mux.ServeHTTP(w, r)
	})
}

// ResultCache exposes the server's result cache (stats, tests).
func (s *Server) ResultCache() *ResultCache { return s.cache }

// TraceStore exposes the server's trace store (nil when none is
// attached).
func (s *Server) TraceStore() *tracestore.Store { return s.runner.Store }

// Computes returns how many experiment computations (cache fills) the
// server has performed — the observable that verifies single-flight
// deduplication and warm-cache serving.
func (s *Server) Computes() int64 { return s.computes.Load() }

// Sheds returns how many requests were refused at admission (429).
func (s *Server) Sheds() int64 { return s.flights.adm.Sheds() }

// logf reports one server event.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(fmt.Sprintf(format, args...))
	}
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON marshals v with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// fail records and writes one error response.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.errors.Add(1)
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleHealthz actively probes every storage component — a full
// Put/Get/compare/Delete round-trip per backend — and reports
// per-component status. Any failing component returns 503 so a load
// balancer can drain the node before clients hit a read-only disk;
// the probe object is tiny, so polling every few seconds is fine.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	components := map[string]string{}
	healthy := true
	probe := func(name string, b blob.Backend) {
		if err := blob.Probe(b); err != nil {
			components[name] = err.Error()
			healthy = false
		} else {
			components[name] = "ok"
		}
	}
	probe("result_cache", localBackend(s.cache.Backend()))
	if s.runner.Store != nil {
		probe("trace_store", localBackend(s.runner.Store.Backend()))
	}
	if s.cluster != nil {
		// Peer reachability is informational: a dead peer degrades the
		// cluster tier (this node falls back to local compute), it does
		// not make this node unhealthy — draining survivors because a
		// peer died would turn one failure into an outage.
		up, total := s.cluster.reachable(time.Second)
		state := "ok"
		if up < total {
			state = "degraded"
		}
		components["peers"] = fmt.Sprintf("%s (%d/%d reachable)", state, up, total)
	}
	body := map[string]any{
		"status":           "ok",
		"emulator_version": core.EmulatorVersion,
		"components":       components,
	}
	status := http.StatusOK
	if !healthy {
		body["status"] = "unhealthy"
		status = http.StatusServiceUnavailable
		s.errors.Add(1)
	}
	writeJSON(w, status, body)
}

// statsBody is the /v1/stats response shape.
type statsBody struct {
	UptimeSeconds   float64           `json:"uptime_seconds"`
	Requests        int64             `json:"requests"`
	Errors          int64             `json:"errors"`
	Inflight        int64             `json:"inflight"`
	Computes        int64             `json:"computes"`
	Sheds           int64             `json:"sheds"`
	ComputeTimeouts int64             `json:"compute_timeouts"`
	DegradedServes  int64             `json:"degraded_serves"`
	EngineRuns      int64             `json:"engine_runs"`
	ResultCache     CacheStats        `json:"result_cache"`
	TraceStore      *tracestore.Stats `json:"trace_store,omitempty"`
	Cluster         *clusterStatsBody `json:"cluster,omitempty"`
	EmulatorVersion string            `json:"emulator_version"`
	CodecVersion    int               `json:"codec_version"`
	Parallelism     int               `json:"parallelism"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body := statsBody{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Load(),
		Errors:          s.errors.Load(),
		Inflight:        s.inflight.Load(),
		Computes:        s.computes.Load(),
		Sheds:           s.Sheds(),
		ComputeTimeouts: s.timeouts.Load(),
		DegradedServes:  s.degraded.Load(),
		EngineRuns:      s.runner.EngineRuns(),
		ResultCache:     s.cache.Stats(),
		EmulatorVersion: core.EmulatorVersion,
		CodecVersion:    trace.CodecVersion,
		Parallelism:     s.runner.Workers(),
	}
	if s.runner.Store != nil {
		st := s.runner.Store.Stats()
		body.TraceStore = &st
	}
	if s.cluster != nil {
		cb := &clusterStatsBody{
			Self:            s.cluster.self,
			Peers:           s.cluster.peers,
			ProxiedComputes: s.cluster.proxied.Load(),
			ProxyFallbacks:  s.cluster.proxyFallbacks.Load(),
			ProxiedServes:   s.cluster.proxiedServes.Load(),
		}
		if s.resultTier != nil {
			st := s.resultTier.Stats()
			cb.ResultPeer = &st
		}
		if s.traceTier != nil {
			st := s.traceTier.Stats()
			cb.TracePeer = &st
		}
		body.Cluster = cb
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": s.suite})
}

// handleExperiment serves one experiment: parse and canonicalize the
// parameters, consult the result cache, and on a miss compute through
// admission and the single-flight group under a context that shutdown
// and client disconnects cancel.
//
// Error mapping (docs/API.md "Failure modes"): malformed parameters
// 400 naming the field; shed at admission 429 + Retry-After; client
// disconnect or shutdown 503; compute budget exceeded 504; everything
// else 500. A response computed while a storage component was bypassed
// carries X-Degraded naming the components.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	exp, ok := s.suite.Lookup(name)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown experiment %q (see /v1/experiments)", name)
		return
	}
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if _, ok := contentTypes[format]; !ok {
		s.fail(w, http.StatusBadRequest, "parameter format=%q: want json, csv or text", format)
		return
	}
	ps, run, err := exp.Prepare(q)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%s: %v", name, err)
		return
	}
	key := CacheKey{Experiment: name, Params: ps.String()}
	h := key.hash()
	// A request another node already proxied once is served entirely
	// locally — fetch, compute, or fail — never proxied again, so a
	// stale peer list cannot bounce a request around the fleet.
	proxied := r.Header.Get(proxyHeader) != ""
	if proxied && s.cluster != nil {
		s.cluster.proxiedServes.Add(1)
	}

	ent, source, ok := s.cache.get(key, h)
	var degraded []string
	if !ok {
		res, err := s.compute(r.Context(), key, h, ps, run, proxied)
		if err != nil {
			switch {
			case errors.Is(err, errShed):
				w.Header().Set("Retry-After", "1")
				s.fail(w, http.StatusTooManyRequests, "%s: %v", name, err)
			case errors.Is(err, errComputeTimeout):
				s.timeouts.Add(1)
				s.fail(w, http.StatusGatewayTimeout, "%s: %v", name, err)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// Shutdown or client disconnect: the connection is
				// (about to be) gone; 503 tells any proxy the truth.
				s.fail(w, http.StatusServiceUnavailable, "%s: computation cancelled: %v", name, err)
			default:
				s.fail(w, http.StatusInternalServerError, "%s: %v", name, err)
			}
			return
		}
		ent, source, degraded = res.ent, res.src, res.degraded
	}
	body, err := ent.render(exp, format)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "%s: %v", name, err)
		return
	}

	if len(degraded) > 0 {
		s.degraded.Add(1)
		w.Header().Set("X-Degraded", strings.Join(degraded, ","))
	}
	w.Header().Set("X-Result-Source", source)
	w.Header().Set("X-Emulator-Version", core.EmulatorVersion)
	w.Header().Set("Content-Type", contentTypes[format])
	w.Write(body)
}

// contentTypes maps each response format to its Content-Type.
var contentTypes = map[string]string{
	"json": "application/json",
	"csv":  "text/csv",
	"text": "text/plain; charset=utf-8",
}

// compute fills the cache for key through the single-flight group:
// concurrent identical requests share one grid run; the computation's
// context is cancelled only when every waiter has disconnected (or the
// server is shutting down, which cancels every request). A context
// error with the requester's own context still live means this flight
// was collateral damage of someone ELSE's cancellation — joining a
// flight in the window after its last previous waiter disconnected,
// or sharing a trace-store cell with a cancelled experiment's grid run
// — so the request retries: it hits the cache, starts a fresh flight
// (cancelled cells are evicted from every memo layer), or in the worst
// case joins another doomed flight and loops again. Shed and
// compute-timeout errors are final — never retried here.
func (s *Server) compute(ctx context.Context, key CacheKey, h string, ps experiments.Canonical, run experiments.Run, proxied bool) (flightResult, error) {
	for {
		res, err := s.computeOnce(ctx, key, h, ps, run, proxied)
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return res, err
	}
}

func (s *Server) computeOnce(ctx context.Context, key CacheKey, h string, ps experiments.Canonical, run experiments.Run, proxied bool) (flightResult, error) {
	return s.flights.do(ctx, h, func(cctx context.Context) (flightResult, error) {
		// Double check under the flight: a racing request may have
		// completed (and cached) this cell between our miss and this
		// flight starting. peek keeps the hit/miss counters honest —
		// the handler already recorded this request's miss.
		if ent, src, ok := s.cache.peek(key, h); ok {
			return flightResult{ent: ent, src: src}, nil
		}
		// The degraded flag rides the compute context: the grid marks
		// it when a trace-store failure forces the storeless path, and
		// every waiter on this flight reports the same components.
		cctx, flag := blob.WithDegraded(cctx)
		// Cross-node single-flight: a cold cell another member owns is
		// proxied to the owner (one flight here covers all local
		// waiters; the owner's own flight group covers the fleet). An
		// unreachable or unusable owner degrades to computing locally —
		// a dead peer costs the fleet duplicate work, never an outage.
		if s.cluster != nil && !proxied {
			if owner := s.cluster.ownerOf(h); owner != s.cluster.self {
				res, final, err := s.proxyCompute(cctx, owner, key, h, ps)
				if err == nil {
					res.degraded = mergeDegraded(res.degraded, flag.Components())
					return res, nil
				}
				if final {
					return flightResult{}, err
				}
				blob.MarkDegraded(cctx, "peer-proxy")
				s.cluster.proxyFallbacks.Add(1)
				s.logf("proxy of %s?%s to owner %s failed (%v); computing locally", key.Experiment, key.Params, owner, err)
			}
		}
		s.computes.Add(1)
		s.logf("computing %s?%s", key.Experiment, key.Params)
		t0 := time.Now()
		v, err := run(cctx, &s.runner)
		if err != nil {
			s.logf("compute %s?%s failed after %v: %v", key.Experiment, key.Params, time.Since(t0), err)
			return flightResult{}, err
		}
		body, err := marshalEnvelope(key.Experiment, ps, v)
		if err != nil {
			return flightResult{}, err
		}
		ent := s.cacheResult(cctx, key, h, body)
		s.logf("computed %s?%s in %v (%d bytes)", key.Experiment, key.Params, time.Since(t0), len(body))
		return flightResult{ent: ent, src: "computed", degraded: flag.Components()}, nil
	})
}

// cacheResult stores a verified envelope and returns its memory-layer
// entry. A failed write still serves the result — a full disk degrades
// the cache, not the response — from an entry outside the memory layer.
func (s *Server) cacheResult(ctx context.Context, key CacheKey, h string, body []byte) *memEntry {
	ent, err := s.cache.put(key, h, body)
	if err != nil {
		blob.MarkDegraded(ctx, "result-cache")
		s.logf("result cache write for %s failed: %v", key.Experiment, err)
		return &memEntry{body: body}
	}
	return ent
}

// marshalEnvelope renders the canonical stored/served JSON body.
func marshalEnvelope(experiment string, ps experiments.Canonical, result any) ([]byte, error) {
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("service: marshaling %s result: %w", experiment, err)
	}
	body, err := json.Marshal(Envelope{
		Experiment:      experiment,
		Params:          ps.Map(),
		EmulatorVersion: core.EmulatorVersion,
		CodecVersion:    trace.CodecVersion,
		CacheVersion:    CacheVersion,
		ResultSHA:       resultSHA(raw),
		Result:          raw,
	})
	if err != nil {
		return nil, fmt.Errorf("service: marshaling %s envelope: %w", experiment, err)
	}
	return append(body, '\n'), nil
}

// decodeResult unmarshals a cached envelope back into the entry's
// typed result.
func decodeResult(e *experiments.Experiment, body []byte) (experiments.Result, error) {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	v := e.Fresh()
	if err := json.Unmarshal(env.Result, v); err != nil {
		return nil, err
	}
	return v, nil
}

// traceInfoBody is one /v1/traces list element.
type traceInfoBody struct {
	Key             string  `json:"key"`
	Benchmark       string  `json:"benchmark"`
	PEs             int     `json:"pes"`
	Mode            string  `json:"mode"`
	EmulatorVersion string  `json:"emulator_version"`
	Refs            int64   `json:"refs"`
	Bytes           int64   `json:"bytes"`
	BytesPerRef     float64 `json:"bytes_per_ref"`
}

func traceBody(meta trace.Meta, size int64) traceInfoBody {
	mode := "par"
	if meta.Sequential {
		mode = "seq"
	}
	k := tracestore.Key{
		Benchmark:       meta.Benchmark,
		PEs:             meta.PEs,
		Sequential:      meta.Sequential,
		EmulatorVersion: meta.EmulatorVersion,
	}
	b := traceInfoBody{
		Key:             k.String(),
		Benchmark:       meta.Benchmark,
		PEs:             meta.PEs,
		Mode:            mode,
		EmulatorVersion: meta.EmulatorVersion,
		Refs:            meta.Refs,
		Bytes:           size,
	}
	if meta.Refs > 0 {
		b.BytesPerRef = float64(size) / float64(meta.Refs)
	}
	return b
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.runner.Store == nil {
		s.fail(w, http.StatusNotFound, "no trace store attached (start rapwamd with -tracedir)")
		return
	}
	entries, err := s.runner.Store.List()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "listing trace store: %v", err)
		return
	}
	out := make([]traceInfoBody, 0, len(entries))
	for _, e := range entries {
		out = append(out, traceBody(e.Meta, e.Bytes))
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleTrace serves one trace cell's metadata:
// /v1/traces/{bench}?pes=N&mode=par|seq. It never generates — a
// missing cell is a 404 (warm it with tracegen or by requesting an
// experiment that needs it).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.runner.Store == nil {
		s.fail(w, http.StatusNotFound, "no trace store attached (start rapwamd with -tracedir)")
		return
	}
	name := r.PathValue("bench")
	if !bench.Known(name) {
		s.fail(w, http.StatusNotFound, "unknown benchmark %q", name)
		return
	}
	q := r.URL.Query()
	pes, err := experiments.IntParam(q, "pes", 1, 1, trace.MaxPEs)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode := q.Get("mode")
	if mode == "" {
		mode = "par"
	}
	if mode != "par" && mode != "seq" {
		s.fail(w, http.StatusBadRequest, "parameter mode=%q: need par or seq", mode)
		return
	}
	k := bench.StoreKey(name, pes, mode == "seq")
	meta, size, err := s.runner.Store.Meta(k)
	if err != nil {
		s.fail(w, http.StatusNotFound, "trace %v not stored: %v", k, err)
		return
	}
	writeJSON(w, http.StatusOK, traceBody(meta, size))
}

// ScrubSummary reports one Server.Scrub pass across both stores.
type ScrubSummary struct {
	// TraceReport is the trace store's scrub result (zero when no
	// store is attached).
	TraceReport tracestore.ScrubReport
	// CacheReport is the result cache's scrub result.
	CacheReport CacheScrubReport
	// Swept counts stale temps and aged quarantined objects removed.
	Swept int
}

// Scrub verifies every object in the trace store and result cache,
// quarantining whatever fails (counted in /v1/stats), and sweeps
// stale temps and aged quarantine entries. It is what the background
// scrubber runs on its interval and what `tracegen verify -repair`
// builds on.
func (s *Server) Scrub() ScrubSummary {
	tempAge := s.cfg.StaleTempAge
	if tempAge <= 0 {
		tempAge = tracestore.StaleTempAge
	}
	var sum ScrubSummary
	sum.CacheReport = s.cache.Scrub()
	sum.Swept += s.cache.Sweep(tempAge)
	if s.runner.Store != nil {
		sum.TraceReport = s.runner.Store.Scrub()
		sum.Swept += s.runner.Store.Sweep(tempAge)
	}
	if n := len(sum.TraceReport.Quarantined) + len(sum.CacheReport.Quarantined); n > 0 || sum.Swept > 0 {
		s.logf("scrub: %d checked, %d quarantined, %d swept",
			sum.TraceReport.Checked+sum.CacheReport.Checked, n, sum.Swept)
	}
	return sum
}

// Serve runs the server on ln (or, when ln is nil, on addr) until ctx
// is cancelled, then shuts down gracefully: cancelling ctx cancels
// every in-flight request context (BaseContext), which aborts their
// grid computations end to end, so the drain completes quickly. When
// Config.ScrubInterval is positive a background scrubber runs
// alongside. A clean ctx-initiated shutdown returns nil.
func Serve(ctx context.Context, addr string, ln net.Listener, s *Server, drain time.Duration) error {
	if drain <= 0 {
		drain = 5 * time.Second
	}
	if s.cfg.ScrubInterval > 0 {
		go func() {
			t := time.NewTicker(s.cfg.ScrubInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s.Scrub()
				}
			}
		}()
	}
	hs := &http.Server{
		Addr:        addr,
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() {
		if ln != nil {
			errc <- hs.Serve(ln)
		} else {
			errc <- hs.ListenAndServe()
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		//rapwam:allow ctxfirst shutdown drain must outlive the cancelled base context that triggered it
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-errc // http.ErrServerClosed
		if err != nil {
			return fmt.Errorf("service: shutdown: %w", err)
		}
		return nil
	}
}
