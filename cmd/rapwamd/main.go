// Command rapwamd is the experiment results daemon: a long-running
// HTTP/JSON service exposing every table and figure of the paper over
// the experiments grid runner, the persistent trace store and a
// content-addressed result cache.
//
// Usage:
//
//	rapwamd -results results [-tracedir traces] [-addr :8080] [-par N]
//	        [-max-computes N] [-max-queue N] [-compute-timeout D]
//	        [-scrub D] [-sweep-age D] [-chaos SPEC] [-v]
//	        [-peers URL,URL,... -self URL]
//
// Endpoints (see docs/API.md for parameters and cache-key semantics):
//
//	GET /v1/healthz
//	GET /v1/stats
//	GET /v1/experiments
//	GET /v1/experiments/{table1,fig2,table2,table3,fig4,mlips,bus,ablations}
//	GET /v1/traces
//	GET /v1/traces/{benchmark}?pes=N&mode=par|seq
//
// Every experiment accepts ?format=json|csv|text. Each distinct
// (experiment, parameters) cell is computed at most once per emulator
// version: concurrent identical requests share a single grid run, and
// later requests — including after a restart over the same -results
// directory — are served from the cache byte-identically with zero
// emulator runs.
//
// Overload and failure behavior: -max-computes bounds concurrent cold
// computations (cache hits are never throttled) with a bounded queue
// beyond it — overflow is shed with 429 + Retry-After; -compute-timeout
// caps a single computation's wall clock (504 on expiry); corrupt
// cache or trace objects are quarantined on read and transparently
// recomputed ("corruption costs latency, never correctness"); -scrub
// runs that verification proactively in the background; and -chaos
// wraps both stores in a deterministic fault injector for testing,
// e.g. -chaos seed=7,readerr=0.1,writeerr=0.05,bitflip=0.05.
//
// Clustering: -peers lists every member's base URL (this node's
// included) and -self names this node's own entry. Members then form a
// peer-fetch tier — each daemon serves its local objects to the others
// under /v1/blobs/, local cache misses fetch from peers and write
// through locally — and route each cold computation to its
// deterministic owner (rendezvous hashing), so a fleet of N replicas
// runs every experiment cell exactly once cluster-wide. A dead peer
// degrades to local compute (X-Degraded: peer-proxy) and rejoins warm.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the cancellation
// reaches in-flight grid computations (and the emulator's instruction
// loop) end to end, so draining is prompt even mid-sweep and neither
// store is left with permanent temp droppings.
//
// Example session:
//
//	rapwamd -results results -tracedir traces &
//	curl localhost:8080/v1/experiments/fig4          # cold: computes once
//	curl localhost:8080/v1/experiments/fig4          # warm: disk/memory hit
//	curl 'localhost:8080/v1/experiments/table2?pes=4&format=csv'
//	curl localhost:8080/v1/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro"

	"repro/internal/cliflag"
	"repro/internal/service"
	"repro/internal/storage/blob"
	"repro/internal/tracestore"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		resultDir = flag.String("results", "results", "result cache directory (created if needed)")
		traceDir  = flag.String("tracedir", "", "persistent trace store directory (recommended: cold computations reuse and warm stored traces)")
		par       = cliflag.Par(flag.CommandLine)
		drain     = flag.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
		computes  = flag.Int("max-computes", 0, "max concurrent experiment computations (0 = unlimited; cache hits are never throttled)")
		queue     = flag.Int("max-queue", 0, "max cold requests queued for a compute slot before shedding with 429 (0 = 4×max-computes)")
		budget    = flag.Duration("compute-timeout", 0, "per-computation wall-clock budget, 504 on expiry (0 = none)")
		scrub     = flag.Duration("scrub", 0, "background scrub period: verify both stores, quarantine corruption, sweep temps (0 = off)")
		sweepAge  = flag.Duration("sweep-age", time.Hour, "age past which stale temp files and quarantined objects are swept")
		chaos     = flag.String("chaos", "", "fault-injection spec wrapping both stores, e.g. seed=7,readerr=0.1,bitflip=0.05 (testing only)")
		peers     = flag.String("peers", "", "comma-separated base URLs of every cluster member, this node included (peer-fetch tier + cross-node single-flight)")
		self      = flag.String("self", "", "this node's own base URL, matching its entry in -peers (required with -peers)")
		verbose   = flag.Bool("v", false, "log requests and computations on stderr")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: rapwamd [-addr :8080] [-results DIR] [-tracedir DIR] [-par N] [-max-computes N] [-max-queue N] [-compute-timeout D] [-scrub D] [-sweep-age D] [-chaos SPEC] [-peers URLS -self URL] [-v]")
		os.Exit(2)
	}
	if *computes < 0 || *queue < 0 {
		fmt.Fprintln(os.Stderr, "rapwamd: -max-computes and -max-queue must be >= 0")
		os.Exit(2)
	}
	// Validate the chaos spec up front so a typo'd knob is a startup
	// error naming the flag, not a daemon that launched without the
	// faults the operator asked for.
	var faults blob.Faults
	if *chaos != "" {
		var err error
		if faults, err = blob.ParseFaults(*chaos); err != nil {
			fmt.Fprintf(os.Stderr, "rapwamd: -chaos: %v\n", err)
			os.Exit(2)
		}
	}
	peerList, err := parsePeers(*peers, *self)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rapwamd:", err)
		os.Exit(2)
	}
	parN := resolveWorkers("par", *par)

	// Collector headroom, stated rather than inherited. Engine address
	// spaces used to sit in the Go heap (50–110 MB each), which as a
	// side effect kept the collector quiet; they are OS mappings now and
	// the daemon's live heap is a few MB. At GOGC=100 one cold fig4
	// request runs 14 collector cycles where the in-heap build ran 5–7,
	// and the harness's service-mix phase1_rate reads 7.82–7.94 req/s
	// against that build's 8.13–8.54; at 400 it runs 3 cycles and reads
	// 8.37–8.77, for 28 MB peak RSS instead of 20 (the in-heap build:
	// 112). GOGC in the environment wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := service.Config{
		ResultDir:      *resultDir,
		TraceDir:       *traceDir,
		Parallelism:    parN,
		MaxComputes:    *computes,
		MaxQueue:       *queue,
		ComputeTimeout: *budget,
		StaleTempAge:   *sweepAge,
		ScrubInterval:  *scrub,
		Peers:          peerList,
		SelfURL:        *self,
	}
	if *chaos != "" {
		fmt.Fprintf(os.Stderr, "rapwamd: CHAOS MODE: injecting storage faults (%s)\n", *chaos)
		if err := chaosBackends(&cfg, faults); err != nil {
			fmt.Fprintln(os.Stderr, "rapwamd:", err)
			os.Exit(1)
		}
	}
	if *verbose {
		cfg.Log = func(msg string) { fmt.Fprintf(os.Stderr, "rapwamd: %s\n", msg) }
	}

	if len(peerList) > 0 {
		fmt.Fprintf(os.Stderr, "rapwamd: cluster of %d (self %s)\n", len(peerList), *self)
	}
	fmt.Fprintf(os.Stderr, "rapwamd: serving on %s (results %s, traces %s, emulator %s)\n",
		*addr, *resultDir, orNone(*traceDir), rapwam.EmulatorVersion())
	srv, err := service.New(cfg)
	if err == nil {
		err = service.Serve(ctx, *addr, nil, srv, *drain)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rapwamd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "rapwamd: shut down cleanly")
}

// chaosBackends wraps both stores' directories in the deterministic
// fault injector: the service must keep returning correct answers
// under it.
func chaosBackends(cfg *service.Config, faults blob.Faults) error {
	tempAge := cfg.StaleTempAge
	if tempAge <= 0 {
		tempAge = tracestore.StaleTempAge
	}
	rb, err := blob.NewDir(cfg.ResultDir, tempAge)
	if err != nil {
		return err
	}
	cfg.ResultBackend = blob.NewFault(rb, faults)
	if cfg.TraceDir != "" {
		tb, err := blob.NewDir(cfg.TraceDir, tempAge)
		if err != nil {
			return err
		}
		cfg.TraceBackend = blob.NewFault(tb, faults)
	}
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

// parsePeers validates the -peers/-self pair: every entry must be an
// http(s) URL with a host, and -self must appear in the list. Errors
// name the flag so a misconfigured fleet fails loudly at startup.
func parsePeers(peers, self string) ([]string, error) {
	if strings.TrimSpace(peers) == "" {
		if self != "" {
			return nil, fmt.Errorf("-self set without -peers")
		}
		return nil, nil
	}
	if self == "" {
		return nil, fmt.Errorf("-peers requires -self naming this node's own URL")
	}
	var list []string
	selfListed := false
	for _, raw := range strings.Split(peers, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-peers entry %q: want http(s)://host[:port]", raw)
		}
		list = append(list, raw)
		if strings.TrimRight(raw, "/") == strings.TrimRight(self, "/") {
			selfListed = true
		}
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	if !selfListed {
		return nil, fmt.Errorf("-self %q is not listed in -peers", self)
	}
	return list, nil
}

// resolveWorkers validates a worker-count flag, exiting with one line
// on a negative value.
func resolveWorkers(name string, n int) int {
	v, err := cliflag.Resolve(name, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rapwamd:", err)
		os.Exit(2)
	}
	return v
}
