package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// This file is the experiment grid runner. Every driver takes the
// bench.Runner it runs on — store, worker budget, progress callback,
// memo tables and counters all live there, none here — and every
// driver that sweeps a parameter grid (Figure 4, Table 3, MLIPS, the
// bus study, the cache ablations) decomposes into the same three
// layers:
//
//  1. memoized cells — each distinct (benchmark, PEs, sequential)
//     engine run is executed once, no matter how many grid cells need
//     it. Without a trace store the trace is memoized in RAM
//     (Runner.CachedTrace); with Runner.Store set the run streams into
//     the persistent store and later cells — including cells in later
//     processes — replay from disk, decoding chunk by chunk so the
//     trace never materializes in memory;
//  2. simulateAll — all cache configurations that consume one trace are
//     simulated concurrently in a single pass over it (trace.FanOut);
//  3. runGrid — independent grid cells (different traces) execute on a
//     pool of Runner.Par workers.
//
// The engine itself is a deterministic single-goroutine simulation and
// every cache.Sim is driven by exactly one consumer goroutine, so the
// results are bit-identical to the sequential formulation — whether the
// reference stream comes from the engine, a RAM buffer, or a stored
// compact trace.

// runGrid executes fn(0..n-1) on r's bounded worker pool and returns
// the first error. After an error, cells not yet started are skipped;
// cells already in flight complete (engine runs inside them observe
// ctx themselves and abort mid-run). Cancelling ctx stops the pool at
// the next cell boundary and returns ctx.Err(). Cells must write only
// to their own result slots.
func runGrid(ctx context.Context, r *bench.Runner, n int, fn func(i int) error) error {
	workers := r.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				if err := ctx.Err(); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// storeHealAttempts bounds how many times a grid path retries a
// store-backed cell that keeps failing (corrupt reads quarantine and
// regenerate; transient backend errors just retry) before degrading to
// a direct in-memory run.
const storeHealAttempts = 3

// storeHealable reports whether a store-path failure is worth
// retrying/degrading around: quarantined corruption (the retry
// regenerates the cell) or a backend-side storage failure (the
// degraded direct path bypasses it). Everything else — a failing
// benchmark, cancellation — propagates.
func storeHealable(err error) bool {
	return tracestore.IsCorrupt(err) || storage.AsBackendError(err)
}

// replayCell streams the cell's trace into the sinks in one pass.
// With r.Store set the pass is a chunked streaming decode from disk
// (the trace is never materialized); otherwise it replays the
// RAM-memoized buffer. Either way every sink sees the exact emission
// order, so results are bit-identical across sources.
func replayCell(ctx context.Context, r *bench.Runner, b bench.Benchmark, pes int, sequential bool, sinks ...trace.Sink) error {
	if s := r.Store; s != nil {
		k, err := r.EnsureStored(ctx, b, pes, sequential)
		if err != nil {
			return err
		}
		if len(sinks) == 1 {
			_, err := s.Replay(k, sinks[0])
			return err
		}
		f := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
		_, err = s.Replay(k, f)
		f.Close()
		return err
	}
	buf, err := r.CachedTrace(ctx, b, pes, sequential, false)
	if err != nil {
		return err
	}
	buf.ReplayAll(sinks...)
	return nil
}

// runStats returns the engine statistics and Table 1 reference counter
// for one cell. With r.Store set it is served from the cell's run
// sidecar (generating the cell on first need); otherwise it runs the
// emulator. Store failures heal: corrupt cells are quarantined by the
// read and regenerated on retry, transient backend errors retry, and a
// store that keeps failing is bypassed with a direct engine run
// (marking the context degraded) — the statistics are a pure function
// of the cell, so the answer is identical either way.
func runStats(ctx context.Context, r *bench.Runner, b bench.Benchmark, pes int, sequential bool) (core.Stats, *trace.Counter, error) {
	if s := r.Store; s != nil {
		var lastErr error
	heal:
		for attempt := 0; attempt < storeHealAttempts; attempt++ {
			if err := ctx.Err(); err != nil {
				return core.Stats{}, nil, err
			}
			k, err := r.EnsureStored(ctx, b, pes, sequential)
			if err != nil {
				if storeHealable(err) {
					lastErr = err
					continue heal
				}
				return core.Stats{}, nil, err
			}
			var rec bench.RunRecord
			ok, err := s.LoadSidecar(k, &rec)
			if err != nil {
				if storeHealable(err) {
					lastErr = err
					continue heal
				}
				return core.Stats{}, nil, err
			}
			if ok {
				return rec.Stats, &rec.Refs, nil
			}
			// Trace present but sidecar absent (foreign store, or just
			// quarantined as corrupt): run directly and repair the
			// sidecar so the next query is served from the store again
			// (best effort: the stats themselves are good).
			res, err := r.Run(ctx, b, bench.RunConfig{PEs: pes, Sequential: sequential})
			if err != nil {
				return core.Stats{}, nil, err
			}
			if err := s.PutSidecar(k, bench.RunRecord{Success: res.Success, Stats: res.Stats, Refs: *res.Refs}); err != nil {
				r.Progressf("sidecar repair for %v failed: %v", k, err)
			}
			return res.Stats, res.Refs, nil
		}
		if err := ctx.Err(); err != nil {
			return core.Stats{}, nil, err
		}
		storage.MarkDegraded(ctx, "trace-store")
		r.Progressf("stats for %s @ %d PEs degrading to direct run: %v", b.Name, pes, lastErr)
	}
	res, err := r.Run(ctx, b, bench.RunConfig{PEs: pes, Sequential: sequential})
	if err != nil {
		return core.Stats{}, nil, err
	}
	return res.Stats, res.Refs, nil
}

// TraceTarget names one trace-generation cell for GenerateTraces.
type TraceTarget struct {
	// Benchmark is the workload to trace.
	Benchmark bench.Benchmark
	// PEs is the processing-element count.
	PEs int
	// Sequential selects the CGE-free WAM baseline compilation.
	Sequential bool
}

// GenerateTraces makes sure r.Store holds every target cell,
// generating missing ones concurrently on the grid's bounded worker
// pool (r.Par) — each generation streaming straight into the store's
// compact codec. Duplicate targets and targets
// already present cost nothing. Cancelling ctx aborts in-flight engine
// runs (partial writes are cleaned up; completed cells stay). It
// requires r.Store.
func GenerateTraces(ctx context.Context, r *bench.Runner, targets []TraceTarget) error {
	if r.Store == nil {
		return fmt.Errorf("experiments: GenerateTraces needs a Runner with a trace store")
	}
	return runGrid(ctx, r, len(targets), func(i int) error {
		t := targets[i]
		k, err := r.EnsureStored(ctx, t.Benchmark, t.PEs, t.Sequential)
		if err != nil {
			return fmt.Errorf("generating %v: %w", k, err)
		}
		r.Progressf("stored %v", k)
		return nil
	})
}

// simulateAll replays one memoized trace through all configurations in
// a single fan-out pass and returns per-configuration statistics. With
// r.Store set the pass streams from disk.
//
// Store failures heal here, not inside replayCell, because a mid-stream
// failure leaves the simulators partially fed: each retry calls
// SimulateAllStream again so every attempt gets fresh simulator
// state. A corrupt stored trace quarantines on the failing read and the
// retry regenerates it; if the store keeps failing, the cell degrades
// to a direct in-memory run (marking the context degraded) — identical
// results, just without persistence.
func simulateAll(ctx context.Context, r *bench.Runner, b bench.Benchmark, pes int, sequential bool, cfgs []cache.Config) ([]cache.Stats, error) {
	if r.Store == nil {
		buf, err := r.CachedTrace(ctx, b, pes, sequential, false)
		if err != nil {
			return nil, err
		}
		return cache.SimulateAll(buf, cfgs)
	}
	var lastErr error
	for attempt := 0; attempt < storeHealAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := cache.SimulateAllStream(cfgs, func(sinks []trace.Sink) error {
			return replayCell(ctx, r, b, pes, sequential, sinks...)
		})
		if err == nil {
			return st, nil
		}
		if !storeHealable(err) {
			return nil, err
		}
		lastErr = err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	storage.MarkDegraded(ctx, "trace-store")
	r.Progressf("simulating %s @ %d PEs degrading to direct run: %v", b.Name, pes, lastErr)
	buf, err := r.CachedTrace(ctx, b, pes, sequential, true)
	if err != nil {
		return nil, err
	}
	return cache.SimulateAll(buf, cfgs)
}

// protocolRatios computes each benchmark's write-in broadcast traffic
// ratio at the given PE count and cache size — the quantity both the
// MLIPS calculation and the bus study average — as one grid cell per
// benchmark over memoized traces.
func protocolRatios(ctx context.Context, r *bench.Runner, benches []bench.Benchmark, pes, cacheWords int, tag string) ([]float64, error) {
	cfg := cache.Config{
		PEs: pes, SizeWords: cacheWords, LineWords: 4,
		Protocol:      cache.WriteInBroadcast,
		WriteAllocate: cache.PaperWriteAllocate(cache.WriteInBroadcast, cacheWords),
	}
	ratios := make([]float64, len(benches))
	err := runGrid(ctx, r, len(benches), func(i int) error {
		st, err := simulateAll(ctx, r, benches[i], pes, pes == 1, []cache.Config{cfg})
		if err != nil {
			return err
		}
		ratios[i] = st[0].TrafficRatio()
		r.Progressf("%s: %s @ %d PEs: traffic %.3f", tag, benches[i].Name, pes, ratios[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ratios, nil
}
