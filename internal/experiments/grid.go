package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// This file is the experiment grid runner. Every driver takes the
// bench.Runner it runs on — store, worker budget, progress callback
// and counters all live there, none here — and every driver that
// sweeps a parameter grid (Figure 4, Table 3, MLIPS, the bus study,
// the cache ablations) decomposes into the same three layers:
//
//  1. stored cells — each distinct (benchmark, PEs, sequential) engine
//     run is executed once, no matter how many grid cells need it: the
//     run streams into the Runner's trace store (the directory or
//     tiered store it was configured with, or its private in-memory
//     one) and every consumer — including, over a persistent store,
//     consumers in later processes — replays from there, decoding
//     chunk by chunk so the trace never materializes in memory.
//     Runner.UseCell is the only way in, and owns the one rule for a
//     failing store (retry, regenerate, then degrade to memory);
//  2. cellResults — what a consumer wants of one cell (simulateAll: the
//     Stats of cache configurations; RunBusDES: the bus DES) is looked
//     up in the cell's stored results first; what is missing is
//     computed in a single pass over the trace (the configurations
//     concurrently, trace.FanOut) and stored for every later consumer;
//  3. runGrid — independent grid cells (different traces) execute
//     concurrently, each under one token of the Runner's cell budget
//     (Runner.AcquireCell), which every caller of the Runner shares.
//
// The engine itself is a deterministic single-goroutine simulation and
// every cache.Sim is driven by exactly one consumer goroutine, so the
// results are bit-identical to the sequential formulation, whichever
// backend holds the trace.

// runGrid executes fn(0..n-1), each call a cell under one token of r's
// cell budget, started in index order as tokens come free, and returns
// the first error. After an error, cells not yet started are skipped;
// cells already in flight complete (engine runs inside them observe
// ctx themselves and abort mid-run). Cancelling ctx stops the grid at
// the next cell boundary and returns ctx.Err(). Cells must write only
// to their own result slots, and must not take a second token: fn may
// not call runGrid or inCell.
func runGrid(ctx context.Context, r *bench.Runner, n int, fn func(i int) error) error {
	var (
		wg       sync.WaitGroup
		firstErr atomic.Pointer[error]
	)
	for i := 0; i < n; i++ {
		release, err := r.AcquireCell(ctx)
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
			break
		}
		if firstErr.Load() != nil {
			release()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			if err := fn(i); err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// inCell runs fn as one grid cell, under one token of r's cell budget.
func inCell[T any](ctx context.Context, r *bench.Runner, fn func() (T, error)) (T, error) {
	release, err := r.AcquireCell(ctx)
	if err != nil {
		var zero T
		return zero, err
	}
	defer release()
	return fn()
}

// replayCell streams the stored trace for k into the sinks in one
// pass — a chunked streaming decode, never materializing the trace.
// Every sink sees the exact emission order.
func replayCell(s *tracestore.Store, k tracestore.Key, sinks ...trace.Sink) error {
	if len(sinks) == 1 {
		_, err := s.Replay(k, sinks[0])
		return err
	}
	f := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
	_, err := s.Replay(k, f)
	f.Close()
	return err
}

// runStats returns the engine statistics and Table 1 reference counter
// for one cell, served from the cell's run sidecar (generating the
// cell on first need).
func runStats(ctx context.Context, r *bench.Runner, b bench.Benchmark, pes int, sequential bool) (core.Stats, *trace.Counter, error) {
	var rec bench.RunRecord
	err := r.UseCell(ctx, b, pes, sequential, func(s *tracestore.Store, k tracestore.Key) error {
		ok, err := s.LoadSidecar(k, &rec)
		if err != nil || ok {
			return err
		}
		// Trace present but sidecar absent (foreign store, or just
		// quarantined as corrupt): run directly and repair the sidecar
		// so the next query is served from the store again (best
		// effort: the stats themselves are good).
		res, err := r.Run(ctx, b, bench.RunConfig{PEs: pes, Sequential: sequential})
		if err != nil {
			return err
		}
		rec = bench.RunRecord{Success: res.Success, Stats: res.Stats, Refs: *res.Refs}
		if err := s.PutSidecar(k, &rec); err != nil {
			r.Progressf("sidecar repair for %v failed: %v", k, err)
		}
		return nil
	})
	if err != nil {
		return core.Stats{}, nil, err
	}
	return rec.Stats, &rec.Refs, nil
}

// runStatsGrid is runStats for a list of distinct cells, run as grid
// cells and returned in the order given.
func runStatsGrid(ctx context.Context, r *bench.Runner, cells []TraceTarget) ([]core.Stats, error) {
	out := make([]core.Stats, len(cells))
	err := runGrid(ctx, r, len(cells), func(i int) (err error) {
		out[i], _, err = runStats(ctx, r, cells[i].Benchmark, cells[i].PEs, cells[i].Sequential)
		return err
	})
	return out, err
}

// TraceTarget names one cell: for GenerateTraces, the trace to generate.
type TraceTarget struct {
	// Benchmark is the workload to trace.
	Benchmark bench.Benchmark
	// PEs is the processing-element count.
	PEs int
	// Sequential selects the CGE-free WAM baseline compilation.
	Sequential bool
}

// GenerateTraces makes sure r.Store holds every target cell,
// generating missing ones concurrently as grid cells under r's cell
// budget — each generation streaming straight into the store's
// compact codec. Duplicate targets and targets
// already present cost nothing. Cancelling ctx aborts in-flight engine
// runs (partial writes are cleaned up; completed cells stay). It
// requires r.Store: traces generated into a Runner's private in-memory
// store would vanish with the process.
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

// cellResults is the one memo path of every number derived from a
// cell's trace. A result is a pure function of the cell's key, a
// canonical configuration key and the version of the code that computes
// its kind, so the cell's result object of that kind is asked first, and
// only the keys it lacks are computed — plan, given their indexes, words
// the cost for the progress line and returns the computation: all of
// them from a single replay of the stored trace — and then written back
// with the rest. A cell whose every key is stored is never decoded. The
// cell lock makes lookup → replay → write-back the single-flight: a
// concurrent consumer of the same cell waits and then finds these
// results stored.
//
// Results are written only after the replay verified the whole trace
// (chunk CRCs and footer), and a failed write costs the next consumer
// a recomputation, never this one its answer. A mid-stream store
// failure leaves the consumers partially fed, so all of this runs
// inside UseCell: every heal attempt starts from a fresh lookup and a
// fresh plan, and compute must build its consumer state when called.
func cellResults[T any, P tracestore.ResultCodec[T]](ctx context.Context, r *bench.Runner, b bench.Benchmark, pes int, sequential bool, kind, version string, keys []string,
	plan func(missing []int) (cost string, compute func(*tracestore.Store, tracestore.Key) ([]T, error))) ([]T, error) {
	var out []T
	err := r.UseCell(ctx, b, pes, sequential, func(s *tracestore.Store, k tracestore.Key) error {
		defer r.LockCell(s, k)()
		stored, err := tracestore.LoadResults[T, P](s, k, kind, version, keys)
		if err != nil {
			return err
		}
		out = make([]T, len(keys))
		var missing []int
		for i, key := range keys {
			if v, ok := stored[key]; ok {
				out[i] = v
			} else {
				missing = append(missing, i)
			}
		}
		served := fmt.Sprintf("%v: %d of %d configs from stored results", k, len(keys)-len(missing), len(keys))
		if len(missing) == 0 {
			r.Progressf("%s", served)
			return nil
		}
		cost, compute := plan(missing)
		r.Progressf("%s; %s", served, cost)
		fresh, err := compute(s, k)
		if err != nil {
			return err
		}
		for j, i := range missing {
			out[i] = fresh[j]
			stored[keys[i]] = fresh[j]
		}
		if err := tracestore.PutResults[T, P](s, k, kind, version, stored); err != nil {
			r.Progressf("storing results for %v failed: %v", k, err)
		}
		return nil
	})
	return out, err
}

// simulateAll returns per-configuration cache statistics for one cell:
// result kind "sim", a Stats per cache.Config.Key() under
// cache.SimVersion, the missing configurations simulated together in a
// single fan-out pass.
func simulateAll(ctx context.Context, r *bench.Runner, b bench.Benchmark, pes int, sequential bool, cfgs []cache.Config) ([]cache.Stats, error) {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = cfg.Key()
	}
	return cellResults(ctx, r, b, pes, sequential, "sim", cache.SimVersion, keys,
		func(missing []int) (string, func(*tracestore.Store, tracestore.Key) ([]cache.Stats, error)) {
			todo := make([]cache.Config, len(missing))
			for j, i := range missing {
				todo[j] = cfgs[i]
			}
			return fmt.Sprintf("simulating %d configs with %d simulators", len(todo), cache.Simulators(todo)),
				func(s *tracestore.Store, k tracestore.Key) ([]cache.Stats, error) {
					return cache.SimulateAllStream(todo, func(sinks []trace.Sink) error {
						return replayCell(s, k, sinks...)
					})
				}
		})
}

// protocolRatios computes each benchmark's write-in broadcast traffic
// ratio at the given PE count and cache size — the quantity both the
// MLIPS calculation and the bus study average — as one grid cell per
// benchmark over stored traces.
func protocolRatios(ctx context.Context, r *bench.Runner, benches []bench.Benchmark, pes, cacheWords int, tag string) ([]float64, error) {
	cfg := paperConfig(pes, cacheWords, cache.WriteInBroadcast)
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
