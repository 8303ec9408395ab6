package bench

// Persistent trace-store integration. When a Runner carries a Store,
// every benchmark cell — one (benchmark, PEs, sequential) engine run —
// is generated at most once per emulator version: the run streams its
// reference trace straight into the store's compact encoder (never
// buffering it) and records its engine statistics in a JSON sidecar,
// and later callers replay from disk. Trace and the experiments grid
// both consult the store before regenerating.

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// cellFlight is one in-progress generation of a store cell
// (Runner.flights).
type cellFlight struct {
	done chan struct{}
	err  error
}

// StoreKey returns the trace-store key for a benchmark cell under the
// current emulator version.
func StoreKey(benchmark string, pes int, sequential bool) tracestore.Key {
	return tracestore.Key{
		Benchmark:       benchmark,
		PEs:             pes,
		Sequential:      sequential,
		EmulatorVersion: core.EmulatorVersion,
	}
}

// RunRecord is the store sidecar written alongside each generated
// trace: the generating run's outcome and instrumentation, so drivers
// that need only statistics (Figure 2, Table 2, MLIPS, lock share)
// skip the emulator exactly like trace consumers do.
type RunRecord struct {
	// Success reports whether the query succeeded (it always has for a
	// stored benchmark cell: generation validates the answer).
	Success bool
	// Stats is the engine instrumentation of the generating run.
	Stats core.Stats
	// Refs is the Table 1 reference counter of the generating run.
	Refs trace.Counter
}

// EnsureStored makes sure r.Store holds the trace and run sidecar for
// (b, pes, sequential), generating them with one engine run if absent.
// Generation is streaming (the trace never materializes in memory) and
// single-flighted: concurrent callers for the same cell block until
// the one generation completes — the generating caller's ctx governs
// the engine run, so every waiter on a cancelled flight observes the
// context error. It returns the cell's key. Calling EnsureStored on a
// Runner without a Store is an error.
//
// Failures are not memoized: the next call re-checks the store and
// regenerates, which is how a cell quarantined by a corrupt read comes
// back. Callers that keep looping on a persistently failing cell are
// expected to bound their own retries (the experiments grid does).
func (r *Runner) EnsureStored(ctx context.Context, b Benchmark, pes int, sequential bool) (tracestore.Key, error) {
	k := StoreKey(b.Name, pes, sequential)
	if r.Store == nil {
		return k, errNoStore
	}
	for {
		f := &cellFlight{done: make(chan struct{})}
		if v, loaded := r.flights.LoadOrStore(k, f); loaded {
			// Someone else is generating this cell; wait them out,
			// then re-check the store (their failure is not ours to
			// inherit — a cancelled or faulted generation must not
			// poison callers with live contexts).
			other := v.(*cellFlight)
			//rapwam:allow determinism flight-wait select: both outcomes converge (re-check store / ctx.Err()), and nothing is emitted here
			select {
			case <-other.done:
				if other.err == nil {
					return k, nil
				}
				if ctx.Err() != nil {
					return k, ctx.Err()
				}
				// Their generation failed; loop and try ourselves.
				continue
			case <-ctx.Done():
				return k, ctx.Err()
			}
		}
		f.err = r.generateCell(ctx, k, b, pes, sequential)
		r.flights.Delete(k)
		close(f.done)
		return k, f.err
	}
}

// generateCell performs one store-check + generation for a cell.
func (r *Runner) generateCell(ctx context.Context, k tracestore.Key, b Benchmark, pes int, sequential bool) error {
	if r.Store.Has(k) {
		return nil
	}
	var res *core.Result
	err := r.Store.Put(k, func(sink trace.Sink) (err error) {
		res, err = r.Run(ctx, b, RunConfig{PEs: pes, Sequential: sequential, Sink: sink})
		return err
	})
	if err != nil {
		return err
	}
	return r.Store.PutSidecar(k, RunRecord{Success: res.Success, Stats: res.Stats, Refs: *res.Refs})
}

// errNoStore reports EnsureStored use on a Runner without a Store.
//
//rapwam:allow globalstate sentinel error value, never reassigned
var errNoStore = errors.New("bench: Runner has no trace store")

// traceHealAttempts bounds how many times Trace retries a cell whose
// stored copy keeps failing before degrading to a direct run.
const traceHealAttempts = 3

// TraceDirect generates the benchmark's full memory-reference trace
// with one emulator run, bypassing r.Store — the degraded path when
// storage is unavailable, and the only path without a store.
func (r *Runner) TraceDirect(ctx context.Context, b Benchmark, pes int, sequential bool) (*trace.Buffer, *core.Result, error) {
	buf := trace.NewBuffer(1 << 20)
	res, err := r.Run(ctx, b, RunConfig{PEs: pes, Sequential: sequential, Sink: buf})
	if err != nil {
		return nil, nil, err
	}
	return buf, res, nil
}

// Trace returns the benchmark's full memory-reference trace, running
// the emulator to generate it. When r carries a Store it is consulted
// first: a hit decodes the stored trace instead of re-running the
// emulator (and returns a nil run result, since no run happened), and a
// miss generates through the store so the next caller hits.
//
// Store failures self-heal: a corrupt stored trace is quarantined by
// the read (tracestore.CorruptError reads as a miss), so the retry
// regenerates it; transient backend errors retry too; and if the store
// keeps failing, Trace degrades to a direct in-memory run (marking the
// context's degraded flag) — storage trouble costs latency, never an
// answer. Callers that want to stream references instead of buffering
// them pass their own Sink via RunConfig; callers that should never
// materialize the trace replay it from the store
// (tracestore.Store.Replay) instead.
func (r *Runner) Trace(ctx context.Context, b Benchmark, pes int, sequential bool) (*trace.Buffer, *core.Result, error) {
	s := r.Store
	if s == nil {
		return r.TraceDirect(ctx, b, pes, sequential)
	}
	var lastErr error
	for attempt := 0; attempt < traceHealAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if _, lastErr = r.EnsureStored(ctx, b, pes, sequential); lastErr != nil {
			if storage.AsBackendError(lastErr) {
				continue // transient or backend-side: retry, then degrade
			}
			return nil, nil, lastErr
		}
		buf, _, err := s.Load(StoreKey(b.Name, pes, sequential))
		if err == nil {
			return buf, nil, nil
		}
		lastErr = err
		// Corrupt loads quarantined the object (a miss now) and
		// transient errors deserve another try; anything else falls
		// through to the degraded path below.
		if !tracestore.IsCorrupt(err) && !storage.AsBackendError(err) && !errors.Is(err, context.Canceled) {
			break
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The store would not yield this cell; compute without it rather
	// than fail the caller. The flag makes the bypass visible
	// (X-Degraded at the serving layer).
	storage.MarkDegraded(ctx, "trace-store")
	return r.TraceDirect(ctx, b, pes, sequential)
}
