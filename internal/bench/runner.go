package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Runner owns everything benchmark runs and the experiments grid
// share: the persistent trace store, the one worker budget, the
// progress callback, and — unexported — the trace memo, the per-cell
// generation flights and the engine-run counter. Nothing is ambient:
// every run names its Runner, so two Runners in one process (two
// servers, two test cases) never see each other's store, memo or
// counts. The zero value is ready to use (no store, GOMAXPROCS workers,
// no progress). Set the exported fields before the Runner's first use
// and leave them alone while a run is in flight; a Runner must not be
// copied after first use.
type Runner struct {
	// Store is the persistent trace store consulted before any
	// emulator run: a cell streams into it on first need and replays
	// from it afterwards. nil memoizes traces in RAM instead.
	Store *tracestore.Store
	// Par bounds the grid cells (engine runs and trace replays) in
	// flight at once; <= 0 means runtime.GOMAXPROCS(0).
	Par int
	// Progress, when non-nil, receives one short line per completed
	// cell (e.g. "fig4: deriv @ 8 PEs: 24 configs in one pass"). It may
	// be called from several worker goroutines concurrently.
	Progress func(msg string)

	// engineRuns counts emulator executions (Run calls) — the
	// observable that verifies a warm store eliminates regeneration.
	engineRuns atomic.Int64
	// flights single-flights concurrent generation of one store cell
	// (tracestore.Key -> *cellFlight). Flights are removed on
	// completion: success lives on in the store itself and failures are
	// never memoized, so a quarantined or lost cell regenerates on the
	// next call instead of replaying a stale error forever.
	flights sync.Map
	// traces memoizes reference traces across drivers (traceKey ->
	// *traceEntry): `-exp all` shares e.g. the 8-PE paper-benchmark
	// traces between Figure 4, MLIPS and the bus study. A few MB each;
	// DropTraces frees them.
	traces sync.Map
}

// Workers returns the grid worker-pool width Par resolves to.
func (r *Runner) Workers() int {
	if r.Par > 0 {
		return r.Par
	}
	return runtime.GOMAXPROCS(0)
}

// Progressf reports one completed cell to the Progress callback.
func (r *Runner) Progressf(format string, args ...any) {
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, args...))
	}
}

// EngineRuns returns the number of emulator executions this Runner has
// performed (every Run call, including runs on behalf of Trace,
// EnsureStored and the experiment drivers).
func (r *Runner) EngineRuns() int64 { return r.engineRuns.Load() }

// RunConfig parameterizes a benchmark run.
type RunConfig struct {
	// PEs is the number of workers.
	PEs int
	// Sequential compiles CGEs away (the WAM baseline).
	Sequential bool
	// Sink receives the full memory trace (nil to skip tracing).
	Sink trace.Sink
	// Layout overrides worker memory sizes (zero = default).
	Layout mem.Layout
}

// Run compiles and executes the benchmark. Every Run is one emulator
// execution and counts toward EngineRuns. Cancelling ctx aborts the
// engine mid-run (within a few thousand simulated cycles) and returns
// ctx.Err().
func (r *Runner) Run(ctx context.Context, b Benchmark, cfg RunConfig) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.engineRuns.Add(1)
	code, err := compile.Compile(b.Source, b.Query, compile.Options{Sequential: cfg.Sequential})
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	eng, err := core.New(code, core.Config{
		PEs:    cfg.PEs,
		Layout: cfg.Layout,
		Sink:   cfg.Sink,
		Cancel: ctx.Done(),
	})
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	res, err := eng.Run()
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	// The result is self-contained (bindings are rendered strings), so
	// the engine's memory slab can go back to the pool: the next run of
	// the same shape skips the O(address space) zeroing.
	eng.Close()
	if b.Check != nil {
		if err := b.Check(res); err != nil {
			return nil, fmt.Errorf("bench %s: wrong answer: %w", b.Name, err)
		}
	}
	return res, nil
}

// traceKey identifies one memoized engine run. direct marks buffers
// generated bypassing the store (the degraded path) — kept distinct so
// a recovered store never serves a slot filled during an outage and
// vice versa.
type traceKey struct {
	bench      string
	pes        int
	sequential bool
	direct     bool
}

// traceEntry is a once-filled memo slot.
type traceEntry struct {
	once sync.Once
	buf  *trace.Buffer
	err  error
}

// CachedTrace returns the memoized trace for (b, pes, sequential),
// running the engine on first use. Concurrent callers for the same key
// block until the single engine run completes (the generating caller's
// ctx governs that run). A cancelled generation is evicted from the
// memo rather than cached, so a later sweep with a live context
// regenerates the cell instead of replaying the stale context error.
// direct bypasses Store (TraceDirect) — the degraded path when storage
// keeps failing.
func (r *Runner) CachedTrace(ctx context.Context, b Benchmark, pes int, sequential, direct bool) (*trace.Buffer, error) {
	key := traceKey{b.Name, pes, sequential, direct}
	v, _ := r.traces.LoadOrStore(key, &traceEntry{})
	e := v.(*traceEntry)
	e.once.Do(func() {
		if direct {
			e.buf, _, e.err = r.TraceDirect(ctx, b, pes, sequential)
		} else {
			e.buf, _, e.err = r.Trace(ctx, b, pes, sequential)
		}
		if e.err == nil {
			r.Progressf("traced %s @ %d PEs (%d refs)", b.Name, pes, e.buf.Len())
		}
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		r.traces.CompareAndDelete(key, v)
	}
	return e.buf, e.err
}

// DropTraces drops all memoized traces.
func (r *Runner) DropTraces() {
	r.traces.Range(func(k, _ any) bool {
		r.traces.Delete(k)
		return true
	})
}
