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
	"repro/internal/storage/blob"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Runner owns everything benchmark runs and the experiments grid
// share: the trace store, the one cell budget, the progress callback,
// and — unexported — the per-cell generation flights, the per-cell
// locks and the engine-run counter. Nothing is ambient: every run names
// its Runner,
// so two Runners in one process (two servers, two test cases) never see
// each other's store or counts. The zero value is ready to use (a
// private in-memory store, a budget of GOMAXPROCS cells, no progress). Set the exported fields before the Runner's first use
// and leave them alone while a run is in flight; a Runner must not be
// copied after first use.
type Runner struct {
	// Store is the trace store every grid cell goes through: a cell
	// streams into it on first need and replays from it afterwards.
	// nil keeps the cells in a private in-memory store (same codec,
	// same sidecars) that lives as long as the Runner, or until
	// DropTraces.
	Store *tracestore.Store
	// Par bounds the grid cells (engine runs and trace replays) in
	// flight at once across all callers; <= 0 means GOMAXPROCS.
	Par int
	// Progress, when non-nil, receives one short line per completed
	// cell (e.g. "fig4: deriv @ 8 PEs: 24 configs in one pass"). It may
	// be called from several cell goroutines concurrently.
	Progress func(msg string)

	// engineRuns counts emulator executions (Run calls) — the
	// observable that verifies a warm store eliminates regeneration.
	engineRuns atomic.Int64
	// flights single-flights concurrent generation of one store cell
	// (flightKey -> *cellFlight). Flights are removed on completion:
	// success lives on in the store itself and failures are never
	// memoized, so a quarantined or lost cell regenerates on the next
	// call instead of replaying a stale error forever.
	flights sync.Map
	// locks holds the per-cell locks handed out by LockCell, guarded by
	// locksMu; an entry lives while someone holds or awaits it.
	locksMu sync.Mutex
	locks   map[flightKey]*cellLock
	// mem is the private in-memory store (see memStore), guarded by
	// memMu.
	memMu sync.Mutex
	mem   *tracestore.Store
	// budget holds a token per cell in flight (AcquireCell).
	budgetMu sync.Mutex
	budget   chan struct{}
}

// Workers returns the cell budget Par resolves to.
func (r *Runner) Workers() int {
	if r.Par > 0 {
		return r.Par
	}
	return runtime.GOMAXPROCS(0)
}

// AcquireCell blocks until one of the Runner's Workers() cell tokens is
// free, takes it and returns the function that gives it back; a
// cancelled wait returns ctx.Err() and holds nothing. A cell never
// waits for a second token, so cells that wait on each other (a
// generation flight, a cell lock) wait on a holder that can finish.
// A change of Par between runs resizes the budget for later cells.
func (r *Runner) AcquireCell(ctx context.Context) (release func(), err error) {
	r.budgetMu.Lock()
	if n := r.Workers(); cap(r.budget) != n {
		r.budget = make(chan struct{}, n)
	}
	budget := r.budget
	r.budgetMu.Unlock()
	//rapwam:allow determinism token-wait select: a granted token is given back when ctx is done, so both outcomes leave the budget as it was
	select {
	case budget <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		<-budget
		return nil, err
	}
	return func() { <-budget }, nil
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
	// The result is self-contained (bindings are rendered strings), so
	// the address space goes back on every return: a cancelled or
	// faulting run must not wait for a cleanup.
	defer eng.Close()
	res, err := eng.Run()
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	if b.Check != nil {
		if err := b.Check(res); err != nil {
			return nil, fmt.Errorf("bench %s: wrong answer: %w", b.Name, err)
		}
	}
	return res, nil
}

// memStore returns the Runner's private in-memory trace store,
// creating it on first need: where cells live when Store is nil, and
// where they go when Store keeps failing.
func (r *Runner) memStore() *tracestore.Store {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	if r.mem == nil {
		r.mem = tracestore.NewOn(blob.NewMem())
	}
	return r.mem
}

// DropTraces discards the private in-memory store — traces, sidecars
// and result objects — so the next run on a Runner without a Store
// re-emulates and re-simulates every cell. A configured Store is left
// alone.
func (r *Runner) DropTraces() {
	r.memMu.Lock()
	r.mem = nil
	r.memMu.Unlock()
}
