package rapwam

import (
	"context"

	"repro/internal/bench"
	"repro/internal/busmodel"
	"repro/internal/experiments"
	"repro/internal/tracestore"
)

// This file re-exports the experiment drivers that regenerate the
// paper's tables and figures. Each returns structured data with a
// String() rendering.
//
// Every driver runs on a Runner, which owns what runs share: the trace
// store, the cell budget and the progress callback. Each
// (benchmark, PEs, sequential) cell is emulated once into the store and
// replayed from it; the drivers that sweep parameter grids (Figure 4,
// Table 3, MLIPS, the bus study and the cache ablations) simulate every
// cache configuration consuming one trace concurrently in a single pass
// over it, and execute independent grid cells concurrently under the
// Runner's cell budget. Results are identical at any budget and over
// any store; only wall-clock time changes.
//
// The package-level functions of the same names run on one shared
// default Runner, configured through SetParallelism, SetProgress and
// SetTraceStore / SetTraceDir. Configure it before starting work on
// it, not while a driver is running; programs that need two
// configurations side by side build their own Runners.

// Runner owns the state experiment and benchmark runs share — trace
// store, cell budget, progress callback and the emulator-run
// counter. Two Runners never see each other's store or counts. Build
// one with NewRunner.
type Runner struct {
	r bench.Runner
}

// NewRunner returns a Runner. store is the trace store every grid cell
// goes through: each (benchmark, PEs, sequential) cell runs at most
// once per emulator version — the trace streams into the store's
// compact codec, the run's statistics go into a sidecar, and every
// later experiment, in this process or (over a persistent store) the
// next, replays from it chunk by chunk with bit-identical results. nil
// gives the Runner a private in-memory store with the same behaviour
// for as long as it lives. par
// bounds how many grid cells (engine runs and trace replays) execute
// concurrently across all its callers (<= 0: GOMAXPROCS). progress (nil: silent)
// receives one short line per completed cell, possibly from several
// goroutines at once.
func NewRunner(store *TraceStore, par int, progress func(msg string)) *Runner {
	return &Runner{r: bench.Runner{Store: store, Par: par, Progress: progress}}
}

// defaultRunner backs the package-level functions.
var defaultRunner = NewRunner(nil, 0, nil)

// SetParallelism sets the default Runner's cell budget (n <= 0:
// runtime.GOMAXPROCS(0)); cells started afterwards use the new size.
func SetParallelism(n int) { defaultRunner.r.Par = n }

// Parallelism returns the default Runner's cell budget.
func Parallelism() int { return defaultRunner.r.Workers() }

// SetProgress sets the default Runner's progress callback (nil
// disables reporting).
func SetProgress(f func(msg string)) { defaultRunner.r.Progress = f }

// ResetTraceCache discards the default Runner's private in-memory
// trace store — traces, run statistics and simulation results — so its
// next run without a trace store re-emulates and re-simulates every
// cell. An attached store is left alone.
func ResetTraceCache() { defaultRunner.r.DropTraces() }

// SetTraceStore attaches (nil: detaches) the default Runner's
// persistent trace store (see NewRunner).
func SetTraceStore(s *TraceStore) { defaultRunner.r.Store = s }

// SetTraceDir opens (creating if needed) the trace store rooted at dir
// and attaches it to the default Runner; an empty dir detaches the
// store.
func SetTraceDir(dir string) (*TraceStore, error) {
	if dir == "" {
		SetTraceStore(nil)
		return nil, nil
	}
	s, err := tracestore.Open(dir)
	if err != nil {
		return nil, err
	}
	SetTraceStore(s)
	return s, nil
}

// GenerateTraces is Runner.GenerateTraces on the default Runner.
func GenerateTraces(ctx context.Context, targets []TraceTarget) error {
	return defaultRunner.GenerateTraces(ctx, targets)
}

// EngineRuns is Runner.EngineRuns on the default Runner.
func EngineRuns() int64 { return defaultRunner.EngineRuns() }

// EngineRuns returns the number of emulator executions the Runner has
// performed — the observable that verifies a warm trace store
// eliminates regeneration (a full experiment sweep over a warm store
// reports 0).
func (r *Runner) EngineRuns() int64 { return r.r.EngineRuns() }

// TraceTarget re-exports one trace-generation cell for GenerateTraces.
type TraceTarget = experiments.TraceTarget

// GenerateTraces generates every missing target cell into the Runner's
// trace store, independent cells concurrently under its cell budget.
// cmd/tracegen's generate subcommand is a thin wrapper around it.
func (r *Runner) GenerateTraces(ctx context.Context, targets []TraceTarget) error {
	return experiments.GenerateTraces(ctx, &r.r, targets)
}

// Table1 renders the storage-object classification (paper Table 1).
func Table1() string { return experiments.Table1().String() }

// Figure2 re-exports the deriv overhead sweep result type.
type Figure2 = experiments.Figure2

// RunFigure2 sweeps deriv work/overhead over the given PE counts
// (paper Figure 2 plots 1 to 40).
func (r *Runner) RunFigure2(ctx context.Context, peCounts []int) (*Figure2, error) {
	return experiments.RunFigure2(ctx, &r.r, peCounts)
}

// RunFigure2 is Runner.RunFigure2 on the default Runner.
func RunFigure2(ctx context.Context, peCounts []int) (*Figure2, error) {
	return defaultRunner.RunFigure2(ctx, peCounts)
}

// Table2 re-exports the benchmark-statistics result type.
type Table2 = experiments.Table2

// RunTable2 gathers benchmark statistics at the given PE count (the
// paper uses 8).
func (r *Runner) RunTable2(ctx context.Context, pes int) (*Table2, error) {
	return experiments.RunTable2(ctx, &r.r, pes)
}

// RunTable2 is Runner.RunTable2 on the default Runner.
func RunTable2(ctx context.Context, pes int) (*Table2, error) {
	return defaultRunner.RunTable2(ctx, pes)
}

// Table3 re-exports the locality-fit result type.
type Table3 = experiments.Table3

// RunTable3 computes the small-vs-large benchmark locality fit at the
// paper's 512 and 1024 word cache sizes.
func (r *Runner) RunTable3(ctx context.Context) (*Table3, error) {
	return experiments.RunTable3(ctx, &r.r)
}

// RunTable3 is Runner.RunTable3 on the default Runner.
func RunTable3(ctx context.Context) (*Table3, error) {
	return defaultRunner.RunTable3(ctx)
}

// Figure4 re-exports the coherency-traffic sweep result type.
type Figure4 = experiments.Figure4

// RunFigure4 sweeps traffic ratio over cache sizes, protocols and PE
// counts (paper Figure 4).
func (r *Runner) RunFigure4(ctx context.Context, peCounts, sizes []int) (*Figure4, error) {
	return experiments.RunFigure4(ctx, &r.r, peCounts, sizes)
}

// RunFigure4 is Runner.RunFigure4 on the default Runner.
func RunFigure4(ctx context.Context, peCounts, sizes []int) (*Figure4, error) {
	return defaultRunner.RunFigure4(ctx, peCounts, sizes)
}

// MLIPS re-exports the §3.3 feasibility calculation result type.
type MLIPS = experiments.MLIPS

// RunMLIPS re-derives the paper's 2 MLIPS back-of-the-envelope
// calculation from measured statistics.
func (r *Runner) RunMLIPS(ctx context.Context, cacheWords int, targetMLIPS float64) (*MLIPS, error) {
	return experiments.RunMLIPS(ctx, &r.r, cacheWords, targetMLIPS)
}

// RunMLIPS is Runner.RunMLIPS on the default Runner.
func RunMLIPS(ctx context.Context, cacheWords int, targetMLIPS float64) (*MLIPS, error) {
	return defaultRunner.RunMLIPS(ctx, cacheWords, targetMLIPS)
}

// BusStudy re-exports the bus-contention study result type.
type BusStudy = experiments.BusStudy

// RunBusStudy tabulates shared-memory efficiency against bus bandwidth
// for the given configuration.
func (r *Runner) RunBusStudy(ctx context.Context, pes, cacheWords int) (*BusStudy, error) {
	return experiments.RunBusStudy(ctx, &r.r, pes, cacheWords)
}

// RunBusStudy is Runner.RunBusStudy on the default Runner.
func RunBusStudy(ctx context.Context, pes, cacheWords int) (*BusStudy, error) {
	return defaultRunner.RunBusStudy(ctx, pes, cacheWords)
}

// BusParams re-exports the analytic bus model parameters.
type BusParams = busmodel.Params

// BusResult re-exports the analytic bus model result.
type BusResult = busmodel.Result

// BusAnalytic evaluates the M/M/1 bus contention approximation.
func BusAnalytic(p BusParams) (BusResult, error) { return busmodel.Analytic(p) }

// BusMaxPEs returns the largest PE count keeping efficiency at or above
// target for the given load.
func BusMaxPEs(p BusParams, target float64) (int, error) {
	return busmodel.MaxPEs(p, target)
}

// GranularitySweep re-exports the CGE granularity ablation result type.
type GranularitySweep = experiments.GranularitySweep

// RunGranularitySweep varies deriv's parallelism depth budget,
// quantifying the parallelism-vs-overhead tradeoff of CGE annotation
// granularity.
func (r *Runner) RunGranularitySweep(ctx context.Context, depths []int) (*GranularitySweep, error) {
	return experiments.RunGranularitySweep(ctx, &r.r, depths)
}

// RunGranularitySweep is Runner.RunGranularitySweep on the default Runner.
func RunGranularitySweep(ctx context.Context, depths []int) (*GranularitySweep, error) {
	return defaultRunner.RunGranularitySweep(ctx, depths)
}

// LineSizeSweep re-exports the cache line-size ablation result type.
type LineSizeSweep = experiments.LineSizeSweep

// RunLineSizeSweep replays a benchmark trace across cache line sizes
// (the paper fixes 4-word lines; this shows where that sits).
func (r *Runner) RunLineSizeSweep(ctx context.Context, benchName string, pes, sizeWords int, lines []int) (*LineSizeSweep, error) {
	return experiments.RunLineSizeSweep(ctx, &r.r, benchName, pes, sizeWords, lines)
}

// RunLineSizeSweep is Runner.RunLineSizeSweep on the default Runner.
func RunLineSizeSweep(ctx context.Context, benchName string, pes, sizeWords int, lines []int) (*LineSizeSweep, error) {
	return defaultRunner.RunLineSizeSweep(ctx, benchName, pes, sizeWords, lines)
}

// LockShare re-exports the synchronization-traffic measurement type.
type LockShare = experiments.LockShare

// RunLockShare measures the fraction of references to locked objects
// (goal stack, parcall counters, messages).
func (r *Runner) RunLockShare(ctx context.Context, benchName string, pes int) (*LockShare, error) {
	return experiments.RunLockShare(ctx, &r.r, benchName, pes)
}

// RunLockShare is Runner.RunLockShare on the default Runner.
func RunLockShare(ctx context.Context, benchName string, pes int) (*LockShare, error) {
	return defaultRunner.RunLockShare(ctx, benchName, pes)
}

// BusDES re-exports the discrete-event bus validation type.
type BusDES = experiments.BusDES

// RunBusDES replays real bus transactions through the discrete-event
// bus simulator and cross-checks the analytic M/M/1 model.
func (r *Runner) RunBusDES(ctx context.Context, benchName string, pes, cacheWords int, busWordsPerCycle float64) (*BusDES, error) {
	return experiments.RunBusDES(ctx, &r.r, benchName, pes, cacheWords, busWordsPerCycle)
}

// RunBusDES is Runner.RunBusDES on the default Runner.
func RunBusDES(ctx context.Context, benchName string, pes, cacheWords int, busWordsPerCycle float64) (*BusDES, error) {
	return defaultRunner.RunBusDES(ctx, benchName, pes, cacheWords, busWordsPerCycle)
}

// AssocSweep re-exports the associativity ablation result type.
type AssocSweep = experiments.AssocSweep

// RunAssocSweep compares the paper's fully associative cache model with
// set-associative caches of the same capacity (0 ways = fully
// associative).
func (r *Runner) RunAssocSweep(ctx context.Context, benchName string, pes, sizeWords int, ways []int) (*AssocSweep, error) {
	return experiments.RunAssocSweep(ctx, &r.r, benchName, pes, sizeWords, ways)
}

// RunAssocSweep is Runner.RunAssocSweep on the default Runner.
func RunAssocSweep(ctx context.Context, benchName string, pes, sizeWords int, ways []int) (*AssocSweep, error) {
	return defaultRunner.RunAssocSweep(ctx, benchName, pes, sizeWords, ways)
}
