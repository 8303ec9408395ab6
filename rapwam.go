// Package rapwam is a Go reproduction of the system studied in
// "Memory Performance of AND-parallel Prolog on Shared-Memory
// Architectures" (Hermenegildo & Tick, ICPP 1988): the RAP-WAM
// AND-parallel Prolog abstract machine, its memory-reference
// instrumentation, and the trace-driven multiprocessor cache simulator
// used to compare coherency protocols.
//
// The package compiles &-Prolog programs (Prolog plus Conditional Graph
// Expressions such as "(ground(X) | p(X) & q(X))") to RAP-WAM code,
// executes them on a configurable number of abstract machines sharing
// one flat memory, captures word-level memory traces classified per the
// paper's Table 1, and replays those traces through coherent cache
// models (conventional write-through, write-in broadcast, write-through
// broadcast, the paper's hybrid scheme, and plain copyback).
//
// Quick start:
//
//	prog, err := rapwam.Compile(`
//	    fib(0, 0).
//	    fib(1, 1).
//	    fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,
//	        (fib(N1, F1) & fib(N2, F2)),
//	        F is F1 + F2.
//	`, "fib(15, F)")
//	if err != nil { ... }
//	res, err := prog.Run(rapwam.RunConfig{PEs: 8})
//	fmt.Println(res.Bindings["F"], res.Stats.Cycles)
//
// The experiment drivers that regenerate every table and figure of the
// paper live behind the Figure2, Table2, Table3, Figure4, MLIPS and
// BusStudy functions; `go test -bench .` runs them all.
//
// # Persistent traces
//
// Traces are pure functions of (benchmark, PEs, sequential, emulator
// version), so they persist: a Runner built over a TraceStore
// (NewRunner; SetTraceDir for the default Runner) consults that
// content-addressed store of compact binary traces
// (docs/TRACE_FORMAT.md) before running the emulator, streaming
// generation to disk and replay from disk so even larger-than-RAM
// traces flow through the full simulator grid. The store keeps each
// cell's cache-simulation statistics beside its trace as well, one per
// configuration, so with a warm store a complete experiment sweep
// performs zero emulator runs (EngineRuns is the observable) and
// replays a trace only for configurations not asked of it before (the
// store's Stats count both). GenerateTraces warms cells in bulk,
// concurrently; cmd/tracegen is its CLI.
package rapwam

import (
	"context"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// CompileOptions control translation.
type CompileOptions struct {
	// Sequential compiles CGEs to ordinary conjunctions, producing the
	// plain-WAM baseline the paper measures against.
	Sequential bool
}

// Program is a compiled &-Prolog program plus query.
type Program struct {
	code *isa.Code
}

// Compile translates a program and a query (the goal text, without
// "?-") into RAP-WAM code.
func Compile(program, query string) (*Program, error) {
	return CompileWithOptions(program, query, CompileOptions{})
}

// CompileWithOptions is Compile with explicit options.
func CompileWithOptions(program, query string, opt CompileOptions) (*Program, error) {
	code, err := compile.Compile(program, query, compile.Options{Sequential: opt.Sequential})
	if err != nil {
		return nil, err
	}
	return &Program{code: code}, nil
}

// MustCompile is Compile that panics on error (for examples and tests).
func MustCompile(program, query string) *Program {
	p, err := Compile(program, query)
	if err != nil {
		panic(err)
	}
	return p
}

// Listing returns the compiled instruction listing (for inspection).
func (p *Program) Listing() string { return p.code.Listing() }

// Parallel reports whether the program contains CGEs.
func (p *Program) Parallel() bool { return p.code.Parallel }

// MachineStats re-exports the engine's instrumentation summary.
type MachineStats = core.Stats

// RefCounter re-exports the by-object-type reference counter.
type RefCounter = trace.Counter

// Area re-exports the RAP-WAM storage-area identifier; it indexes
// RefCounter.ByArea's result and renders its lowercase name via
// String.
type Area = trace.Area

// NumAreas re-exports the number of distinct storage areas (the length
// of RefCounter.ByArea's result, AreaNone included at index 0).
const NumAreas = trace.NumAreas

// MaxPEs re-exports the largest PE count the reference-level tooling
// supports; engine runs, trace cells and cache simulations all reject
// larger values, and CLIs validate their -pes/-maxpes flags against it
// at the flag boundary.
const MaxPEs = trace.MaxPEs

// Ref re-exports a single memory reference (one word read or written
// by one PE, classified per the paper's Table 1).
type Ref = trace.Ref

// Sink re-exports the trace consumer interface. A Sink receives every
// memory reference in emission order, one call at a time, all before
// the run returns; the engine runs on while the sink takes a batch, so
// most calls come from goroutines other than the caller's. Cache
// simulators (NewCacheSim), trace buffers and file writers all
// implement it. See internal/trace for the full stream contract.
type Sink = trace.Sink

// RunConfig parameterizes an execution.
type RunConfig struct {
	// PEs is the number of processing elements (workers). Default 1.
	PEs int
	// CaptureTrace records the full memory-reference trace in
	// Result.Trace.
	CaptureTrace bool
	// Sink, when non-nil, receives every memory reference as it is
	// generated — a streaming alternative to CaptureTrace that never
	// buffers the trace (attach a cache simulator from NewCacheSim or
	// any fan-out of sinks). Sink and
	// CaptureTrace compose: with both set the trace is buffered and
	// streamed.
	Sink Sink
	// MaxCycles bounds the simulation (0 = a large default).
	MaxCycles int64
	// HeapWords overrides the per-worker heap size (0 = default);
	// other areas scale with the defaults in internal/mem.
	HeapWords int
}

// Result is the outcome of running a Program.
type Result struct {
	// Success reports whether the query succeeded.
	Success bool
	// Bindings maps query variable names to rendered terms.
	Bindings map[string]string
	// Output holds everything written by write/1 and nl/0.
	Output string
	// Stats is the machine instrumentation (cycles, per-PE work,
	// parallelism counters, storage high-water marks).
	Stats MachineStats
	// Refs counts references by Table 1 object type.
	Refs *RefCounter
	// Trace is the full reference trace when CaptureTrace was set.
	Trace *Trace
}

// Run executes the program's query to its first solution.
func (p *Program) Run(cfg RunConfig) (*Result, error) {
	pes := cfg.PEs
	if pes <= 0 {
		pes = 1
	}
	layout := mem.DefaultLayout(pes)
	if cfg.HeapWords > 0 {
		layout.Heap = cfg.HeapWords
	}
	var buf *trace.Buffer
	var sink trace.Sink
	if cfg.CaptureTrace {
		buf = new(trace.Buffer)
		sink = buf
	}
	if cfg.Sink != nil {
		if sink != nil {
			sink = trace.Tee{sink, cfg.Sink}
		} else {
			sink = cfg.Sink
		}
	}
	eng, err := core.New(p.code, core.Config{
		PEs:       pes,
		Layout:    layout,
		Sink:      sink,
		MaxCycles: cfg.MaxCycles,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close() // the result is self-contained; unmap on error returns too
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := newResult(res)
	if buf != nil {
		out.Trace = &Trace{buf: buf}
	}
	return out, nil
}

// newResult maps the engine's result onto the public type (Trace, when
// captured, is attached by the caller).
func newResult(res *core.Result) *Result {
	return &Result{
		Success:  res.Success,
		Bindings: res.Bindings,
		Output:   res.Output,
		Stats:    res.Stats,
		Refs:     res.Refs,
	}
}

// Benchmark re-exports the paper's benchmark workloads.
type Benchmark = bench.Benchmark

// PaperBenchmarks returns deriv, tak, qsort and matrix — the paper's
// Table 2 suite, with calibrated inputs.
func PaperBenchmarks() []Benchmark { return bench.Paper() }

// LargeBenchmarks returns the sequential locality-reference suite
// (nrev, queens, primes, zebra) used by the Table 3 fit study.
func LargeBenchmarks() []Benchmark { return bench.Large() }

// BenchmarkByName looks a benchmark up by name: every fixed name in
// BenchmarkNames plus the parameterized variants ("deriv-d<N>",
// "deriv-<nodes>", "qsort-<len>", "matrix-<n>", "nrev-<len>",
// "queens-<n>", "primes-<limit>").
func BenchmarkByName(name string) (Benchmark, bool) { return bench.ByName(name) }

// BenchmarkNames returns the name of every fixed benchmark (the paper
// suite, the large sequential suite and deriv-checked); the
// parameterized variants documented on BenchmarkByName resolve in
// addition to these.
func BenchmarkNames() []string { return bench.Names() }

// EmulatorVersion identifies the trace-relevant behaviour of the
// engine + compiler + benchmark stack. It participates in trace-store
// keys: stored traces from other versions are ignored rather than
// silently replayed.
func EmulatorVersion() string { return core.EmulatorVersion }

// RunBenchmark executes a benchmark with the given parallelism,
// validating its answer. Cancelling ctx aborts the emulator mid-run
// and returns ctx.Err().
func (r *Runner) RunBenchmark(ctx context.Context, b Benchmark, pes int, sequential bool) (*Result, error) {
	return r.TraceBenchmarkTo(ctx, b, pes, sequential, nil)
}

// RunBenchmark is Runner.RunBenchmark on the default Runner.
func RunBenchmark(ctx context.Context, b Benchmark, pes int, sequential bool) (*Result, error) {
	return defaultRunner.RunBenchmark(ctx, b, pes, sequential)
}

// TraceBenchmark returns a benchmark's memory trace: decoded from the
// Runner's trace store when it has one (generating and storing the cell
// on first need), otherwise captured from one emulator run.
func (r *Runner) TraceBenchmark(ctx context.Context, b Benchmark, pes int, sequential bool) (*Trace, error) {
	buf, err := r.r.Trace(ctx, b, pes, sequential)
	if err != nil {
		return nil, err
	}
	return &Trace{buf: buf}, nil
}

// TraceBenchmark is Runner.TraceBenchmark on the default Runner.
func TraceBenchmark(ctx context.Context, b Benchmark, pes int, sequential bool) (*Trace, error) {
	return defaultRunner.TraceBenchmark(ctx, b, pes, sequential)
}

// TraceBenchmarkTo streams a benchmark's memory trace into sink as it
// is generated, without buffering it — the streaming counterpart of
// TraceBenchmark for runs whose traces should not be materialized
// (e.g. the engine feeding cache simulators directly).
func (r *Runner) TraceBenchmarkTo(ctx context.Context, b Benchmark, pes int, sequential bool, sink Sink) (*Result, error) {
	res, err := r.r.Run(ctx, b, bench.RunConfig{PEs: pes, Sequential: sequential, Sink: sink})
	if err != nil {
		return nil, err
	}
	return newResult(res), nil
}

// TraceBenchmarkTo is Runner.TraceBenchmarkTo on the default Runner.
func TraceBenchmarkTo(ctx context.Context, b Benchmark, pes int, sequential bool, sink Sink) (*Result, error) {
	return defaultRunner.TraceBenchmarkTo(ctx, b, pes, sequential, sink)
}
