package bench

// Emulator benchmarks: how fast cold trace generation runs, in
// references/second and MLIPS (million logical inferences per second,
// the paper's speed unit). BenchmarkEngineRun measures the bare
// emulator (references discarded after counting); BenchmarkTraceGeneration
// measures the full cold-generation path the trace store pays on a
// miss: emulate + compact-codec encode. Compilation happens once per
// cell outside the timed loop (tracegen compiles once per cell too).

import (
	"io"
	"strconv"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

// engineBenchCells is the benchmarked grid: the paper's two most
// reference-dense workloads across the PE counts the store generates,
// matrix at 8 PEs, where most PEs wait while one runs with goals on its
// own stack (the shape runner quanta elide), and two sequential WAM
// baselines (seq: CGEs compiled as plain conjunctions), the runs every
// traffic ratio and speedup is measured against.
var engineBenchCells = []struct {
	bench string
	pes   int
	seq   bool
}{
	{"deriv", 1, false},
	{"deriv", 4, false},
	{"deriv", 8, false},
	{"qsort", 1, false},
	{"qsort", 4, false},
	{"qsort", 8, false},
	{"matrix", 8, false},
	{"qsort", 1, true},
	{"primes", 1, true},
}

// compileCell compiles one benchmark outside the timed loop, for the
// parallel machine or (seq) as the sequential WAM baseline.
func compileCell(b *testing.B, name string, seq bool) *isa.Code {
	b.Helper()
	bm, ok := ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	code, err := compile.Compile(bm.Source, bm.Query, compile.Options{Sequential: seq})
	if err != nil {
		b.Fatalf("compile %s: %v", name, err)
	}
	return code
}

// runEngine executes one emulator run of the pre-compiled cell and
// accumulates (refs, inferences).
func runEngine(b *testing.B, code *isa.Code, pes int, sink trace.Sink, refs, inf *int64) {
	b.Helper()
	eng, err := core.New(code, core.Config{PEs: pes, Sink: sink})
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		b.Fatal(err)
	}
	eng.Close()
	if !res.Success {
		b.Fatal("query failed")
	}
	*refs += res.Refs.Total()
	*inf += res.Stats.Inferences
}

// reportEngineMetrics converts accumulated counts into the benchmark's
// derived metrics.
func reportEngineMetrics(b *testing.B, refs, inferences int64) {
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(refs)/sec, "refs/s")
		b.ReportMetric(float64(inferences)/sec/1e6, "MLIPS")
	}
}

// BenchmarkEngineRun measures the bare emulator: every reference is
// counted (the always-on Counter) but discarded, so this is the upper
// bound of trace generation speed.
func BenchmarkEngineRun(b *testing.B) {
	for _, cell := range engineBenchCells {
		cell := cell
		b.Run(cellName(cell.bench, cell.pes, cell.seq), func(b *testing.B) {
			code := compileCell(b, cell.bench, cell.seq)
			var refs, inf int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runEngine(b, code, cell.pes, trace.Discard, &refs, &inf)
			}
			reportEngineMetrics(b, refs, inf)
		})
	}
}

// BenchmarkTraceGeneration measures the cold trace-store path: emulate
// and stream the reference trace through the compact codec (the exact
// work a store miss pays, minus the file write).
func BenchmarkTraceGeneration(b *testing.B) {
	for _, cell := range engineBenchCells {
		cell := cell
		b.Run(cellName(cell.bench, cell.pes, cell.seq), func(b *testing.B) {
			code := compileCell(b, cell.bench, cell.seq)
			var refs, inf int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cw, err := trace.NewChunkWriter(io.Discard, trace.Meta{
					Benchmark:       cell.bench,
					PEs:             cell.pes,
					EmulatorVersion: core.EmulatorVersion,
				})
				if err != nil {
					b.Fatal(err)
				}
				runEngine(b, code, cell.pes, cw, &refs, &inf)
				if err := cw.Close(); err != nil {
					b.Fatal(err)
				}
			}
			reportEngineMetrics(b, refs, inf)
		})
	}
}

// cellName formats a sub-benchmark name ("qsort-4pe", "qsort-1pe-seq").
func cellName(bench string, pes int, seq bool) string {
	name := bench + "-" + strconv.Itoa(pes) + "pe"
	if seq {
		name += "-seq"
	}
	return name
}
