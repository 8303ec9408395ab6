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
// reference-dense workloads across the PE counts the store generates.
var engineBenchCells = []struct {
	bench string
	pes   int
}{
	{"deriv", 1},
	{"deriv", 4},
	{"deriv", 8},
	{"qsort", 1},
	{"qsort", 4},
	{"qsort", 8},
}

// compileCell compiles one benchmark outside the timed loop.
func compileCell(b *testing.B, name string) *isa.Code {
	b.Helper()
	bm, ok := ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	code, err := compile.Compile(bm.Source, bm.Query, compile.Options{})
	if err != nil {
		b.Fatalf("compile %s: %v", name, err)
	}
	return code
}

// runEngine executes one emulator run of the pre-compiled cell and
// accumulates (refs, inferences).
func runEngine(b *testing.B, code *isa.Code, pes int, sink trace.Sink, refs, inf *int64) {
	b.Helper()
	runEngineShards(b, code, pes, 1, sink, refs, inf)
}

// runEngineShards is runEngine under the sharded dispatcher.
func runEngineShards(b *testing.B, code *isa.Code, pes, shards int, sink trace.Sink, refs, inf *int64) {
	b.Helper()
	eng, err := core.New(code, core.Config{PEs: pes, Sink: sink, ExecShards: shards})
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
		b.Run(nameCell(cell.bench, cell.pes), func(b *testing.B) {
			code := compileCell(b, cell.bench)
			var refs, inf int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runEngine(b, code, cell.pes, trace.Discard, &refs, &inf)
			}
			reportEngineMetrics(b, refs, inf)
		})
	}
}

// BenchmarkEngineRunShards measures the sharded dispatcher
// (core.Config.ExecShards) on the multi-PE cells it targets: 1 shard
// is the serial dispatcher baseline, higher counts speculate
// independent PEs' cycles on host goroutines and merge deterministically
// (the trace is byte-identical, so this isolates wall-clock alone).
// On a single-core host the >1 counts measure the mode's overhead
// (snapshotting, footprint validation, merge); on multi-core hosts
// they measure its scaling.
func BenchmarkEngineRunShards(b *testing.B) {
	for _, bench := range []string{"deriv", "qsort"} {
		for _, shards := range []int{1, 2, 4} {
			bench, shards := bench, shards
			b.Run(nameCell(bench, 8)+"-s"+strconv.Itoa(shards), func(b *testing.B) {
				code := compileCell(b, bench)
				var refs, inf int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runEngineShards(b, code, 8, shards, trace.Discard, &refs, &inf)
				}
				reportEngineMetrics(b, refs, inf)
			})
		}
	}
}

// BenchmarkTraceGeneration measures the cold trace-store path: emulate
// and stream the reference trace through the compact codec (the exact
// work a store miss pays, minus the file write).
func BenchmarkTraceGeneration(b *testing.B) {
	for _, cell := range engineBenchCells {
		cell := cell
		b.Run(nameCell(cell.bench, cell.pes), func(b *testing.B) {
			code := compileCell(b, cell.bench)
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

// BenchmarkTraceGenerationWorkers measures pipelined generation
// (emulate on one goroutine, chunk encoding on workers) through
// trace.ParallelChunkWriter, which no product path uses. workers=1 is
// pure emulate/encode overlap; higher counts add parallel chunk
// encoders. Output bytes are identical at every worker count, so this
// isolates the wall-clock effect alone.
func BenchmarkTraceGenerationWorkers(b *testing.B) {
	cells := []struct {
		bench string
		pes   int
	}{
		{"deriv", 8},
		{"qsort", 8},
	}
	for _, cell := range cells {
		for _, workers := range []int{1, 2, 4} {
			cell, workers := cell, workers
			b.Run(nameCell(cell.bench, cell.pes)+"-w"+strconv.Itoa(workers), func(b *testing.B) {
				code := compileCell(b, cell.bench)
				var refs, inf int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cw, err := trace.NewParallelChunkWriter(io.Discard, trace.Meta{
						Benchmark:       cell.bench,
						PEs:             cell.pes,
						EmulatorVersion: core.EmulatorVersion,
					}, workers)
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
}

// nameCell formats a sub-benchmark name ("qsort-4pe").
func nameCell(bench string, pes int) string {
	return bench + "-" + strconv.Itoa(pes) + "pe"
}
