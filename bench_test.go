package rapwam

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper. Each regenerates its experiment end to end (emulation +
// trace-driven cache simulation) and reports the headline metric through
// b.ReportMetric, so `go test -bench . -benchmem` reproduces the whole
// evaluation section.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/storage/blob"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// BenchmarkTable1Classify exercises the Table 1 object classification on
// a live trace (the classification is a hot path of the tracer).
func BenchmarkTable1Classify(b *testing.B) {
	bm, _ := BenchmarkByName("tak")
	for i := 0; i < b.N; i++ {
		tr, err := TraceBenchmark(context.Background(), bm, 2, false)
		if err != nil {
			b.Fatal(err)
		}
		_ = tr.Len()
	}
	b.ReportMetric(0, "ns/op") // dominated by emulation; see refs metric
}

// BenchmarkFig2DerivOverheads regenerates Figure 2: deriv work as % of
// WAM work across processor counts.
func BenchmarkFig2DerivOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := RunFigure2(context.Background(), []int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		last := f.Points[len(f.Points)-1]
		b.ReportMetric(last.WorkPct, "work%WAM@16PE")
		b.ReportMetric(last.Speedup, "speedup@16PE")
	}
}

// BenchmarkTable2Stats regenerates Table 2: benchmark statistics at 8
// processors.
func BenchmarkTable2Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := RunTable2(context.Background(), 8)
		if err != nil {
			b.Fatal(err)
		}
		var raw, wam int64
		for _, r := range t2.Rows {
			raw += r.RefsRAPWAM
			wam += r.RefsWAM
		}
		b.ReportMetric(float64(raw)/float64(wam), "RAPWAM/WAM-refs")
	}
}

// BenchmarkTable3Fit regenerates Table 3: the locality fit of the small
// benchmarks against the large sequential suite.
func BenchmarkTable3Fit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, err := RunTable3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t3.Etr[0], "Etr@512w")
		b.ReportMetric(t3.MeanAbsZ[0], "mean|z|@512w")
	}
}

// BenchmarkFig4Traffic regenerates Figure 4: mean traffic ratio of the
// three coherency schemes across cache sizes and PE counts.
func BenchmarkFig4Traffic(b *testing.B) {
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	for i := 0; i < b.N; i++ {
		f, err := RunFigure4(context.Background(), []int{1, 2, 4, 8}, sizes)
		if err != nil {
			b.Fatal(err)
		}
		bc := f.Ratio(WriteInBroadcast, 8)
		b.ReportMetric(bc[2], "broadcast@8PE/256w")
		b.ReportMetric(bc[len(bc)-1], "broadcast@8PE/8192w")
	}
}

// BenchmarkMLIPSCalculation regenerates the §3.3 feasibility numbers.
func BenchmarkMLIPSCalculation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := RunMLIPS(context.Background(), 256, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.BusBandwidthMBs, "MB/s@2MLIPS")
		b.ReportMetric(m.CaptureRatio, "capture")
	}
}

// BenchmarkBusContention regenerates the §3.3 bus efficiency estimate.
func BenchmarkBusContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bs, err := RunBusStudy(context.Background(), 8, 256)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bs.Efficiency[len(bs.Efficiency)-1], "eff@fastbus")
	}
}

// BenchmarkEmulatorThroughput measures raw emulation speed (WAM
// instructions per second of host time) on the sequential qsort.
func BenchmarkEmulatorThroughput(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	var instrs int64
	for i := 0; i < b.N; i++ {
		res, err := RunBenchmark(context.Background(), bm, 1, true)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.TotalInstructions()
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "wam-instrs/s")
}

// BenchmarkCacheSimThroughput measures trace replay speed through the
// write-in broadcast cache.
func BenchmarkCacheSimThroughput(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var refs int64
	for i := 0; i < b.N; i++ {
		st, err := SimulateCache(tr, CacheConfig{
			PEs: 4, SizeWords: 1024, LineWords: 4,
			Protocol: WriteInBroadcast, WriteAllocate: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		refs += st.Refs
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}

// replayBenchConfigs is the configuration set for the replay-pipeline
// benchmarks: two protocols at three sizes (6 configs, > the 4 the
// pipeline acceptance floor asks for).
func replayBenchConfigs(pes int) []CacheConfig {
	var cfgs []CacheConfig
	for _, proto := range []Protocol{WriteInBroadcast, Hybrid} {
		for _, size := range []int{256, 1024, 4096} {
			cfgs = append(cfgs, CacheConfig{
				PEs: pes, SizeWords: size, LineWords: 4,
				Protocol:      proto,
				WriteAllocate: PaperWriteAllocate(proto, size),
			})
		}
	}
	return cfgs
}

// BenchmarkReplaySequential replays one trace through each cache
// configuration in turn — one full trace walk per configuration (the
// pre-pipeline formulation).
func BenchmarkReplaySequential(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := replayBenchConfigs(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := SimulateCache(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(tr.Len()*len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "simrefs/s")
}

// BenchmarkReplayFanOut replays the same trace through the same
// configurations with the streaming fan-out pipeline — a single trace
// walk feeding all simulators concurrently.
func BenchmarkReplayFanOut(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := replayBenchConfigs(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ReplayAll(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "simrefs/s")
}

// BenchmarkReplayFigure4Cell replays qsort at 8 PEs through what one
// Figure 4 cell asks of the simulator: 3 protocols × 8 sizes under the
// paper's allocation policy, 24 configurations that the planner serves
// from 2 multi-size structures, one per protocol with both allocation
// policies. structures is that count (cache.Simulators) and index-B
// their residency indexes' bytes at capacity after a replay.
func BenchmarkReplayFigure4Cell(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 8, false)
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []CacheConfig
	for _, proto := range []Protocol{WriteInBroadcast, Hybrid, WriteThrough} {
		for _, size := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
			cfgs = append(cfgs, CacheConfig{
				PEs: 8, SizeWords: size, LineWords: 4,
				Protocol:      proto,
				WriteAllocate: PaperWriteAllocate(proto, size),
			})
		}
	}
	var sims []trace.Sink
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// tr.ReplayAll, keeping the simulators for their index bytes.
		if _, err := cache.SimulateAllStream(cfgs, func(sinks []trace.Sink) error {
			sims = sinks
			tr.buf.ReplayAll(sinks...)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "simrefs/s")
	b.ReportMetric(float64(indexBytes(sims...)), "index-B")
	b.ReportMetric(float64(cache.Simulators(cfgs)), "structures")
}

// BenchmarkReplaySetAssocFanOut is replay-large's sa shape on qsort at
// 8 PEs: write-in broadcast at 1024 words with 1, 2, 4 and 8 ways, four
// Sims behind one fan-out, which finds each chunk's runs once for all
// of them (trace.RunSink).
func BenchmarkReplaySetAssocFanOut(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 8, false)
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []CacheConfig
	for _, ways := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, CacheConfig{PEs: 8, SizeWords: 1024, LineWords: 4, Protocol: WriteInBroadcast, WriteAllocate: true, Assoc: ways})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ReplayAll(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "simrefs/s")
}

// BenchmarkStreamReplayFanOut is replay-large's streamed shape on qsort
// at 8 PEs: a stored trace in an in-memory store, decoded chunk by
// chunk straight into one fan-out's ring, runs marked as it decodes,
// for replay-large's fully associative group at 1024 words (write-in
// broadcast, hybrid and write-through, which the planner serves with 2
// Sims). B/op and allocs/op count the store read, the decoder, the
// fan-out and the simulators, and stay flat in the trace's length: no
// batch is made per chunk.
func BenchmarkStreamReplayFanOut(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 8, false)
	if err != nil {
		b.Fatal(err)
	}
	store := tracestore.NewOn(blob.NewMem())
	k := TraceStoreKey("qsort", 8, false)
	if err := store.Put(k, func(sink trace.Sink) error { tr.Replay(sink); return nil }); err != nil {
		b.Fatal(err)
	}
	var cfgs []CacheConfig
	for _, proto := range []Protocol{WriteInBroadcast, Hybrid, WriteThrough} {
		cfgs = append(cfgs, CacheConfig{PEs: 8, SizeWords: 1024, LineWords: 4, Protocol: proto, WriteAllocate: PaperWriteAllocate(proto, 1024)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.SimulateAllStream(cfgs, func(sinks []trace.Sink) error {
			f := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
			_, err := store.Replay(k, f)
			f.Close()
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "simrefs/s")
}

// indexBytes sums the simulators' residency index bytes.
func indexBytes[S trace.Sink](sims ...S) int {
	n := 0
	for _, s := range sims {
		n += cache.IndexBytes(s)
	}
	return n
}

// BenchmarkReplaySteadyState measures the pure kernel: one warm
// simulator per configuration reused across iterations, so simulator
// construction is excluded and the -benchmem columns show the
// steady-state replay cost (0 allocs/op). fa runs the fully associative
// configurations; saN is replay-large's set-associative shape, write-in
// broadcast at 1024 words with N ways; wt, update and hyb run the
// write-through, write-through broadcast and hybrid write paths alone
// at 1024 words, and cb1 runs copyback on a one-PE sequential trace, so
// every protocol's write path has its own reading. index-B is the
// simulators' residency index bytes at capacity.
func BenchmarkReplaySteadyState(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fa", func(b *testing.B) { replaySteadyState(b, tr, replayBenchConfigs(4)) })
	for _, ways := range []int{1, 2, 4, 8} {
		cfg := CacheConfig{PEs: 4, SizeWords: 1024, LineWords: 4, Protocol: WriteInBroadcast, WriteAllocate: true, Assoc: ways}
		b.Run(fmt.Sprintf("sa%d", ways), func(b *testing.B) { replaySteadyState(b, tr, []CacheConfig{cfg}) })
	}
	for _, sub := range []struct {
		name  string
		proto Protocol
	}{{"wt", WriteThrough}, {"update", WriteThroughBroadcast}, {"hyb", Hybrid}} {
		cfg := CacheConfig{PEs: 4, SizeWords: 1024, LineWords: 4, Protocol: sub.proto, WriteAllocate: PaperWriteAllocate(sub.proto, 1024)}
		b.Run(sub.name, func(b *testing.B) { replaySteadyState(b, tr, []CacheConfig{cfg}) })
	}
	seq, err := TraceBenchmark(context.Background(), bm, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	cfg := CacheConfig{PEs: 1, SizeWords: 1024, LineWords: 4, Protocol: Copyback, WriteAllocate: true}
	b.Run("cb1", func(b *testing.B) { replaySteadyState(b, seq, []CacheConfig{cfg}) })
}

// replaySteadyState warms one simulator per configuration, then times
// replaying tr through each of them.
func replaySteadyState(b *testing.B, tr *Trace, cfgs []CacheConfig) {
	sims := make([]*CacheSim, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if sims[i], err = NewCacheSim(cfg); err != nil {
			b.Fatal(err)
		}
		tr.Replay(sims[i]) // warm: caches and directory reach steady state
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sim := range sims {
			tr.Replay(sim)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "simrefs/s")
	b.ReportMetric(float64(indexBytes(sims...)), "index-B")
}

// BenchmarkPerBenchmarkParallel runs each paper benchmark at 8 PEs
// (the paper's Table 2 configuration), reporting simulated speedup.
func BenchmarkPerBenchmarkParallel(b *testing.B) {
	for _, bm := range PaperBenchmarks() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq, err := RunBenchmark(context.Background(), bm, 1, true)
				if err != nil {
					b.Fatal(err)
				}
				par, err := RunBenchmark(context.Background(), bm, 8, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(seq.Stats.Cycles)/float64(par.Stats.Cycles), "speedup@8PE")
			}
		})
	}
}

// BenchmarkAblationRuntimeChecks compares deriv with and without
// run-time CGE groundness checks (the cost compile-time analysis
// removes; docs/ARCHITECTURE.md, "Ablations").
func BenchmarkAblationRuntimeChecks(b *testing.B) {
	unchecked, _ := BenchmarkByName("deriv")
	checked, _ := BenchmarkByName("deriv-checked")
	if checked.Name == "" {
		b.Skip("checked variant unavailable")
	}
	for i := 0; i < b.N; i++ {
		u, err := RunBenchmark(context.Background(), unchecked, 8, false)
		if err != nil {
			b.Fatal(err)
		}
		c, err := RunBenchmark(context.Background(), checked, 8, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(c.Refs.Total())/float64(u.Refs.Total()), "checked/unchecked-refs")
	}
}

// BenchmarkAblationIndexing quantifies first-argument indexing: deriv
// compiled normally vs the same program forced through try/retry/trust
// chains would need a compiler switch; instead we measure the
// choice-point traffic share, the quantity indexing minimizes.
func BenchmarkAblationIndexing(b *testing.B) {
	bm, _ := BenchmarkByName("deriv")
	for i := 0; i < b.N; i++ {
		res, err := RunBenchmark(context.Background(), bm, 1, true)
		if err != nil {
			b.Fatal(err)
		}
		byArea := res.Refs.ByArea()
		var ctl, total int64
		for a, n := range byArea {
			total += n
			if trace.Area(a) == trace.AreaControl {
				ctl = n
			}
		}
		b.ReportMetric(float64(ctl)/float64(total), "control-share")
	}
}

var sinkString string

// BenchmarkRenderReports measures the report formatting paths.
func BenchmarkRenderReports(b *testing.B) {
	t2, err := RunTable2(context.Background(), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString = t2.String() + Table1() + fmt.Sprint(i)
	}
}

// BenchmarkTraceEncode measures compact-codec encode throughput
// (refs/s) on a real parallel trace — the write-side cost of the
// persistent trace store.
func BenchmarkTraceEncode(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteCompact(&buf, TraceMeta{Benchmark: "qsort", PEs: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
	b.ReportMetric(float64(buf.Len())/float64(tr.Len()), "bytes/ref")
}

// BenchmarkTraceDecode measures compact-codec streaming decode
// throughput (refs/s) — the read-side cost every store-served replay
// pays before the cache kernels see a reference.
func BenchmarkTraceDecode(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	tr, err := TraceBenchmark(context.Background(), bm, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := tr.WriteCompact(&enc, TraceMeta{Benchmark: "qsort", PEs: 4}); err != nil {
		b.Fatal(err)
	}
	data := enc.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := trace.NewChunkReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n, err := cr.Replay(trace.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if n != int64(tr.Len()) {
			b.Fatalf("decoded %d refs, want %d", n, tr.Len())
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkTraceCapture measures capturing a trace in memory: one
// qsort@8 engine run into a trace.Buffer, as TraceBenchmark does
// without a store. It reports refs/s with B/op and allocs/op, which
// show what the Buffer's growth costs beside the engine's own.
func BenchmarkTraceCapture(b *testing.B) {
	bm, _ := BenchmarkByName("qsort")
	r := NewRunner(nil, 1, nil)
	b.ReportAllocs()
	refs := 0
	for i := 0; i < b.N; i++ {
		tr, err := r.TraceBenchmark(context.Background(), bm, 8, false)
		if err != nil {
			b.Fatal(err)
		}
		refs += tr.Len()
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}
