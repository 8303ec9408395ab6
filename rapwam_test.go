package rapwam

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestQuickStart(t *testing.T) {
	prog := MustCompile(`
		fib(0, 0).
		fib(1, 1).
		fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,
			(fib(N1, F1) & fib(N2, F2)),
			F is F1 + F2.
	`, "fib(15, F)")
	if !prog.Parallel() {
		t.Error("program should be parallel")
	}
	res, err := prog.Run(RunConfig{PEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bindings["F"] != "610" {
		t.Errorf("F = %s", res.Bindings["F"])
	}
	if res.Stats.GoalsParallel == 0 {
		t.Error("no parallelism observed")
	}
}

// TestRunGivesMemoryBackOnEveryReturn: Program.Run unmaps the engine's
// address space whether the run succeeds, is cut short mid-flight (the
// cycle budget — this API's only way to stop a run) or dies of a
// machine fault (a heap too small for the program).
func TestRunGivesMemoryBackOnEveryReturn(t *testing.T) {
	qsort, _ := BenchmarkByName("qsort")
	prog := MustCompile(qsort.Source, qsort.Query)
	live := mem.LiveBytes()
	for _, c := range []struct {
		name    string
		cfg     RunConfig
		wantErr string
	}{
		{"success", RunConfig{PEs: 4}, ""},
		{"cut short", RunConfig{PEs: 4, MaxCycles: 500}, "exceeded 500 cycles"},
		{"machine fault", RunConfig{PEs: 4, HeapWords: 64}, "overflow"},
	} {
		_, err := prog.Run(c.cfg)
		if c.wantErr == "" && err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
		if got := mem.LiveBytes(); got != live {
			t.Fatalf("%s: run left %d bytes of engine memory mapped", c.name, got-live)
		}
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := Compile("p :-", "p"); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Compile("p.", "q"); err == nil {
		t.Error("undefined query goal not reported")
	}
}

func TestSequentialOption(t *testing.T) {
	prog, err := CompileWithOptions("p(X) :- q(X) & r(X). q(1). r(1).", "p(A)",
		CompileOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Parallel() {
		t.Error("sequential compile should not be parallel")
	}
	res, err := prog.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bindings["A"] != "1" {
		t.Errorf("A = %s", res.Bindings["A"])
	}
}

func TestTraceCaptureAndCacheSim(t *testing.T) {
	prog := MustCompile(`
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`, "app([1,2,3,4,5], [6,7,8], X)")
	res, err := prog.Run(RunConfig{CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace captured")
	}
	st, err := SimulateCache(res.Trace, CacheConfig{
		PEs: 1, SizeWords: 256, LineWords: 4, Protocol: Copyback, WriteAllocate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Refs != int64(res.Trace.Len()) {
		t.Errorf("cache saw %d refs, trace has %d", st.Refs, res.Trace.Len())
	}
	if st.TrafficRatio() <= 0 || st.TrafficRatio() > 2 {
		t.Errorf("traffic ratio = %v", st.TrafficRatio())
	}
}

func TestStreamingSinkMatchesCapturedTrace(t *testing.T) {
	// Streaming a run directly into a cache simulator (no trace buffer)
	// must match capturing the trace and replaying it afterwards.
	src := `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`
	cfg := CacheConfig{
		PEs: 1, SizeWords: 256, LineWords: 4, Protocol: Copyback, WriteAllocate: true,
	}
	live, err := NewCacheSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MustCompile(src, "app([1,2,3,4,5], [6,7,8], X)").
		Run(RunConfig{CaptureTrace: true, Sink: live})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace captured alongside the stream")
	}
	replayed, err := SimulateCache(res.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.Stats() != replayed {
		t.Errorf("streamed stats %+v != replayed stats %+v", live.Stats(), replayed)
	}
}

func TestTraceReplayAllMatchesSimulateCache(t *testing.T) {
	bm, ok := BenchmarkByName("deriv")
	if !ok {
		t.Fatal("deriv missing")
	}
	tr, err := TraceBenchmark(context.Background(), bm, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := replayBenchConfigs(2)
	all, err := tr.ReplayAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		one, err := SimulateCache(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if all[i] != one {
			t.Errorf("config %d: ReplayAll %+v != SimulateCache %+v", i, all[i], one)
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	prog := MustCompile("p(1).", "p(X)")
	res, err := prog.Run(RunConfig{CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteCompact(&buf, TraceMeta{Benchmark: "p", PEs: 1}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(slices.Concat(back.buf.Segments()...), slices.Concat(res.Trace.buf.Segments()...)) {
		t.Errorf("round trip: %d refs back of %d, or not the same", back.Len(), res.Trace.Len())
	}
}

func TestBenchmarkAccessors(t *testing.T) {
	if len(PaperBenchmarks()) != 4 {
		t.Error("want 4 paper benchmarks")
	}
	if len(LargeBenchmarks()) != 4 {
		t.Error("want 4 large benchmarks")
	}
	b, ok := BenchmarkByName("tak")
	if !ok {
		t.Fatal("tak missing")
	}
	res, err := RunBenchmark(context.Background(), b, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Error("tak failed")
	}
	tr, err := TraceBenchmark(context.Background(), b, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Error("empty benchmark trace")
	}
}

func TestTable1Exported(t *testing.T) {
	if !strings.Contains(Table1(), "parcall/counts") {
		t.Error("Table1 incomplete")
	}
}

func TestBusAnalyticExported(t *testing.T) {
	r, err := BusAnalytic(BusParams{PEs: 8, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Efficiency <= 0 || r.Efficiency > 1 {
		t.Errorf("efficiency = %v", r.Efficiency)
	}
	n, err := BusMaxPEs(BusParams{PEs: 1, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 4}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Errorf("MaxPEs = %d", n)
	}
}

func TestPaperWriteAllocateExported(t *testing.T) {
	if PaperWriteAllocate(WriteInBroadcast, 64) {
		t.Error("64-word caches are no-write-allocate")
	}
	if !PaperWriteAllocate(WriteInBroadcast, 1024) {
		t.Error("1024-word caches are write-allocate")
	}
}
