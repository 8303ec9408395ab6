package experiments

import (
	"context"
	"errors"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// TestFanOutReplayBitIdenticalToSequential is the pipeline determinism
// guarantee: simulating many cache configurations concurrently in one
// trace pass must produce exactly the statistics of replaying the trace
// once per configuration, for every protocol, on more than one
// benchmark.
func TestFanOutReplayBitIdenticalToSequential(t *testing.T) {
	cases := []struct {
		bench     string
		pes       int
		protocols []cache.Protocol
	}{
		// Sequential single-PE trace: every protocol, including
		// copyback (which is only coherent at 1 PE).
		{"deriv", 1, cache.Protocols()},
		// Parallel 4-PE trace: the four coherent protocols.
		{"qsort", 4, []cache.Protocol{
			cache.WriteThrough, cache.WriteInBroadcast,
			cache.WriteThroughBroadcast, cache.Hybrid,
		}},
	}
	for _, tc := range cases {
		b, _ := benchByName(t, tc.bench)
		buf := cellBuffer(t, shared, b, tc.pes, tc.pes == 1)
		var cfgs []cache.Config
		for _, proto := range tc.protocols {
			for _, size := range []int{128, 1024} {
				cfgs = append(cfgs, cache.Config{
					PEs: tc.pes, SizeWords: size, LineWords: 4,
					Protocol:      proto,
					WriteAllocate: cache.PaperWriteAllocate(proto, size),
				})
			}
		}
		concurrent, err := cache.SimulateAll(buf, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			sim := cache.New(cfg)
			buf.Replay(sim)
			if sequential := sim.Stats(); concurrent[i] != sequential {
				t.Errorf("%s @ %d PEs, %v/%dw: concurrent %+v != sequential %+v",
					tc.bench, tc.pes, cfg.Protocol, cfg.SizeWords,
					concurrent[i], sequential)
			}
		}
	}
}

func TestRunGridRunsAllCellsBounded(t *testing.T) {
	var inFlight, peak, done atomic.Int64
	err := runGrid(context.Background(), &bench.Runner{Par: 3}, 50, func(i int) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		done.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != 50 {
		t.Fatalf("ran %d cells, want 50", done.Load())
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds worker bound 3", p)
	}
}

func TestRunGridPropagatesError(t *testing.T) {
	want := errors.New("cell failed")
	var ran atomic.Int64
	err := runGrid(context.Background(), new(bench.Runner), 10, func(i int) error {
		ran.Add(1)
		if i == 4 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	// At least the cells up to the failing one ran; later cells may be
	// skipped once the error is recorded.
	if ran.Load() < 5 {
		t.Fatalf("ran %d cells, want >= 5", ran.Load())
	}
}

// panicSink is a replay kernel with a bug: it panics on its first batch.
type panicSink struct{}

func (panicSink) Add(trace.Ref)        {}
func (panicSink) AddBatch([]trace.Ref) { panic("kernel bug") }

// TestRunGridCellPanicIsItsError: a cell whose fan-out consumer panics
// fails the grid with the panic and the consumer's stack as its error,
// and every other cell runs to the end (all have started before it
// panics).
func TestRunGridCellPanicIsItsError(t *testing.T) {
	const cells = 8
	var started sync.WaitGroup
	started.Add(cells)
	var ran atomic.Int64
	buf := &trace.Buffer{}
	buf.AddBatch(make([]trace.Ref, 20_000))
	err := runGrid(context.Background(), &bench.Runner{Par: cells}, cells, func(i int) error {
		started.Done()
		started.Wait()
		if i == 3 {
			buf.ReplayAll(panicSink{}, trace.Discard)
		}
		ran.Add(1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kernel bug") || !strings.Contains(err.Error(), "panicSink") {
		t.Fatalf("err = %v, want the consumer's panic and stack", err)
	}
	if ran.Load() != cells-1 {
		t.Errorf("%d cells ran to the end, want %d", ran.Load(), cells-1)
	}
}

// TestStorelessCellMemoizes pins the memo behaviour of a
// Runner without a Store: its private in-memory store holds each cell
// after one engine run, distinct cells are distinct, and DropTraces
// makes the next use re-emulate.
func TestStorelessCellMemoizes(t *testing.T) {
	b, _ := benchByName(t, "deriv")
	r := new(bench.Runner)
	ensure := func(pes int, sequential bool, wantRuns int64) {
		t.Helper()
		if _, err := r.EnsureStored(context.Background(), b, pes, sequential); err != nil {
			t.Fatal(err)
		}
		if n := r.EngineRuns(); n != wantRuns {
			t.Fatalf("%d engine runs, want %d", n, wantRuns)
		}
	}
	ensure(1, true, 1)
	ensure(1, true, 1) // same (benchmark, PEs, sequential) key: served from the store
	ensure(2, false, 2)
	first := cellBuffer(t, r, b, 1, true)
	if n := r.EngineRuns(); n != 2 {
		t.Fatalf("replaying a stored cell ran the engine (%d runs)", n)
	}
	r.DropTraces()
	ensure(1, true, 3)
	if fresh := cellBuffer(t, r, b, 1, true); fresh.Len() != first.Len() {
		t.Errorf("re-traced length %d != original %d (engine not deterministic?)", fresh.Len(), first.Len())
	}
}

// expAll takes r through the registry at default parameters — what
// `experiments -exp all` runs — and returns what the CLI prints.
func expAll(t *testing.T, r *bench.Runner) string {
	t.Helper()
	var out strings.Builder
	for _, e := range Registry() {
		_, run, err := e.Prepare(url.Values{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := run(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(v.String() + "\n")
	}
	return out.String()
}

// The `-exp all` driver set calls simulateAll 33 times for 416
// configurations in all, 10 of which an earlier driver already
// computed: 8 whole calls (one configuration each: MLIPS and the bus
// study, over the four paper benchmarks at 8 PEs, ask for Figure 4's
// 256-word write-in broadcast point) and one configuration each of the
// line-size and associativity sweeps (their 4-word-line and fully
// associative points are Figure 4's qsort @ 4 PEs, 1024 words). With
// RunBusDES's one DES record that is 417 stored results.
const (
	expAllConfigs       = 416
	expAllResults       = expAllConfigs + 1
	expAllRepeatConfigs = 10
	expAllRepeatCalls   = 8
)

// storeStats returns the counters of the store r's cells live in — the
// private in-memory one for a Runner without a Store — by way of a
// cell that is already stored there.
func storeStats(t *testing.T, r *bench.Runner) tracestore.Stats {
	t.Helper()
	b, _ := benchByName(t, "deriv")
	var st tracestore.Stats
	err := r.UseCell(context.Background(), b, 1, true, func(s *tracestore.Store, _ tracestore.Key) error {
		st = s.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStorelessRunnerRunsEachCellOnce is the one-path acceptance
// check: a zero-value Runner taken through the full `-exp all` driver
// set emulates each of its 30 distinct cells exactly once (the
// stats-only drivers are served from sidecars like the trace
// consumers) and simulates each distinct configuration of a cell once
// (the drivers that come back to a cell find its results stored); a
// second pass emulates and simulates nothing, and prints the same;
// after DropTraces everything is computed again.
func TestStorelessRunnerRunsEachCellOnce(t *testing.T) {
	r := new(bench.Runner)
	first := expAll(t, r)
	if n := r.EngineRuns(); n != 30 {
		t.Fatalf("store-less -exp all performed %d emulator runs, want 30 (one per distinct cell)", n)
	}
	st := storeStats(t, r)
	if st.ResultHits != expAllRepeatConfigs || st.ResultMisses != expAllResults-expAllRepeatConfigs {
		t.Fatalf("first pass: %d results from stored results, %d computed; want %d and %d",
			st.ResultHits, st.ResultMisses, expAllRepeatConfigs, expAllResults-expAllRepeatConfigs)
	}
	second := expAll(t, r)
	if n := r.EngineRuns(); n != 30 {
		t.Fatalf("second pass emulated %d more cells, want 0", n-30)
	}
	if second != first {
		t.Error("second pass rendered different output")
	}
	after := storeStats(t, r)
	if hits, misses := after.ResultHits-st.ResultHits, after.ResultMisses-st.ResultMisses; hits != expAllResults || misses != 0 {
		t.Fatalf("second pass: %d results from stored results, %d computed; want %d and 0", hits, misses, expAllResults)
	}

	r.DropTraces()
	if _, err := RunLineSizeSweep(context.Background(), r, "qsort", 4, 1024, []int{1, 2, 4, 8, 16}); err != nil {
		t.Fatal(err)
	}
	if n := r.EngineRuns(); n != 31 {
		t.Fatalf("%d emulator runs after DropTraces and one cell, want 31", n)
	}
	// The counters are those of the fresh private store: deriv@1 (the
	// storeStats probe) is generated into it too, after the reading.
	if st := storeStats(t, r); st.ResultHits != 0 || st.ResultMisses != 5 {
		t.Fatalf("after DropTraces: %d configs from stored results, %d simulated; want 0 and 5", st.ResultHits, st.ResultMisses)
	}
}

// TestGridParallelismInvariance re-runs a full driver at parallelism 1
// and N and requires identical output — the grid must never change the
// numbers, only the wall clock.
func TestGridParallelismInvariance(t *testing.T) {
	sizes := []int{128, 512}
	seq, err := RunFigure4(context.Background(), &bench.Runner{Par: 1}, []int{1, 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFigure4(context.Background(), &bench.Runner{Par: 8}, []int{1, 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel grid changed results:\n--- par=1:\n%s\n--- par=8:\n%s", seq, par)
	}
	for i := range seq.Series {
		for j := range seq.Series[i].Ratio {
			if seq.Series[i].Ratio[j] != par.Series[i].Ratio[j] {
				t.Errorf("series %d ratio %d: %v != %v",
					i, j, seq.Series[i].Ratio[j], par.Series[i].Ratio[j])
			}
		}
	}
}

func TestSimulateAllRejectsBadConfig(t *testing.T) {
	b, _ := benchByName(t, "deriv")
	_, err := simulateAll(context.Background(), shared, b, 1, true, []cache.Config{
		{PEs: 0, SizeWords: 128, LineWords: 4},
	})
	if err == nil {
		t.Fatal("invalid config not rejected")
	}
}

func BenchmarkGridFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure4(context.Background(), new(bench.Runner), []int{1, 4}, []int{64, 256, 1024}); err != nil {
			b.Fatal(err)
		}
	}
}
