package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
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

// TestStorelessRunnerRunsEachCellOnce is the one-path acceptance
// check: a zero-value Runner taken through the full `-exp all` driver
// set emulates each of its 30 distinct cells exactly once (the
// stats-only drivers are served from sidecars like the trace
// consumers), and a second pass emulates nothing.
func TestStorelessRunnerRunsEachCellOnce(t *testing.T) {
	ctx := context.Background()
	r := new(bench.Runner)
	expAll := func() {
		t.Helper()
		steps := []func() error{
			func() error { _, err := RunFigure2(ctx, r, []int{1, 2, 4, 8, 12, 16}); return err },
			func() error { _, err := RunTable2(ctx, r, 8); return err },
			func() error { _, err := RunTable3(ctx, r); return err },
			func() error {
				_, err := RunFigure4(ctx, r, []int{1, 2, 4, 8}, []int{64, 128, 256, 512, 1024, 2048, 4096, 8192})
				return err
			},
			func() error { _, err := RunMLIPS(ctx, r, 256, 2); return err },
			func() error { _, err := RunBusStudy(ctx, r, 8, 256); return err },
			func() error { _, err := RunBusDES(ctx, r, "qsort", 8, 256, 4); return err },
			func() error { _, err := RunGranularitySweep(ctx, r, []int{0, 1, 2, 3, 4, 6}); return err },
			func() error { _, err := RunLineSizeSweep(ctx, r, "qsort", 4, 1024, []int{1, 2, 4, 8, 16}); return err },
			func() error { _, err := RunLockShare(ctx, r, "deriv", 8); return err },
			func() error { _, err := RunLockShare(ctx, r, "qsort", 8); return err },
			func() error { _, err := RunLockShare(ctx, r, "matrix", 8); return err },
			func() error { _, err := RunAssocSweep(ctx, r, "qsort", 4, 1024, []int{1, 2, 4, 8, 0}); return err },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	expAll()
	if n := r.EngineRuns(); n != 30 {
		t.Fatalf("store-less -exp all performed %d emulator runs, want 30 (one per distinct cell)", n)
	}
	expAll()
	if n := r.EngineRuns(); n != 30 {
		t.Fatalf("second pass emulated %d more cells, want 0", n-30)
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
