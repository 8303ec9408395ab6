package experiments

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// testConfigs is a small protocol × size grid.
func testConfigs(pes int) []cache.Config {
	var cfgs []cache.Config
	for _, proto := range []cache.Protocol{cache.WriteInBroadcast, cache.Hybrid, cache.WriteThrough} {
		for _, size := range []int{128, 1024} {
			cfgs = append(cfgs, cache.Config{
				PEs: pes, SizeWords: size, LineWords: 4,
				Protocol:      proto,
				WriteAllocate: cache.PaperWriteAllocate(proto, size),
			})
		}
	}
	return cfgs
}

// TestStoreStreamedReplayParity checks the acceptance criterion that
// streamed replay from disk produces bit-identical statistics —
// aggregate and per-PE — to in-memory replay, across protocols, for a
// parallel and a sequential workload.
func TestStoreStreamedReplayParity(t *testing.T) {
	cells := []struct {
		name string
		pes  int
		seq  bool
	}{
		{"qsort", 4, false},
		{"deriv", 1, true},
	}
	for _, cell := range cells {
		b, ok := bench.ByName(cell.name)
		if !ok {
			t.Fatalf("unknown benchmark %q", cell.name)
		}
		cfgs := testConfigs(cell.pes)

		// In-memory reference: buffer the trace, replay per config.
		buf, err := new(bench.Runner).Trace(context.Background(), b, cell.pes, cell.seq)
		if err != nil {
			t.Fatal(err)
		}
		wantSims := make([]*cache.Sim, len(cfgs))
		for i, cfg := range cfgs {
			wantSims[i] = cache.New(cfg)
			buf.Replay(wantSims[i])
		}

		// Store path: generate into the store, stream from disk through
		// the fan-out into all configs at once.
		gotSims := make([]*cache.Sim, len(cfgs))
		sinks := make([]trace.Sink, len(cfgs))
		for i, cfg := range cfgs {
			gotSims[i] = cache.New(cfg)
			sinks[i] = gotSims[i]
		}
		err = storeRunner(t).UseCell(context.Background(), b, cell.pes, cell.seq, func(s *tracestore.Store, k tracestore.Key) error {
			return replayCell(s, k, sinks...)
		})
		if err != nil {
			t.Fatal(err)
		}

		for i := range cfgs {
			if got, want := gotSims[i].Stats(), wantSims[i].Stats(); got != want {
				t.Errorf("%s@%d cfg %d: streamed stats %+v != in-memory %+v", cell.name, cell.pes, i, got, want)
			}
			if got, want := gotSims[i].PerPEBusWords(), wantSims[i].PerPEBusWords(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d cfg %d: per-PE bus words %v != %v", cell.name, cell.pes, i, got, want)
			}
			if got, want := gotSims[i].PerPERefs(), wantSims[i].PerPERefs(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d cfg %d: per-PE refs %v != %v", cell.name, cell.pes, i, got, want)
			}
		}
	}
}

// TestWarmStoreRunsNoEmulation is the acceptance criterion for the
// store: once warm, a full mix of experiment drivers — trace-driven
// sweeps, stats-only drivers, counter-based and OnBus-based ablations —
// performs zero emulator runs, and every result is identical to the
// cold pass that generated the store.
func TestWarmStoreRunsNoEmulation(t *testing.T) {
	type results struct {
		fig2 *Figure2
		t2   *Table2
		fig4 *Figure4
		line *LineSizeSweep
		lock *LockShare
		des  *BusDES
	}
	runAll := func(r *bench.Runner) (results, error) {
		var res results
		var err error
		if res.fig2, err = RunFigure2(context.Background(), r, []int{1, 2}); err != nil {
			return res, err
		}
		if res.t2, err = RunTable2(context.Background(), r, 2); err != nil {
			return res, err
		}
		if res.fig4, err = RunFigure4(context.Background(), r, []int{2}, []int{128, 1024}); err != nil {
			return res, err
		}
		if res.line, err = RunLineSizeSweep(context.Background(), r, "qsort", 2, 512, []int{2, 8}); err != nil {
			return res, err
		}
		if res.lock, err = RunLockShare(context.Background(), r, "qsort", 2); err != nil {
			return res, err
		}
		res.des, err = RunBusDES(context.Background(), r, "qsort", 2, 256, 4)
		return res, err
	}

	coldRunner := storeRunner(t)
	cold, err := runAll(coldRunner)
	if err != nil {
		t.Fatal(err)
	}
	if n := coldRunner.EngineRuns(); n == 0 {
		t.Fatal("cold pass reported zero engine runs")
	}

	// A second Runner over the same store: nothing carries over in
	// memory, so zero runs is the store's doing.
	warmRunner := &bench.Runner{Store: coldRunner.Store}
	warm, err := runAll(warmRunner)
	if err != nil {
		t.Fatal(err)
	}
	if n := warmRunner.EngineRuns(); n != 0 {
		t.Fatalf("warm store still performed %d emulator runs", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm results differ from cold results")
	}
}

// TestStoreVsMemoryDriverParity runs the same drivers with and without
// a store and requires identical outputs: the persistence layer must be
// invisible in the numbers.
func TestStoreVsMemoryDriverParity(t *testing.T) {
	run := func(r *bench.Runner) (*Figure4, *Table2, *LockShare) {
		f4, err := RunFigure4(context.Background(), r, []int{2}, []int{256})
		if err != nil {
			t.Fatal(err)
		}
		t2, err := RunTable2(context.Background(), r, 2)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := RunLockShare(context.Background(), r, "matrix", 2)
		if err != nil {
			t.Fatal(err)
		}
		return f4, t2, ls
	}

	memF4, memT2, memLS := run(new(bench.Runner))
	stoF4, stoT2, stoLS := run(storeRunner(t))

	if !reflect.DeepEqual(memF4, stoF4) {
		t.Errorf("Figure4 differs: mem %+v store %+v", memF4, stoF4)
	}
	if !reflect.DeepEqual(memT2, stoT2) {
		t.Errorf("Table2 differs: mem %+v store %+v", memT2, stoT2)
	}
	if !reflect.DeepEqual(memLS, stoLS) {
		t.Errorf("LockShare differs: mem %+v store %+v", memLS, stoLS)
	}
}

// TestRunStatsRepairsMissingSidecar simulates a store whose trace
// survived but whose sidecar write was interrupted: the first stats
// query falls back to one emulator run and rewrites the sidecar, so
// later queries are served from the store again.
func TestRunStatsRepairsMissingSidecar(t *testing.T) {
	r := storeRunner(t)
	b, _ := bench.ByName("matrix")
	k, err := r.EnsureStored(context.Background(), b, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	sidecar := strings.TrimSuffix(r.Store.Path(k), tracestore.TraceExt) + ".run" + tracestore.ObjectExt
	if err := os.Remove(sidecar); err != nil {
		t.Fatalf("removing sidecar: %v", err)
	}

	before := r.EngineRuns()
	if _, _, err := runStats(context.Background(), r, b, 2, false); err != nil {
		t.Fatal(err)
	}
	if n := r.EngineRuns() - before; n != 1 {
		t.Fatalf("fallback performed %d engine runs, want 1", n)
	}
	if _, _, err := runStats(context.Background(), r, b, 2, false); err != nil {
		t.Fatal(err)
	}
	if n := r.EngineRuns() - before; n != 1 {
		t.Fatalf("sidecar not repaired: %d engine runs on second query", n-1)
	}
}

// TestParallelGenerationSingleFlight checks that concurrent grid cells
// needing the same trace generate it exactly once, while distinct cells
// generate in parallel on the pool.
func TestParallelGenerationSingleFlight(t *testing.T) {
	r := storeRunner(t)

	// 4 distinct cells × 3 configs each, all cells touched twice.
	benches := []string{"qsort", "matrix"}
	pesList := []int{1, 2}
	var total int
	for range []int{0, 1} { // two sweeps over the same cells
		err := runGrid(context.Background(), r, len(benches)*len(pesList), func(i int) error {
			b, _ := bench.ByName(benches[i%len(benches)])
			pes := pesList[i/len(benches)]
			_, err := simulateAll(context.Background(), r, b, pes, pes == 1, testConfigs(pes)[:3])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		total += len(benches) * len(pesList)
	}
	if n := r.EngineRuns(); n != int64(len(benches)*len(pesList)) {
		t.Fatalf("%d cells over %d sweeps ran the emulator %d times, want once per cell (%d)",
			total, 2, n, len(benches)*len(pesList))
	}
}
