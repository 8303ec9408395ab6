package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/busmodel"
	"repro/internal/cache"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/tracestore"
)

// Tests of the stored results of a cell: cellResults (simulateAll for
// cache Stats, RunBusDES for the bus DES) asks the cell's result object
// first and replays only for what it lacks, and nothing a consumer can
// observe — rendered output, Stats — depends on where a result came
// from.

// replayCounter counts the trace objects opened through it: every
// Replay of a stored trace is one Get of a .rwt2 object.
type replayCounter struct {
	storage.Backend
	replays atomic.Int64
}

func (c *replayCounter) Get(name string) (io.ReadCloser, error) {
	if strings.HasSuffix(name, tracestore.TraceExt) {
		c.replays.Add(1)
	}
	return c.Backend.Get(name)
}

// TestExpAllColdWarmDifferential takes the full `-exp all` driver set
// through a store cold and then warm and requires the store-less
// rendering both times. It pins the warm run's economy — no emulator
// run, no simulation, no trace opened: the bus DES is a stored result
// like every Stats — and the hit accounting the benchmark harness's
// oracle expects: a call served entirely from stored results counts the
// one hit its Replay would have.
func TestExpAllColdWarmDifferential(t *testing.T) {
	want := expAll(t, new(bench.Runner))

	backend := &replayCounter{Backend: storage.NewMem()}
	store := tracestore.NewOn(backend)
	coldRunner := &bench.Runner{Store: store}
	if got := expAll(t, coldRunner); got != want {
		t.Error("store-cold output differs from the store-less output")
	}
	cold := store.Stats()
	if cold.Hits != 71 || cold.Misses != 30 || cold.Puts != 30 || coldRunner.EngineRuns() != 30 {
		t.Errorf("store-cold: %d hits, %d misses, %d traces written, %d emulator runs; want 71, 30, 30, 30",
			cold.Hits, cold.Misses, cold.Puts, coldRunner.EngineRuns())
	}
	if cold.ResultHits != expAllRepeatConfigs || cold.ResultMisses != expAllResults-expAllRepeatConfigs {
		t.Errorf("store-cold: %d results from stored results, %d computed; want %d and %d",
			cold.ResultHits, cold.ResultMisses, expAllRepeatConfigs, expAllResults-expAllRepeatConfigs)
	}
	// 33 simulateAll calls less the 8 served whole, plus RunBusDES: each
	// replays once and writes its cell's result object back.
	const replayingCalls = 33 - expAllRepeatCalls + 1
	if n := backend.replays.Load(); n != replayingCalls {
		t.Errorf("store-cold: %d replays, want %d", n, replayingCalls)
	}
	if cold.ResultPuts != replayingCalls {
		t.Errorf("store-cold: %d result objects written, want one per replaying call (%d)", cold.ResultPuts, replayingCalls)
	}
	cells, err := store.List()
	if err != nil || len(cells) != 30 {
		t.Errorf("List: %d cells (err %v), want the 30 traces and no result object", len(cells), err)
	}

	coldReplays := backend.replays.Load() // List read every trace header
	warmRunner := &bench.Runner{Store: store}
	if got := expAll(t, warmRunner); got != want {
		t.Error("warm output differs from the store-less output")
	}
	warm := store.Stats()
	if hits, misses, puts := warm.Hits-cold.Hits, warm.Misses-cold.Misses, warm.Puts-cold.Puts; hits != 101 || misses != 0 || puts != 0 || warmRunner.EngineRuns() != 0 {
		t.Errorf("warm: %d hits, %d misses, %d traces written, %d emulator runs; want 101, 0, 0, 0",
			hits, misses, puts, warmRunner.EngineRuns())
	}
	if hits, misses, puts := warm.ResultHits-cold.ResultHits, warm.ResultMisses-cold.ResultMisses, warm.ResultPuts-cold.ResultPuts; hits != expAllResults || misses != 0 || puts != 0 {
		t.Errorf("warm: %d results from stored results, %d computed, %d result objects written; want %d, 0, 0",
			hits, misses, puts, expAllResults)
	}
	if n := backend.replays.Load() - coldReplays; n != 0 {
		t.Errorf("warm: %d stored traces opened, want 0", n)
	}
}

// TestParentWrittenStoreGainsOnlyTheDESObject runs `-exp all` over a
// store as a build before the des kind left it — traces, sidecars and
// <stem>.sim.rwo1 objects, no des object: every cache result is reused,
// qsort@8 is replayed once for the bus DES, one object is written, and
// the run after that opens no trace.
func TestParentWrittenStoreGainsOnlyTheDESObject(t *testing.T) {
	mem := storage.NewMem()
	backend := &replayCounter{Backend: mem}
	store := tracestore.NewOn(backend)
	want := expAll(t, &bench.Runner{Store: store})
	names, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	var des []string
	for _, name := range names {
		if strings.HasSuffix(name, ".des"+tracestore.ObjectExt) {
			des = append(des, name)
		}
	}
	if len(des) != 1 || !strings.HasPrefix(des[0], "qsort-p8-par-") {
		t.Fatalf("des objects after a cold run: %v, want qsort@8's alone", des)
	}
	if err := mem.Delete(des[0]); err != nil {
		t.Fatal(err)
	}

	for pass, economy := range []struct{ hits, misses, puts, replays int64 }{
		{expAllConfigs, 1, 1, 1},
		{expAllResults, 0, 0, 0},
	} {
		before, replays := store.Stats(), backend.replays.Load()
		r := &bench.Runner{Store: store}
		if got := expAll(t, r); got != want {
			t.Errorf("pass %d: output differs from the cold run's", pass)
		}
		st := store.Stats()
		if hits, misses, puts, n := st.ResultHits-before.ResultHits, st.ResultMisses-before.ResultMisses, st.ResultPuts-before.ResultPuts, backend.replays.Load()-replays; hits != economy.hits || misses != economy.misses || puts != economy.puts || n != economy.replays || r.EngineRuns() != 0 {
			t.Errorf("pass %d: %d results reused, %d computed, %d result objects written, %d replays, %d emulator runs; want %d, %d, %d, %d, 0",
				pass, hits, misses, puts, n, r.EngineRuns(), economy.hits, economy.misses, economy.puts, economy.replays)
		}
	}
	if _, err := mem.Stat(des[0]); err != nil {
		t.Errorf("the des object did not come back: %v", err)
	}
}

// Objects a build before the binary object format wrote, byte for byte:
// the run sidecar of nrev@1 (sequential), the sim object of queens@1 and
// the des object of qsort@8.
const (
	parentSidecar = `{"sha256":"ca76d2b3ffa4fb5b94e61fa6f7dbfa901aa0dae756fe5502a471e88ce65b3f56","data":{"Success":true,"Stats":{"Cycles":319120,"Instructions":[319120],"WorkRefs":[150705],"RunCycles":[319120],"WaitCycles":[0],"IdleCycles":[0],"Inferences":24531,"Parcalls":0,"GoalsParallel":0,"GoalsStolen":0,"StealProbes":0,"Kills":0,"CheckFails":0,"MaxHeap":49280,"MaxLocal":1324,"MaxControl":0,"MaxTrail":0},"Refs":{"ByObj":[[0,0],[660,663],[881,882],[0,0],[73149,73590],[0,0],[440,440],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],"ByPE":[150705,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}`
	parentSim     = `{"sha256":"a328134ef320c6c70309832d2e4b11a16bebda765eb68fece11a681685be4738","data":{"key":{"Benchmark":"queens","PEs":1,"Sequential":true,"EmulatorVersion":"emu1"},"codec_version":1,"sim_version":"sim1","results":{"pes=1 size=1024 line=4 proto=copyback walloc=true assoc=0":{"Refs":22832,"Reads":12731,"Writes":10101,"ReadMisses":0,"WriteMisses":68,"BusWords":272,"LineFills":68,"WriteBacks":0,"WriteThroughs":0,"Updates":0,"Invalidations":0},"pes=1 size=512 line=4 proto=copyback walloc=true assoc=0":{"Refs":22832,"Reads":12731,"Writes":10101,"ReadMisses":0,"WriteMisses":68,"BusWords":272,"LineFills":68,"WriteBacks":0,"WriteThroughs":0,"Updates":0,"Invalidations":0}}}}`
	parentDES     = `{"sha256":"ea37d2b439caead8df473fdd24d838aca052ea0efdf309a888025ffda34fe294","data":{"key":{"Benchmark":"qsort","PEs":8,"Sequential":false,"EmulatorVersion":"emu1"},"codec_version":1,"sim_version":"sim1+des1","results":{"pes=8 size=256 line=4 proto=write-in-broadcast walloc=false assoc=0|bus=4":{"DES":{"Utilization":0.5594842487006554,"MeanWaitCycles":6.010411608916354,"Efficiency":0.6775956072339894,"Saturated":false},"Stats":{"Refs":335637,"Reads":127761,"Writes":207876,"ReadMisses":10359,"WriteMisses":28797,"BusWords":94030,"LineFills":10359,"WriteBacks":5881,"WriteThroughs":28797,"Updates":0,"Invalidations":371}}}}}`
)

// TestParentFormatStoreUpgrades runs `-exp all` twice over a store as a
// build before the binary object format leaves it: the 30 traces, and
// checksummed-JSON objects beside them (three of them here, standing for
// the 51 such a run writes). The JSON objects are foreign files: never
// read, never quarantined, never moved. The first run prints what a
// store-less run prints, generates no trace, repairs each sidecar it
// reads with one emulator run and recomputes every result; the second
// is fully warm.
func TestParentFormatStoreUpgrades(t *testing.T) {
	want := expAll(t, new(bench.Runner))
	mem := storage.NewMem()
	store := tracestore.NewOn(mem)
	expAll(t, &bench.Runner{Store: store})
	names, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, tracestore.ObjectExt) {
			if err := mem.Delete(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	stem := func(name string, pes int) string {
		return strings.TrimSuffix(store.Path(bench.StoreKey(name, pes, pes == 1)), tracestore.TraceExt)
	}
	legacy := map[string]string{
		stem("nrev", 1) + ".json":       parentSidecar,
		stem("queens", 1) + ".sim.json": parentSim,
		stem("qsort", 8) + ".des.json":  parentDES,
	}
	for name, data := range legacy {
		storagetest.Put(t, mem, name, data)
	}
	store.ResetStats()

	for pass, economy := range []struct{ engineRuns, reused, simulated, written int64 }{
		{24, expAllRepeatConfigs, expAllResults - expAllRepeatConfigs, 26},
		{0, expAllResults, 0, 0},
	} {
		before := store.Stats()
		r := &bench.Runner{Store: store}
		if got := expAll(t, r); got != want {
			t.Errorf("pass %d: output differs from the store-less run's", pass)
		}
		st := store.Stats()
		if puts, q := st.Puts-before.Puts, st.Quarantines-before.Quarantines; puts != 0 || q != 0 {
			t.Errorf("pass %d: %d traces written, %d objects quarantined; want 0 and 0", pass, puts, q)
		}
		if reused, simulated, written := st.ResultHits-before.ResultHits, st.ResultMisses-before.ResultMisses, st.ResultPuts-before.ResultPuts; r.EngineRuns() != economy.engineRuns || reused != economy.reused || simulated != economy.simulated || written != economy.written {
			t.Errorf("pass %d: %d emulator runs; %d results reused, %d simulated, %d result objects written; want %d; %d, %d, %d",
				pass, r.EngineRuns(), reused, simulated, written, economy.engineRuns, economy.reused, economy.simulated, economy.written)
		}
	}
	for name, data := range legacy {
		if got := storagetest.Get(t, mem, name); got != data {
			t.Errorf("the legacy object %s changed", name)
		}
	}
}

// TestBusDESPartialFill is TestPartialFillSimulatesOnlyTheDifference
// for the des kind: one bus width, then that width and another — each
// round replays once, the second computing only the new width and
// writing both back — and afterwards both are served with no replay.
// A stored record renders exactly what a computed one does.
func TestBusDESPartialFill(t *testing.T) {
	ctx := context.Background()
	backend := &replayCounter{Backend: storage.NewMem()}
	r := &bench.Runner{Store: tracestore.NewOn(backend)}
	round := func(widths []float64, replays, hits, misses, puts int64) {
		t.Helper()
		before, n := r.Store.Stats(), backend.replays.Load()
		for _, bw := range widths {
			want, err := RunBusDES(ctx, shared, "qsort", 2, 256, bw)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunBusDES(ctx, r, "qsort", 2, 256, bw)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Errorf("bw=%v: %+v through the store, %+v without", bw, *got, *want)
			}
		}
		st := r.Store.Stats()
		if n, hits2, misses2, puts2 := backend.replays.Load()-n, st.ResultHits-before.ResultHits, st.ResultMisses-before.ResultMisses, st.ResultPuts-before.ResultPuts; n != replays || hits2 != hits || misses2 != misses || puts2 != puts {
			t.Errorf("widths %v: %d replays, %d results reused, %d computed, %d objects written; want %d, %d, %d, %d",
				widths, n, hits2, misses2, puts2, replays, hits, misses, puts)
		}
	}
	round([]float64{4}, 1, 0, 1, 1)
	round([]float64{4, 8}, 1, 1, 1, 1)
	round([]float64{4, 8}, 0, 2, 0, 0)
	if r.EngineRuns() != 1 {
		t.Errorf("%d emulator runs, want 1", r.EngineRuns())
	}
	recs, err := tracestore.LoadResults[BusRecord](r.Store, bench.StoreKey("qsort", 2, false), "des", desVersion, nil)
	if err != nil || len(recs) != 2 {
		t.Errorf("the des object holds %d records (err %v), want both widths", len(recs), err)
	}
}

// The pinned pair of TestBusDESGolden: the bit patterns of the DES's
// utilization, mean wait and efficiency for qsort at 8 PEs, 256-word
// caches, 4 bus words per cycle.
const goldenDESVersion = "des1"

var goldenDES = [3]uint64{0x3fe1e74b82d97c7b, 0x40180aa9573f2d8d, 0x3fe5aedcfb9f76bf}

// TestBusDESGolden pins the bus DES's output together with
// busmodel.Version, as TestSimVersionGolden pins the cache kernels':
// stored des records are trusted for as long as the stamp
// cache.SimVersion+busmodel.Version stands, so output that moves under
// an unchanged stamp would be served stale.
func TestBusDESGolden(t *testing.T) {
	b, err := RunBusDES(context.Background(), new(bench.Runner), "qsort", 8, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := [3]uint64{math.Float64bits(b.DES.Utilization), math.Float64bits(b.DES.MeanWaitCycles), math.Float64bits(b.DES.Efficiency)}
	switch {
	case got == goldenDES && busmodel.Version == goldenDESVersion:
	case busmodel.Version == goldenDESVersion:
		t.Errorf("the bus DES's output moved (%#x, pinned %#x) under busmodel.Version %q: bump it (or cache.SimVersion, if the cache's bus transactions moved), then re-pin", got, goldenDES, busmodel.Version)
	default:
		t.Errorf("busmodel.Version is %q, the pinned pair is for %q: re-pin goldenDESVersion and goldenDES = %#x", busmodel.Version, goldenDESVersion, got)
	}
}

// TestPartialFillSimulatesOnlyTheDifference asks Figure 4 for a subset
// of cache sizes and then for a superset: the second run simulates
// exactly the configurations the first did not, and prints what a run
// that never saw a store prints. Each cell's progress line says what the
// difference cost: write-through shares write-in broadcast's simulator,
// and a protocol's sizes share one whatever their allocation policy —
// the subset's 128 and 1024 words, which allocate differently, and the
// difference's 64 and 256 words, which allocate alike (two simulators
// each).
func TestPartialFillSimulatesOnlyTheDifference(t *testing.T) {
	ctx := context.Background()
	pes, subset, superset := []int{1, 2}, []int{128, 1024}, []int{64, 128, 256, 1024}
	want, err := RunFigure4(ctx, new(bench.Runner), pes, superset)
	if err != nil {
		t.Fatal(err)
	}

	r := storeRunner(t)
	var mu sync.Mutex
	decisions := map[string]int{}
	r.Progress = func(msg string) {
		if _, decision, ok := strings.Cut(msg, ": "); ok && strings.Contains(decision, "configs from stored results") {
			mu.Lock()
			decisions[decision]++
			mu.Unlock()
		}
	}
	const cells, protocols = 2 * 4, 3 // PE counts × paper benchmarks
	if _, err := RunFigure4(ctx, r, pes, subset); err != nil {
		t.Fatal(err)
	}
	if want := "0 of 6 configs from stored results; simulating 6 configs with 2 simulators"; decisions[want] != cells {
		t.Errorf("subset: progress decisions %v, want %d × %q", decisions, cells, want)
	}
	st := r.Store.Stats()
	if st.ResultHits != 0 || st.ResultMisses != cells*protocols*2 {
		t.Fatalf("subset: %d configs from stored results, %d simulated; want 0 and %d", st.ResultHits, st.ResultMisses, cells*protocols*2)
	}
	got, err := RunFigure4(ctx, r, pes, superset)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("partially filled store changed Figure 4:\n--- store-less:\n%s\n--- after partial fill:\n%s", want, got)
	}
	if want := "6 of 12 configs from stored results; simulating 6 configs with 2 simulators"; decisions[want] != cells {
		t.Errorf("superset: progress decisions %v, want %d × %q", decisions, cells, want)
	}
	after := r.Store.Stats()
	if hits, misses := after.ResultHits-st.ResultHits, after.ResultMisses-st.ResultMisses; hits != cells*protocols*2 || misses != cells*protocols*2 {
		t.Fatalf("superset: %d configs from stored results, %d simulated; want %d and %d (the two new sizes)",
			hits, misses, cells*protocols*2, cells*protocols*2)
	}
}

// resultObject returns the path of the one result object in r's
// directory store.
func resultObject(t *testing.T, r *bench.Runner) string {
	t.Helper()
	entries, err := os.ReadDir(r.Store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sim"+tracestore.ObjectExt) {
			found = append(found, e.Name())
		}
	}
	if len(found) != 1 {
		t.Fatalf("result objects in the store: %v, want exactly one", found)
	}
	return filepath.Join(r.Store.Dir(), found[0])
}

// TestDamagedResultObjectIsRecomputed edits a cell's result object on
// disk — a flipped bit, a truncation — or replaces it with one another
// simulator version wrote, and requires the next consumer to recompute
// identical Stats and leave a good object behind. Damage is
// quarantined; a stale stamp is not corruption and is only replaced.
func TestDamagedResultObjectIsRecomputed(t *testing.T) {
	b, _ := benchByName(t, "qsort")
	cfgs := testConfigs(2)
	edit := func(f func(data []byte) []byte) func(*testing.T, *bench.Runner) {
		return func(t *testing.T, r *bench.Runner) {
			path := resultObject(t, r)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name        string
		damage      func(t *testing.T, r *bench.Runner)
		quarantines int64
	}{
		{"bit flip", edit(func(d []byte) []byte { d[len(d)/2] ^= 0x04; return d }), 1},
		{"truncated", edit(func(d []byte) []byte { return d[:len(d)/2] }), 1},
		{"other SimVersion", func(t *testing.T, r *bench.Runner) {
			k := bench.StoreKey(b.Name, 2, false)
			results, err := tracestore.LoadResults[cache.Stats](r.Store, k, "sim", cache.SimVersion, nil)
			if err != nil || len(results) != len(cfgs) {
				t.Fatalf("reading the object back: %d results, err %v", len(results), err)
			}
			if err := tracestore.PutResults(r.Store, k, "sim", cache.SimVersion+"-other", results); err != nil {
				t.Fatal(err)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := storeRunner(t)
			want, err := simulateAll(context.Background(), r, b, 2, false, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, r)

			before := r.Store.Stats()
			got, err := simulateAll(context.Background(), r, b, 2, false, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			assertSameStats(t, got, want)
			after := r.Store.Stats()
			if n := after.Quarantines - before.Quarantines; n != tc.quarantines {
				t.Errorf("%d objects quarantined, want %d", n, tc.quarantines)
			}
			if hits, misses := after.ResultHits-before.ResultHits, after.ResultMisses-before.ResultMisses; hits != 0 || misses != int64(len(cfgs)) {
				t.Errorf("%d configs from the unusable object, %d simulated; want 0 and %d", hits, misses, len(cfgs))
			}
			if r.EngineRuns() != 1 {
				t.Errorf("%d emulator runs, want 1: the trace was never damaged", r.EngineRuns())
			}
			// The rewritten object serves the next consumer.
			if _, err := simulateAll(context.Background(), r, b, 2, false, cfgs); err != nil {
				t.Fatal(err)
			}
			if final := r.Store.Stats(); final.ResultHits-after.ResultHits != int64(len(cfgs)) {
				t.Errorf("rewritten object served %d configs, want %d", final.ResultHits-after.ResultHits, len(cfgs))
			}
			if rep := r.Store.Verify(); len(rep.Errors) != 0 {
				t.Errorf("store not clean afterwards: %v", rep.Errors)
			}
		})
	}
}

func assertSameStats(t *testing.T, got, want []cache.Stats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d Stats, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("config %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// failingResultReads fails every read of a result object with a
// transient error, leaving traces and sidecars readable.
type failingResultReads struct{ storage.Backend }

func (b failingResultReads) Get(name string) (io.ReadCloser, error) {
	if strings.HasSuffix(name, ".sim"+tracestore.ObjectExt) {
		return nil, storage.Transient(fmt.Errorf("get %q: %w", name, storage.ErrInjected))
	}
	return b.Backend.Get(name)
}

// TestResultObjectUnderBackendFaults drives the result object through
// a misbehaving backend: a write that silently commits damage
// (storage.Fault's bit flip) is caught by the next read, quarantined
// and recomputed; a write that fails is reported and does not fail the
// cell; reads that keep failing are not corruption — nothing is
// quarantined, and the cell degrades to the in-memory store like a
// trace read would. The Stats are the same every time.
func TestResultObjectUnderBackendFaults(t *testing.T) {
	ctx := context.Background()
	b, _ := benchByName(t, "deriv")
	cfgs := testConfigs(2)
	// media holds the cell's trace; each subtest starts without results.
	newMedia := func(t *testing.T) (*storage.Mem, []cache.Stats) {
		t.Helper()
		media := storage.NewMem()
		r := &bench.Runner{Store: tracestore.NewOn(media)}
		if _, err := r.EnsureStored(ctx, b, 2, false); err != nil {
			t.Fatal(err)
		}
		want, err := simulateAll(ctx, new(bench.Runner), b, 2, false, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return media, want
	}

	t.Run("bit-flipped write", func(t *testing.T) {
		media, want := newMedia(t)
		flipping := tracestore.NewOn(storage.NewFault(media, storage.Faults{Seed: 2, BitFlip: 1}))
		got, err := simulateAll(ctx, &bench.Runner{Store: flipping}, b, 2, false, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStats(t, got, want)

		clean := tracestore.NewOn(media)
		got, err = simulateAll(ctx, &bench.Runner{Store: clean}, b, 2, false, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStats(t, got, want)
		if st := clean.Stats(); st.Quarantines != 1 || st.ResultHits != 0 || st.ResultMisses != int64(len(cfgs)) || st.ResultPuts != 1 {
			t.Errorf("reading the damaged object: %+v; want 1 quarantine, 0 configs served, %d simulated, 1 object written", st, len(cfgs))
		}
	})

	t.Run("failed write", func(t *testing.T) {
		media, want := newMedia(t)
		var progress []string // simulateAll reports from the calling goroutine
		s := tracestore.NewOn(storage.NewFault(media, storage.Faults{Seed: 3, WriteErr: 1}))
		r := &bench.Runner{Store: s, Progress: func(msg string) { progress = append(progress, msg) }}
		got, err := simulateAll(ctx, r, b, 2, false, cfgs)
		if err != nil {
			t.Fatalf("a failed result write failed the cell: %v", err)
		}
		assertSameStats(t, got, want)
		if st := s.Stats(); st.ResultPuts != 0 {
			t.Errorf("%d result objects written through a backend that fails every write", st.ResultPuts)
		}
		if all := strings.Join(progress, "\n"); !strings.Contains(all, "storing results") {
			t.Errorf("failed write not reported through Progress:\n%s", all)
		}
	})

	t.Run("failing reads", func(t *testing.T) {
		media, want := newMedia(t)
		if _, err := simulateAll(ctx, &bench.Runner{Store: tracestore.NewOn(media)}, b, 2, false, cfgs); err != nil {
			t.Fatal(err)
		}
		s := tracestore.NewOn(failingResultReads{media})
		dctx, degraded := storage.WithDegraded(ctx)
		r := &bench.Runner{Store: s}
		got, err := simulateAll(dctx, r, b, 2, false, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStats(t, got, want)
		if len(degraded.Components()) == 0 {
			t.Error("cell not marked degraded after its store kept failing")
		}
		if st := s.Stats(); st.Quarantines != 0 {
			t.Errorf("transient read errors quarantined %d healthy objects", st.Quarantines)
		}
	})
}

// TestConcurrentConsumersOfOneCellReplayOnce has two goroutines ask for
// the same configurations of the same cell at once: the cell lock makes
// the second wait for the first and then find its results, so the trace
// is replayed once.
func TestConcurrentConsumersOfOneCellReplayOnce(t *testing.T) {
	ctx := context.Background()
	b, _ := benchByName(t, "deriv")
	cfgs := testConfigs(2)
	backend := &replayCounter{Backend: storage.NewMem()}
	r := &bench.Runner{Store: tracestore.NewOn(backend)}

	const consumers = 2
	results := make([][]cache.Stats, consumers)
	errs := make([]error, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = simulateAll(ctx, r, b, 2, false, cfgs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
	}
	assertSameStats(t, results[1], results[0])
	if n := backend.replays.Load(); n != 1 {
		t.Errorf("%d replays for %d concurrent consumers of one cell, want 1", n, consumers)
	}
	if st := r.Store.Stats(); st.ResultMisses != int64(len(cfgs)) || st.ResultHits != int64(len(cfgs)) {
		t.Errorf("%d configs simulated, %d from stored results; want %d each", st.ResultMisses, st.ResultHits, len(cfgs))
	}
	if r.EngineRuns() != 1 {
		t.Errorf("%d emulator runs, want 1", r.EngineRuns())
	}
}
