package cache

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// Golden-parity tests: the flat kernel (slab/open-addressing stores,
// snoop directory, one replay loop) must produce
// statistics bit-identical to the retained naive reference simulator
// (refsim_test.go) for every protocol × allocation policy ×
// associativity on real engine traces — including the per-PE bus and
// reference vectors and, on the observed path, the exact OnBus event
// sequence.

// parityTrace memoizes one engine trace per (bench, pes, sequential).
var parityTraces = map[string]*trace.Buffer{}

func parityTrace(t testing.TB, name string, pes int, sequential bool) *trace.Buffer {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%v", name, pes, sequential)
	if buf, ok := parityTraces[key]; ok {
		return buf
	}
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	buf, err := new(bench.Runner).Trace(context.Background(), b, pes, sequential)
	if err != nil {
		t.Fatalf("tracing %s: %v", name, err)
	}
	parityTraces[key] = buf
	return buf
}

// busEvent records one OnBus observation.
type busEvent struct {
	pe, words int
	refIndex  int64
}

// runRef replays buf through the reference simulator, recording OnBus
// events when record is set.
func runRef(buf *trace.Buffer, cfg Config, record bool) (Stats, []int64, []int64, []busEvent) {
	s := newRefSim(cfg)
	var events []busEvent
	if record {
		s.OnBus = func(pe, words int, refIndex int64) {
			events = append(events, busEvent{pe, words, refIndex})
		}
	}
	for _, r := range buf.Refs {
		s.Add(r)
	}
	return s.stats, s.perPEBus, s.perPERefs, events
}

// runNew replays buf through the production simulator in one batch,
// with an OnBus observer attached when record is set.
func runNew(buf *trace.Buffer, cfg Config, record bool) (Stats, []int64, []int64, []busEvent) {
	s := New(cfg)
	var events []busEvent
	if record {
		s.OnBus = func(pe, words int, refIndex int64) {
			events = append(events, busEvent{pe, words, refIndex})
		}
	}
	s.AddBatch(buf.Refs)
	return s.Stats(), s.PerPEBusWords(), s.PerPERefs(), events
}

func eqVec(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parityConfigs enumerates the full grid for one protocol.
func parityConfigs(p Protocol, pes int) []Config {
	var cfgs []Config
	for _, wa := range []bool{false, true} {
		for _, assoc := range []int{0, 1, 2, 4} {
			cfgs = append(cfgs, Config{
				PEs: pes, SizeWords: 256, LineWords: 4,
				Protocol: p, WriteAllocate: wa, Assoc: assoc,
			})
		}
	}
	return cfgs
}

func TestGoldenParityAgainstReferenceSim(t *testing.T) {
	for _, benchName := range []string{"deriv", "qsort"} {
		for _, p := range Protocols() {
			pes, sequential := 4, false
			if p == Copyback {
				pes, sequential = 1, true
			}
			buf := parityTrace(t, benchName, pes, sequential)
			for _, cfg := range parityConfigs(p, pes) {
				cfg := cfg
				name := fmt.Sprintf("%s/%v/wa=%v/assoc=%d", benchName, p, cfg.WriteAllocate, cfg.Assoc)
				t.Run(name, func(t *testing.T) {
					wantStats, wantBus, wantRefs, wantEvents := runRef(buf, cfg, true)

					// Unobserved batch.
					gotStats, gotBus, gotRefs, _ := runNew(buf, cfg, false)
					if gotStats != wantStats {
						t.Errorf("batch stats differ:\n got %+v\nwant %+v", gotStats, wantStats)
					}
					if !eqVec(gotBus, wantBus) {
						t.Errorf("batch per-PE bus differ:\n got %v\nwant %v", gotBus, wantBus)
					}
					if !eqVec(gotRefs, wantRefs) {
						t.Errorf("batch per-PE refs differ:\n got %v\nwant %v", gotRefs, wantRefs)
					}

					// Observed batch (OnBus set): the full bus-event
					// sequence must match.
					gotStats2, _, _, gotEvents := runNew(buf, cfg, true)
					if gotStats2 != wantStats {
						t.Errorf("observed-path stats differ:\n got %+v\nwant %+v", gotStats2, wantStats)
					}
					if len(gotEvents) != len(wantEvents) {
						t.Fatalf("OnBus events: got %d, want %d", len(gotEvents), len(wantEvents))
					}
					for i := range gotEvents {
						if gotEvents[i] != wantEvents[i] {
							t.Fatalf("OnBus event %d: got %+v, want %+v", i, gotEvents[i], wantEvents[i])
						}
					}
				})
			}
		}
	}
}

// TestParityAfterFlush extends parity through the optional end-of-run
// flush accounting.
func TestParityAfterFlush(t *testing.T) {
	buf := parityTrace(t, "qsort", 4, false)
	for _, p := range []Protocol{WriteInBroadcast, WriteThroughBroadcast, Hybrid} {
		for _, assoc := range []int{0, 4} {
			cfg := Config{PEs: 4, SizeWords: 256, LineWords: 4, Protocol: p, WriteAllocate: true, Assoc: assoc}
			ref := newRefSim(cfg)
			for _, r := range buf.Refs {
				ref.Add(r)
			}
			ref.Flush()
			sim := New(cfg)
			sim.AddBatch(buf.Refs)
			sim.Flush()
			if sim.Stats() != ref.stats {
				t.Errorf("%v assoc=%d: post-flush stats differ:\n got %+v\nwant %+v",
					p, assoc, sim.Stats(), ref.stats)
			}
		}
	}
}

// TestDirectoryStaysInSync cross-checks the snoop directory against the
// per-PE stores after a full replay: every directory entry must match
// residency exactly, at every associativity.
func TestDirectoryStaysInSync(t *testing.T) {
	buf := parityTrace(t, "qsort", 4, false)
	for _, p := range []Protocol{WriteThrough, WriteInBroadcast, WriteThroughBroadcast, Hybrid} {
		for _, assoc := range []int{0, 2, 4} {
			cfg := Config{PEs: 4, SizeWords: 256, LineWords: 4, Protocol: p, WriteAllocate: true, Assoc: assoc}
			sim := New(cfg)
			sim.AddBatch(buf.Refs)
			resident := 0
			for pe, c := range sim.caches {
				c.forEach(func(h int32) {
					resident++
					line := c.slab[h].line
					if sim.dir.holders(line)&(1<<uint(pe)) == 0 {
						t.Fatalf("%v assoc=%d: pe %d holds line %d but directory does not know", p, assoc, pe, line)
					}
				})
			}
			// Every directory bit must be backed by a resident line: the
			// total popcount equals the resident-line count.
			bits := 0
			for _, mask := range sim.dir.masks {
				for m := mask; m != 0; m &= m - 1 {
					bits++
				}
			}
			if bits != resident {
				t.Errorf("%v assoc=%d: directory tracks %d holder bits, caches hold %d lines", p, assoc, bits, resident)
			}
		}
	}
}

// TestSteadyStateReplayAllocsZero is the allocation regression test the
// kernel exists for: once a simulator is warm, replaying traces through
// it must not allocate at all, on the batch, run or per-reference
// path, for any protocol.
func TestSteadyStateReplayAllocsZero(t *testing.T) {
	buf := parityTrace(t, "qsort", 4, false)
	seqBuf := parityTrace(t, "qsort", 1, true)
	for _, p := range Protocols() {
		refs := buf.Refs
		pes := 4
		if p == Copyback {
			refs = seqBuf.Refs
			pes = 1
		}
		for _, assoc := range []int{0, 4} {
			cfg := Config{PEs: pes, SizeWords: 256, LineWords: 4, Protocol: p, WriteAllocate: true, Assoc: assoc}
			sim := New(cfg)
			sim.AddBatch(refs) // warm: caches and directory reach steady state
			if n := testing.AllocsPerRun(3, func() { sim.AddBatch(refs) }); n != 0 {
				t.Errorf("%v assoc=%d: batch replay allocates %.0f times per run, want 0", p, assoc, n)
			}
			runs := trace.LineRuns(refs, nil)
			if n := testing.AllocsPerRun(3, func() { sim.AddRuns(refs, runs) }); n != 0 {
				t.Errorf("%v assoc=%d: run replay allocates %.0f times per run, want 0", p, assoc, n)
			}
			if n := testing.AllocsPerRun(3, func() {
				for _, r := range refs[:4096] {
					sim.Add(r)
				}
			}); n != 0 {
				t.Errorf("%v assoc=%d: per-reference replay allocates %.0f times per run, want 0", p, assoc, n)
			}
		}
	}
}

// TestRunsMatchPerReference: on deriv's engine traces (qsort's would
// cost make race most of a minute more), a simulator fed its
// batches with their runs (AddRuns) ends with the Stats, per-PE bus and
// reference vectors it has when fed reference by reference, and after
// Flush too — every protocol and allocation policy, fully associative
// and 2-way, two-, four- and eight-word lines (two-word lines ignore
// the runs), in fan-out-sized chunks; and so does a multi-size
// structure.
func TestRunsMatchPerReference(t *testing.T) {
	const chunk = 8192
	feed := func(s trace.RunSink, refs []trace.Ref) {
		var runs []int32
		for lo := 0; lo < len(refs); lo += chunk {
			c := refs[lo:min(lo+chunk, len(refs))]
			runs = trace.LineRuns(c, runs)
			s.AddRuns(c, runs)
		}
	}
	for _, p := range Protocols() {
		pes, sequential := 8, false
		if p == Copyback {
			pes, sequential = 1, true
		}
		buf := parityTrace(t, "deriv", pes, sequential)
		for _, wa := range []bool{false, true} {
			for _, lw := range []int{2, 4, 8} {
				for _, assoc := range []int{0, 2} {
					cfg := Config{PEs: pes, SizeWords: 256, LineWords: lw, Protocol: p, WriteAllocate: wa, Assoc: assoc}
					want, got := New(cfg), New(cfg)
					want.AddBatch(buf.Refs)
					feed(got, buf.Refs)
					for _, when := range []string{"after the trace", "after Flush"} {
						if got.Stats() != want.Stats() || !eqVec(got.PerPEBusWords(), want.PerPEBusWords()) || !eqVec(got.PerPERefs(), want.PerPERefs()) {
							t.Errorf("%s %s: by runs %+v bus %v\nby reference %+v bus %v",
								cfg.Key(), when, got.Stats(), got.PerPEBusWords(), want.Stats(), want.PerPEBusWords())
						}
						want.Flush()
						got.Flush()
					}
				}
				if p == WriteThrough || p == WriteThroughBroadcast {
					continue
				}
				cfg := Config{PEs: pes, LineWords: lw, Protocol: p, WriteAllocate: wa}
				sizes := []int{16 * lw, 64 * lw, 256 * lw}
				want, got := newMultiSim(cfg, uniform(sizes, wa)), newMultiSim(cfg, uniform(sizes, wa))
				want.AddBatch(buf.Refs)
				feed(got, buf.Refs)
				for k := range sizes {
					if got.stats(k) != want.stats(k) {
						t.Errorf("%s at %d words: multi-size by runs %+v\nby reference %+v", cfg.Key(), sizes[k], got.stats(k), want.stats(k))
					}
				}
			}
		}
	}
}

// TestFanOutObservedSimIsPerReference: a Sim with an OnBus observer
// behind a FanOut — beside a plain Sim, so the fan-out finds runs —
// sees the (pe, words, refIndex) sequence that Add, one reference at a
// time, produces: an observed Sim takes no run in one step.
func TestFanOutObservedSimIsPerReference(t *testing.T) {
	buf := parityTrace(t, "qsort", 8, false)
	for _, p := range []Protocol{WriteInBroadcast, WriteThroughBroadcast, Hybrid} {
		cfg := Config{PEs: 8, SizeWords: 256, LineWords: 4, Protocol: p, WriteAllocate: true}
		record := func(events *[]busEvent) func(pe, words int, refIndex int64) {
			return func(pe, words int, refIndex int64) {
				*events = append(*events, busEvent{pe, words, refIndex})
			}
		}
		var want, got []busEvent
		ref := New(cfg)
		ref.OnBus = record(&want)
		for _, r := range buf.Refs {
			ref.Add(r)
		}
		observed := New(cfg)
		observed.OnBus = record(&got)
		f := trace.NewFanOut(trace.FanOutConfig{ChunkRefs: 1000}, observed, New(cfg))
		f.AddBatchStable(buf.Refs)
		f.Close()
		if len(got) != len(want) {
			t.Fatalf("%v: %d OnBus events behind the fan-out, %d by Add", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: OnBus event %d is %+v behind the fan-out, %+v by Add", p, i, got[i], want[i])
			}
		}
	}
}
