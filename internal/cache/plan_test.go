package cache

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// Simulation-planning tests: SimulateAll serves a WriteThrough
// configuration from its WriteInBroadcast twin's simulator and derives
// the Stats (replay.go). The retained reference simulator
// (refsim_test.go) simulates write-through independently, so it is the
// oracle for the derivation — on the paper's traces, and on synthetic
// traces that invalidate about as often as they write (real RAP-WAM
// traces invalidate a few hundred times in millions of references,
// which alone would leave the coherence half of the argument untested).

func TestPlanSims(t *testing.T) {
	at := func(p Protocol, wa bool) Config {
		return Config{PEs: 8, SizeWords: 1024, LineWords: 4, Protocol: p, WriteAllocate: wa}
	}
	wib, hyb, wt := at(WriteInBroadcast, true), at(Hybrid, true), at(WriteThrough, true)
	other := wib
	other.SizeWords = 512
	for _, tc := range []struct {
		name  string
		cfgs  []Config
		build []Config
		slot  []int
	}{
		{"figure-4 group", []Config{wib, hyb, wt}, []Config{wib, hyb}, []int{0, 1, 0}},
		{"write-through first", []Config{wt, hyb, wib}, []Config{wib, hyb}, []int{0, 1, 0}},
		{"write-through alone", []Config{wt}, []Config{wib}, []int{0}},
		{"duplicate", []Config{hyb, hyb}, []Config{hyb}, []int{0, 0}},
		{"allocation differs", []Config{wib, at(WriteThrough, false)}, []Config{wib, at(WriteInBroadcast, false)}, []int{0, 1}},
		{"geometry differs", []Config{other, wt}, []Config{other, wib}, []int{0, 1}},
		{"update protocol kept apart", []Config{wib, at(WriteThroughBroadcast, true)}, []Config{wib, at(WriteThroughBroadcast, true)}, []int{0, 1}},
		{"empty", nil, nil, []int{}},
	} {
		build, slot := planSims(tc.cfgs)
		if !reflect.DeepEqual(build, tc.build) || !reflect.DeepEqual(slot, tc.slot) {
			t.Errorf("%s: planSims = %v %v, want %v %v", tc.name, build, slot, tc.build, tc.slot)
		}
		if n := Simulators(tc.cfgs); n != len(tc.build) {
			t.Errorf("%s: Simulators = %d, want %d", tc.name, n, len(tc.build))
		}
	}
}

// writeThroughGrid is every valid write-through configuration over
// sizes × line sizes × allocation policy × associativity for one PE
// count.
func writeThroughGrid(pes int, sizes, lineWords []int) []Config {
	var cfgs []Config
	for _, size := range sizes {
		for _, lw := range lineWords {
			for _, wa := range []bool{false, true} {
				for _, assoc := range []int{0, 1, 2, 4} {
					cfg := Config{PEs: pes, SizeWords: size, LineWords: lw, Protocol: WriteThrough, WriteAllocate: wa, Assoc: assoc}
					if cfg.Validate() == nil {
						cfgs = append(cfgs, cfg)
					}
				}
			}
		}
	}
	return cfgs
}

// checkDerived compares SimulateAll's (derived) Stats for cfgs with the
// reference simulator's and returns the largest invalidation count seen.
func checkDerived(t *testing.T, buf *trace.Buffer, cfgs []Config) int64 {
	t.Helper()
	got, err := SimulateAll(buf, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var inval int64
	for i, cfg := range cfgs {
		want, _, _, _ := runRef(buf, cfg, false)
		if got[i] != want {
			t.Errorf("%s: derived stats differ from the reference simulator:\n got %+v\nwant %+v", cfg.Key(), got[i], want)
		}
		inval = max(inval, want.Invalidations)
	}
	return inval
}

// paperPrefix bounds the differential tests' cost: the reference
// simulator is slow (more so under -race) and a prefix of a trace is a
// trace.
const paperPrefix = 30_000

// TestDerivedWriteThroughMatchesReferenceOnPaperTraces covers every
// fixed benchmark at 1, 2 and 8 PEs: the paper's four-word line at
// every size, one- and eight-word lines at a small and a large one.
func TestDerivedWriteThroughMatchesReferenceOnPaperTraces(t *testing.T) {
	for _, name := range bench.Names() {
		for _, pes := range []int{1, 2, 8} {
			buf := parityTrace(t, name, pes, pes == 1)
			if buf.Len() > paperPrefix {
				buf = &trace.Buffer{Refs: buf.Refs[:paperPrefix]}
			}
			cfgs := append(
				writeThroughGrid(pes, []int{16, 64, 128, 256, 512, 1024, 4096}, []int{4}),
				writeThroughGrid(pes, []int{16, 1024}, []int{1, 8})...)
			t.Run(fmt.Sprintf("%s@%d", name, pes), func(t *testing.T) {
				t.Parallel()
				checkDerived(t, buf, cfgs)
			})
		}
	}
}

// sharingTrace builds a deterministic trace of n references in which
// pes processors hammer span words: random PE, address, operation
// (writes with probability writePct/100) and object tag (xorshift64).
func sharingTrace(seed uint64, pes, span, writePct, n int) *trace.Buffer {
	s := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	refs := make([]trace.Ref, n)
	for i := range refs {
		op := trace.OpRead
		if next()%100 < uint64(writePct) {
			op = trace.OpWrite
		}
		refs[i] = trace.Ref{
			Addr: uint32(next() % uint64(span)),
			PE:   uint8(next() % uint64(pes)),
			Op:   op,
			Obj:  trace.ObjType(next() % uint64(trace.NumObjTypes)),
		}
	}
	return &trace.Buffer{Refs: refs}
}

// TestDerivedWriteThroughMatchesReferenceUnderHeavySharing: per PE
// count, one long trace over 8 words (everything fits at 16 words, so
// one size: pure coherence, an invalidation for most writes) and two
// shorter ones over 100 and 5000 words (coherence and capacity mixed).
// Two PEs invalidate at most one copy per write, so their long trace
// is the longest.
func TestDerivedWriteThroughMatchesReferenceUnderHeavySharing(t *testing.T) {
	const minInvalidations = 100_000
	lineWords := []int{1, 4, 8}
	for i, tc := range []struct{ pes, n int }{{2, 280_000}, {5, 160_000}, {16, 160_000}, {64, 160_000}} {
		pes, n, seed := tc.pes, tc.n, uint64(10*i)
		t.Run(fmt.Sprintf("%dPE", pes), func(t *testing.T) {
			t.Parallel()
			inval := checkDerived(t, sharingTrace(seed+1, pes, 8, 70, n),
				writeThroughGrid(pes, []int{16}, lineWords))
			if inval < minInvalidations {
				t.Errorf("at most %d invalidations per configuration, want >= %d: the coherence half is untested", inval, minInvalidations)
			}
			mixed := writeThroughGrid(pes, []int{16, 1024}, lineWords)
			checkDerived(t, sharingTrace(seed+2, pes, 100, 50, 40_000), mixed)
			checkDerived(t, sharingTrace(seed+3, pes, 5000, 30, 40_000), mixed)
		})
	}
}

// TestSimulateAllTogetherEqualsAlone: a configuration's Stats do not
// depend on what else was requested with it — in particular not on
// whether write-through shared write-in broadcast's simulator.
func TestSimulateAllTogetherEqualsAlone(t *testing.T) {
	for _, tr := range []struct {
		name string
		buf  *trace.Buffer
		pes  int
	}{
		{"qsort@8", parityTrace(t, "qsort", 8, false), 8},
		{"sharing@4", sharingTrace(99, 4, 64, 50, 100_000), 4},
	} {
		for _, size := range []int{64, 512, 1024} {
			var cfgs []Config
			for _, p := range []Protocol{WriteInBroadcast, Hybrid, WriteThrough} {
				cfgs = append(cfgs, Config{PEs: tr.pes, SizeWords: size, LineWords: 4, Protocol: p, WriteAllocate: PaperWriteAllocate(p, size)})
			}
			cfgs = append(cfgs, cfgs[2]) // a duplicate shares the class too
			together, err := SimulateAll(tr.buf, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			// Write-in broadcast and write-through alone collapse to one
			// simulator: the single-sink replay path, no fan-out.
			pair, err := SimulateAll(tr.buf, []Config{cfgs[0], cfgs[2]})
			if err != nil {
				t.Fatal(err)
			}
			if pair[0] != together[0] || pair[1] != together[2] {
				t.Errorf("%s %dw: as a pair %+v, in the group %+v %+v", tr.name, size, pair, together[0], together[2])
			}
			for i, cfg := range cfgs {
				alone, err := SimulateAll(tr.buf, []Config{cfg})
				if err != nil {
					t.Fatal(err)
				}
				if together[i] != alone[0] {
					t.Errorf("%s %s: together %+v, alone %+v", tr.name, cfg.Key(), together[i], alone[0])
				}
				if direct, _, _, _ := runNew(tr.buf, cfg, false); together[i] != direct {
					t.Errorf("%s %s: SimulateAll %+v, its own simulator %+v", tr.name, cfg.Key(), together[i], direct)
				}
			}
		}
	}
}
