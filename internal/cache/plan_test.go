package cache

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// Simulation-planning tests: SimulateAll serves a WriteThrough
// configuration from its WriteInBroadcast twin's simulator and derives
// the Stats, and serves fully associative configurations that differ
// only in size from one multi-size structure (replay.go). The retained
// reference simulator (refsim_test.go) simulates write-through
// independently, so it is the oracle for the derivation — on the
// paper's traces, and on synthetic traces that invalidate about as
// often as they write (real RAP-WAM traces invalidate a few hundred
// times in millions of references, which alone would leave the
// coherence half of the argument untested). multisize_test.go does the
// same for the size rule.

// figure4Request is what one Figure 4 cell asks for: three protocols at
// the paper's eight sizes under the paper's allocation policy.
func figure4Request(pes int) []Config {
	var cfgs []Config
	for _, p := range []Protocol{WriteInBroadcast, Hybrid, WriteThrough} {
		for _, size := range figure4Sizes {
			cfgs = append(cfgs, Config{PEs: pes, SizeWords: size, LineWords: 4, Protocol: p, WriteAllocate: PaperWriteAllocate(p, size)})
		}
	}
	return cfgs
}

func TestPlanSims(t *testing.T) {
	at := func(p Protocol, wa bool, size int) Config {
		return Config{PEs: 8, SizeWords: size, LineWords: 4, Protocol: p, WriteAllocate: wa}
	}
	unit := func(cfg Config, sizes ...int) simUnit {
		return simUnit{cfg: cfg, sizes: uniform(sizes, cfg.WriteAllocate)}
	}
	mixed := func(cfg Config, sizes ...cacheSize) simUnit { return simUnit{cfg: cfg, sizes: sizes} }
	wib, hyb, wt := at(WriteInBroadcast, true, 1024), at(Hybrid, true, 1024), at(WriteThrough, true, 1024)
	sa := wib
	sa.Assoc = 2
	sa512 := sa
	sa512.SizeWords = 512
	var nine []Config
	for i := 1; i <= maxSizes+1; i++ {
		nine = append(nine, at(Hybrid, true, 64*i))
	}
	for _, tc := range []struct {
		name  string
		cfgs  []Config
		units []simUnit
		slot  []simSlot
	}{
		{"one size, three protocols", []Config{wib, hyb, wt}, []simUnit{unit(wib, 1024), unit(hyb, 1024)}, []simSlot{{0, 0}, {1, 0}, {0, 0}}},
		{"write-through first", []Config{wt, hyb, wib}, []simUnit{unit(wib, 1024), unit(hyb, 1024)}, []simSlot{{0, 0}, {1, 0}, {0, 0}}},
		{"write-through alone", []Config{wt}, []simUnit{unit(wib, 1024)}, []simSlot{{0, 0}}},
		{"duplicate", []Config{hyb, hyb}, []simUnit{unit(hyb, 1024)}, []simSlot{{0, 0}, {0, 0}}},
		{"allocation differs", []Config{wib, at(WriteThrough, false, 1024)},
			[]simUnit{mixed(at(WriteInBroadcast, false, 1024), cacheSize{1024, false}, cacheSize{1024, true})}, []simSlot{{0, 1}, {0, 0}}},
		{"sizes share a structure, in any order", []Config{wt, at(WriteInBroadcast, true, 512), at(WriteThrough, true, 4096), wib},
			[]simUnit{unit(at(WriteInBroadcast, true, 512), 512, 1024, 4096)}, []simSlot{{0, 1}, {0, 0}, {0, 2}, {0, 1}}},
		{"table 3 cell", []Config{{PEs: 1, SizeWords: 512, LineWords: 4, Protocol: Copyback, WriteAllocate: true}, {PEs: 1, SizeWords: 1024, LineWords: 4, Protocol: Copyback, WriteAllocate: true}},
			[]simUnit{unit(Config{PEs: 1, SizeWords: 512, LineWords: 4, Protocol: Copyback, WriteAllocate: true}, 512, 1024)}, []simSlot{{0, 0}, {0, 1}}},
		{"sizes of different policies share a structure", []Config{at(Hybrid, false, 512), hyb, at(Hybrid, false, 64)},
			[]simUnit{mixed(at(Hybrid, false, 64), cacheSize{64, false}, cacheSize{512, false}, cacheSize{1024, true})}, []simSlot{{0, 1}, {0, 2}, {0, 0}}},
		{"line size and PE count are part of the class", []Config{wib, {PEs: 8, SizeWords: 512, LineWords: 8, Protocol: WriteInBroadcast, WriteAllocate: true}, {PEs: 4, SizeWords: 512, LineWords: 4, Protocol: WriteInBroadcast, WriteAllocate: true}},
			[]simUnit{unit(wib, 1024), unit(Config{PEs: 8, SizeWords: 512, LineWords: 8, Protocol: WriteInBroadcast, WriteAllocate: true}, 512), unit(Config{PEs: 4, SizeWords: 512, LineWords: 4, Protocol: WriteInBroadcast, WriteAllocate: true}, 512)},
			[]simSlot{{0, 0}, {1, 0}, {2, 0}}},
		{"set-indexed sizes stay apart", []Config{sa, sa512}, []simUnit{unit(sa, 1024), unit(sa512, 512)}, []simSlot{{0, 0}, {1, 0}}},
		{"update protocol sizes stay apart", []Config{at(WriteThroughBroadcast, true, 1024), at(WriteThroughBroadcast, true, 512), wib},
			[]simUnit{unit(at(WriteThroughBroadcast, true, 1024), 1024), unit(at(WriteThroughBroadcast, true, 512), 512), unit(wib, 1024)}, []simSlot{{0, 0}, {1, 0}, {2, 0}}},
		{"more sizes than one structure serves", nine,
			[]simUnit{unit(nine[0], 64, 128, 192, 256, 320, 384, 448, 512), unit(nine[8], 576)},
			[]simSlot{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {1, 0}}},
		{"empty", nil, nil, []simSlot{}},
	} {
		units, slot := planSims(tc.cfgs)
		if !reflect.DeepEqual(units, tc.units) || !reflect.DeepEqual(slot, tc.slot) {
			t.Errorf("%s: planSims = %v %v, want %v %v", tc.name, units, slot, tc.units, tc.slot)
		}
		if n := Simulators(tc.cfgs); n != len(tc.units) {
			t.Errorf("%s: Simulators = %d, want %d", tc.name, n, len(tc.units))
		}
	}

	// A Figure 4 cell: write-in broadcast (with write-through riding on
	// it) allocates from 512 words, hybrid from 1024; each protocol's
	// eight sizes share one structure across its policy boundary.
	units, _ := planSims(figure4Request(8))
	want := []simUnit{
		mixed(at(WriteInBroadcast, false, 64), slices.Concat(uniform([]int{64, 128, 256}, false), uniform([]int{512, 1024, 2048, 4096, 8192}, true))...),
		mixed(at(Hybrid, false, 64), slices.Concat(uniform([]int{64, 128, 256, 512}, false), uniform([]int{1024, 2048, 4096, 8192}, true))...),
	}
	if !reflect.DeepEqual(units, want) {
		t.Errorf("Figure 4 cell: planSims = %v, want %v", units, want)
	}
	for _, pes := range []int{1, 2, 4, 8} {
		if n := Simulators(figure4Request(pes)); n != 2 {
			t.Errorf("Figure 4 cell at %d PEs: %d simulators, want 2", pes, n)
		}
	}
}

// TestMixedAllocationPoliciesShareExactly: LRU inclusion fails between
// a small no-write-allocate cache and a larger write-allocate one, and
// the two still share one structure exactly. After R a, R b, W x, W y
// the 2-line cache still holds a (its writes allocated nothing) and the
// 3-line cache has evicted it, so the final R a hits the small cache
// and misses the large one.
func TestMixedAllocationPoliciesShareExactly(t *testing.T) {
	small := Config{PEs: 1, SizeWords: 8, LineWords: 4, Protocol: WriteInBroadcast}
	large := Config{PEs: 1, SizeWords: 12, LineWords: 4, Protocol: WriteInBroadcast, WriteAllocate: true}
	const a, b, x, y = 0, 4, 8, 12
	buf := bufferOf([]trace.Ref{
		{Addr: a, Op: trace.OpRead}, {Addr: b, Op: trace.OpRead},
		{Addr: x, Op: trace.OpWrite}, {Addr: y, Op: trace.OpWrite},
		{Addr: a, Op: trace.OpRead},
	})
	for _, p := range []Protocol{WriteInBroadcast, WriteThrough, Hybrid, Copyback} {
		small.Protocol, large.Protocol = p, p
		cfgs := []Config{small, large}
		if n := Simulators(cfgs); n != 1 {
			t.Errorf("%v: %d simulators for two allocation policies, want 1", p, n)
		}
		together, err := SimulateAll(buf, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if alone, _, _, _ := runRef(buf, cfg, false); together[i] != alone {
				t.Errorf("%s: together %+v, alone %+v", cfg.Key(), together[i], alone)
			}
		}
		if together[0].ReadMisses != 2 || together[1].ReadMisses != 3 {
			t.Errorf("%v: read misses %d (2 lines, no allocate) and %d (3 lines, allocate), want 2 and 3: the stream no longer breaks inclusion",
				p, together[0].ReadMisses, together[1].ReadMisses)
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
				buf = bufferOf(refsOf(buf)[:paperPrefix])
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
	return bufferOf(refs)
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
// depend on what else was requested with it — not on whether
// write-through shared write-in broadcast's simulator, and not on which
// other sizes shared its multi-size structure.
func TestSimulateAllTogetherEqualsAlone(t *testing.T) {
	for _, tr := range []struct {
		name string
		buf  *trace.Buffer
		pes  int
	}{
		{"qsort@8", parityTrace(t, "qsort", 8, false), 8},
		{"sharing@4", sharingTrace(99, 4, 64, 50, 100_000), 4},
	} {
		// The whole Figure 4 request, with a duplicate, on 2 structures.
		cfgs := figure4Request(tr.pes)
		cfgs = append(cfgs, cfgs[20])
		if n := Simulators(cfgs); n != 2 {
			t.Fatalf("%s: %d simulators for a Figure 4 cell, want 2", tr.name, n)
		}
		together, err := SimulateAll(tr.buf, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		// Alone: one Sim each (the single-sink replay path, no fan-out),
		// equal to a simulator built and fed directly.
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
		// One size per call, as a result object that already holds the
		// other sizes leaves it: write-in broadcast and write-through
		// collapse to one Sim.
		pair, err := SimulateAll(tr.buf, []Config{cfgs[4], cfgs[20]})
		if err != nil {
			t.Fatal(err)
		}
		if pair[0] != together[4] || pair[1] != together[20] {
			t.Errorf("%s: as a pair %+v, in the group %+v %+v", tr.name, pair, together[4], together[20])
		}
		// Three of the eight sizes already stored: the other five run
		// without them, on smaller structures.
		var rest []Config
		var at []int
		for i, cfg := range cfgs[:24] {
			if cfg.SizeWords != 128 && cfg.SizeWords != 256 && cfg.SizeWords != 8192 {
				rest, at = append(rest, cfg), append(at, i)
			}
		}
		partial, err := SimulateAll(tr.buf, rest)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range at {
			if partial[j] != together[i] {
				t.Errorf("%s %s: with five sizes %+v, with eight %+v", tr.name, rest[j].Key(), partial[j], together[i])
			}
		}
	}
}
