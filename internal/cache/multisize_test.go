package cache

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// Multi-size simulator tests: SimulateAll serves fully associative
// configurations that differ only in size from one structure
// (multisize.go). The retained reference simulator (refsim_test.go)
// simulates every size on its own, so it is the oracle — on the paper's
// traces, and on synthetic sharing traces, because real RAP-WAM traces
// invalidate too rarely to test the coherence half.

// figure4Sizes are the paper's cache sizes in words.
var figure4Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// sizeSweep is every multi-size protocol (write-through rides on
// write-in broadcast; copyback on one PE only) × both allocation
// policies at each size: one class per protocol, whose slots mix the
// policies.
func sizeSweep(pes, lineWords int, sizes []int) []Config {
	protos := []Protocol{WriteInBroadcast, WriteThrough, Hybrid}
	if pes == 1 {
		protos = append(protos, Copyback)
	}
	var cfgs []Config
	for _, p := range protos {
		for _, wa := range []bool{false, true} {
			for _, size := range sizes {
				if size >= lineWords {
					cfgs = append(cfgs, Config{PEs: pes, SizeWords: size, LineWords: lineWords, Protocol: p, WriteAllocate: wa})
				}
			}
		}
	}
	return cfgs
}

// uniform is words under one allocation policy, as a multiSim's slots.
func uniform(words []int, allocate bool) []cacheSize {
	sizes := make([]cacheSize, len(words))
	for k, w := range words {
		sizes[k] = cacheSize{w, allocate}
	}
	return sizes
}

// checkMultiSize compares SimulateAll's Stats for cfgs — which must
// plan onto multi-size structures only — with the reference simulator's
// and returns the invalidation count at the smallest size.
func checkMultiSize(t *testing.T, buf *trace.Buffer, cfgs []Config) int64 {
	t.Helper()
	units, _ := planSims(cfgs)
	for _, u := range units {
		if len(u.sizes) < 2 {
			t.Fatalf("%s runs alone on a Sim: the test would not reach the multi-size kernel", u.cfg.Key())
		}
	}
	got, err := SimulateAll(buf, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var inval int64
	for i, cfg := range cfgs {
		want, _, _, _ := runRef(buf, cfg, false)
		if got[i] != want {
			t.Errorf("%s: multi-size stats differ from the reference simulator:\n got %+v\nwant %+v", cfg.Key(), got[i], want)
		}
		if cfg.SizeWords == cfgs[0].SizeWords {
			inval = max(inval, want.Invalidations)
		}
	}
	return inval
}

// TestMultiSizeMatchesReferenceOnPaperTraces covers every fixed
// benchmark at 1, 2 and 8 PEs through the eight Figure 4 sizes, with
// one-, four- and eight-word lines.
func TestMultiSizeMatchesReferenceOnPaperTraces(t *testing.T) {
	for _, name := range bench.Names() {
		for _, pes := range []int{1, 2, 8} {
			buf := parityTrace(t, name, pes, pes == 1)
			if buf.Len() > paperPrefix {
				buf = &trace.Buffer{Refs: buf.Refs[:paperPrefix]}
			}
			t.Run(fmt.Sprintf("%s@%d", name, pes), func(t *testing.T) {
				t.Parallel()
				for _, lw := range []int{1, 4, 8} {
					checkMultiSize(t, buf, sizeSweep(pes, lw, figure4Sizes))
				}
			})
		}
	}
}

// TestMultiSizeMatchesReferenceUnderHeavySharing: per PE count, one
// long trace over 8 words (every size holds them all: pure coherence,
// an invalidation for most writes) and two shorter ones over 100 and
// 5000 words through seven sizes from one or two lines up (coherence
// and capacity mixed: lines leave the small sizes while remote copies
// of them live on in the large ones).
func TestMultiSizeMatchesReferenceUnderHeavySharing(t *testing.T) {
	const minInvalidations = 100_000
	sizes := []int{8, 16, 32, 64, 128, 256, 1024}
	for i, tc := range []struct{ pes, n int }{{2, 280_000}, {5, 160_000}, {16, 160_000}, {64, 160_000}} {
		pes, n, seed := tc.pes, tc.n, uint64(10*i)
		t.Run(fmt.Sprintf("%dPE", pes), func(t *testing.T) {
			t.Parallel()
			inval := checkMultiSize(t, sharingTrace(seed+1, pes, 8, 70, n), sizeSweep(pes, 4, sizes[:2]))
			if inval < minInvalidations {
				t.Errorf("%d invalidations at the smallest size, want >= %d: the coherence half is untested", inval, minInvalidations)
			}
			small, large := sharingTrace(seed+2, pes, 100, 50, 25_000), sharingTrace(seed+3, pes, 5000, 30, 25_000)
			checkMultiSize(t, small, sizeSweep(pes, 1, sizes))
			checkMultiSize(t, small, sizeSweep(pes, 4, sizes))
			checkMultiSize(t, large, sizeSweep(pes, 4, sizes))
			checkMultiSize(t, large, sizeSweep(pes, 8, sizes))
		})
	}
}

// TestMultiSizeStructureStaysConsistent cross-checks the bookkeeping the
// kernel relies on after a full replay: per PE and slot, the resident
// count and the LRU finger against the recency list, capacity, the
// table against the list, and the snoop directory against both — under
// each allocation policy and with the policies mixed.
// TestStaleFingerPanics: a full slot whose LRU finger has gone stale
// and points at the list sentinel makes the next fill panic, naming the
// slot, instead of evicting the sentinel and looping in towardHead.
func TestStaleFingerPanics(t *testing.T) {
	s := newMultiSim(Config{PEs: 1, LineWords: 4, Protocol: WriteInBroadcast}, uniform([]int{8, 16}, true))
	for line := range uint32(4) {
		s.Add(trace.Ref{Addr: line * 4, Op: trace.OpRead, Obj: trace.ObjHeap})
	}
	s.pes[0].lru[1] = 0 // slot 1 (16 words, 4 lines) is full
	defer func() {
		if got := recover(); got != staleFinger[1] {
			t.Errorf("panic %v, want %q", got, staleFinger[1])
		}
	}()
	s.Add(trace.Ref{Addr: 4 * 4, Op: trace.OpRead, Obj: trace.ObjHeap})
}

func TestMultiSizeStructureStaysConsistent(t *testing.T) {
	buf := sharingTrace(7, 4, 600, 40, 60_000)
	words := []int{8, 16, 64, 256}
	for _, p := range []Protocol{WriteInBroadcast, Hybrid} {
		for _, policy := range []struct {
			name  string
			sizes []cacheSize
		}{
			{"no-allocate", uniform(words, false)},
			{"allocate", uniform(words, true)},
			{"mixed", []cacheSize{{8, false}, {16, false}, {16, true}, {64, true}, {256, false}}},
		} {
			sizes, wa := policy.sizes, policy.name
			s := newMultiSim(Config{PEs: 4, LineWords: 4, Protocol: p}, sizes)
			s.AddBatch(buf.Refs)
			held := 0
			for pe := range s.pes {
				c := &s.pes[pe]
				var cnt, lru [maxSizes]int32
				for e := c.slab[0].next; e != 0; e = c.slab[e].next {
					ent := c.slab[e]
					held++
					if ent.in == 0 {
						t.Fatalf("%v %s pe %d: line %d is listed in no slot", p, wa, pe, ent.line)
					}
					if c.idx.lookup(ent.line) != e {
						t.Fatalf("%v %s pe %d: line %d is listed but the table does not find it", p, wa, pe, ent.line)
					}
					if s.dir.holders(ent.line)&(1<<uint(pe)) == 0 {
						t.Fatalf("%v %s pe %d: line %d is held but the directory does not know", p, wa, pe, ent.line)
					}
					for b := ent.in; b != 0; b &= b - 1 {
						k := bits.TrailingZeros8(b)
						cnt[k]++
						lru[k] = e
					}
				}
				for k := range sizes {
					if c.cnt[k] != cnt[k] || cnt[k] > s.caps[k] || (cnt[k] > 0 && c.lru[k] != lru[k]) {
						t.Errorf("%v %s pe %d slot %d: cnt %d lru %d, the list says %d and %d (capacity %d)",
							p, wa, pe, k, c.cnt[k], c.lru[k], cnt[k], lru[k], s.caps[k])
					}
				}
			}
			dirBits := 0
			for _, mask := range s.dir.masks {
				dirBits += bits.OnesCount64(mask)
			}
			if dirBits != held {
				t.Errorf("%v %s: directory tracks %d holder bits, caches hold %d lines", p, wa, dirBits, held)
			}
		}
	}
}

// TestMultiSizeSteadyStateAllocsZero: like Sim, a warm multi-size
// structure replays without allocating, by batch, by runs or by
// reference.
func TestMultiSizeSteadyStateAllocsZero(t *testing.T) {
	buf := parityTrace(t, "qsort", 4, false)
	seqBuf := parityTrace(t, "qsort", 1, true)
	for _, p := range []Protocol{WriteInBroadcast, Hybrid, Copyback} {
		refs, pes := buf.Refs, 4
		if p == Copyback {
			refs, pes = seqBuf.Refs, 1
		}
		for _, wa := range []bool{false, true} {
			s := newMultiSim(Config{PEs: pes, LineWords: 4, Protocol: p}, uniform([]int{64, 256, 1024}, wa))
			s.AddBatch(refs) // warm: every size full
			if n := testing.AllocsPerRun(3, func() { s.AddBatch(refs) }); n != 0 {
				t.Errorf("%v wa=%v: batch replay allocates %.0f times per run, want 0", p, wa, n)
			}
			runs := trace.LineRuns(refs, nil)
			if n := testing.AllocsPerRun(3, func() { s.AddRuns(refs, runs) }); n != 0 {
				t.Errorf("%v wa=%v: run replay allocates %.0f times per run, want 0", p, wa, n)
			}
			if n := testing.AllocsPerRun(3, func() {
				for _, r := range refs[:4096] {
					s.Add(r)
				}
			}); n != 0 {
				t.Errorf("%v wa=%v: per-reference replay allocates %.0f times per run, want 0", p, wa, n)
			}
		}
	}
}
