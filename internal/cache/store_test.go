package cache

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestIndexFarAddressesBounded: references at both ends of the 32-bit
// address space and on both sides of the first page boundary replay
// exactly, negative int32 lines included (one-word lines put addresses
// >= 2^31 there), and cost the index a few groups, not a top level
// spanning the address space: building and replaying each simulator
// allocates at most 1 MB.
func TestIndexFarAddressesBounded(t *testing.T) {
	const budget = 1 << 20
	for _, lw := range []int{1, 8} {
		page := uint32(pageLines * lw)
		addrs := []uint32{0, page - 1, page, 0x7FFFFFFF, 0xFFFFFFFF}
		for _, pes := range []int{1, 8} {
			var refs []trace.Ref
			for round := range 3 {
				for pe := range pes {
					for i, a := range addrs {
						refs = append(refs, trace.Ref{
							Addr: a,
							PE:   uint8(pe),
							Op:   trace.Op((round + i + pe) & 1),
							Obj:  trace.ObjType((i + pe) % trace.NumObjTypes),
						})
					}
				}
			}
			buf := &trace.Buffer{Refs: refs}
			for _, p := range []Protocol{WriteInBroadcast, Hybrid} {
				for _, wa := range []bool{false, true} {
					cfg := Config{PEs: pes, LineWords: lw, Protocol: p, WriteAllocate: wa}
					name := fmt.Sprintf("lw%d/%dPE/%v/wa=%v", lw, pes, p, wa)
					for _, assoc := range []int{0, 4} {
						c := cfg
						c.SizeWords, c.Assoc = 8*lw, assoc
						var sim *Sim
						grew := allocated(func() {
							sim = New(c)
							sim.AddBatch(refs)
						})
						if want, _, _, _ := runRef(buf, c, false); sim.Stats() != want {
							t.Errorf("%s assoc=%d: Sim %+v, reference %+v", name, assoc, sim.Stats(), want)
						}
						if grew > budget {
							t.Errorf("%s assoc=%d: Sim allocated %d bytes, want <= %d", name, assoc, grew, budget)
						}
					}
					sizes := []int{2 * lw, 8 * lw}
					var multi *multiSim
					grew := allocated(func() {
						multi = newMultiSim(cfg, uniform(sizes, wa))
						multi.AddBatch(refs)
					})
					for k, size := range sizes {
						c := cfg
						c.SizeWords = size
						if want, _, _, _ := runRef(buf, c, false); multi.stats(k) != want {
							t.Errorf("%s size %d: multi-size %+v, reference %+v", name, size, multi.stats(k), want)
						}
					}
					if grew > budget {
						t.Errorf("%s: multi-size structure allocated %d bytes, want <= %d", name, grew, budget)
					}
				}
			}
		}
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFigure4CellIndexBytes pins the index's memory on the paper's
// cells: over the two structures planSims builds for a Figure 4 cell
// (3 protocols x 8 sizes, the paper's allocation policy) at 8 PEs, the
// page indexes at capacity after the replay take no more bytes than the
// open-addressing tables they replaced, one per protocol and policy.
func TestFigure4CellIndexBytes(t *testing.T) {
	// tableSizeFor is the replaced tables' size rule: the next power of
	// two at or above 2n slots, at least 8.
	tableSizeFor := func(n int) int {
		size := 8
		for size < 2*n {
			size *= 2
		}
		return size
	}
	for _, name := range []string{"qsort", "deriv"} {
		const pes = 8
		buf := parityTrace(t, name, pes, false)
		var cfgs []Config
		for _, p := range []Protocol{WriteInBroadcast, Hybrid, WriteThrough} {
			for _, size := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
				cfgs = append(cfgs, Config{PEs: pes, SizeWords: size, LineWords: 4, Protocol: p, WriteAllocate: PaperWriteAllocate(p, size)})
			}
		}
		units, _ := planSims(cfgs)
		if len(units) != 2 {
			t.Fatalf("%s@%d: %d structures, want 2", name, pes, len(units))
		}
		var got, parent int
		for _, u := range units {
			var sink trace.Sink
			if len(u.sizes) == 1 {
				sink = New(u.cfg)
			} else {
				sink = newMultiSim(u.cfg, u.sizes)
			}
			buf.ReplayAll(sink)
			got += IndexBytes(sink)
			// One 8-byte slot per line and PE, and one 16-byte directory
			// slot per line the whole machine can hold, in a table for
			// each allocation policy's largest size.
			for _, allocate := range []bool{false, true} {
				lines := 0
				for _, sz := range u.sizes {
					if sz.allocate == allocate {
						lines = sz.words / u.cfg.LineWords
					}
				}
				if lines > 0 {
					parent += pes*8*tableSizeFor(lines) + 16*tableSizeFor(pes*lines)
				}
			}
		}
		t.Logf("%s@%d: index %d bytes, replaced tables %d bytes", name, pes, got, parent)
		if got > parent {
			t.Errorf("%s@%d: the page indexes take %d bytes, more than the %d of the tables they replaced", name, pes, got, parent)
		}
	}
}

// TestPageIndexMatchesMap drives one 8-PE index with random sets and
// clears — lines on both sides of page boundaries, of the direct/far
// boundary and of the int32 sign bit, so groups and handle pages are
// made, released and reused — and checks every lookup and every
// holders mask against a map.
func TestPageIndexMatchesMap(t *testing.T) {
	const pes = 8
	ix := newPageIndex(pes)
	views := make([]pageView, pes)
	for pe := range views {
		ix.attach(&views[pe], pe)
	}
	bases := []int32{0, pageLines - 2, 5000, maxDirectPages*pageLines - 2, math.MaxInt32 - 1, -2}
	held := map[[2]int32]int32{}
	s := uint64(1)
	for step := range 50_000 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		pe := int(s % pes)
		line := bases[s>>8%uint64(len(bases))] + int32(s>>16%4)
		key := [2]int32{int32(pe), line}
		if got := views[pe].lookup(line); got != held[key] {
			t.Fatalf("step %d: PE %d line %d looks up %d, want %d", step, pe, line, got, held[key])
		}
		if held[key] != 0 {
			views[pe].clear(line)
			delete(held, key)
		} else {
			held[key] = int32(step + 1)
			views[pe].set(line, int32(step+1))
		}
		var want uint64
		for p := range pes {
			if held[[2]int32{int32(p), line}] != 0 {
				want |= 1 << p
			}
		}
		if got := ix.holders(line); got != want {
			t.Fatalf("step %d: line %d holders %08b, want %08b", step, line, got, want)
		}
	}
}
