package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// stackDistances is a Mattson stack-distance pass (Mattson, Gecsei,
// Slutz and Traiger, "Evaluation Techniques for Storage Hierarchies",
// IBM Systems Journal 9(2), 1970) over one PE's references, written
// from the paper and sharing nothing with multiSim. It returns, per
// operation, a histogram over the depth d (1-based, in lines) of each
// reference's line in the LRU stack, with maxLines+1 for a line deeper
// than maxLines or absent: a fully associative LRU cache of C <=
// maxLines lines misses exactly the references with d > C.
//
// A reference that allocates runs the update for a priority stack: its
// line goes on top and, at each depth above the line's old one, the
// less recently used of the carried line and the line there moves
// down. A write that does not allocate changes no cache's contents; it
// only becomes the most recent use of its line in the caches that hold
// it, so the stack keeps its order and only the line's recency moves.
func stackDistances(refs []trace.Ref, lineShift uint, maxLines int, writeAllocate bool) (reads, writes []int64) {
	reads, writes = make([]int64, maxLines+2), make([]int64, maxLines+2)
	var stack []int32       // stack[0] is the top
	last := map[int32]int{} // a line's latest reference
	for t, r := range refs {
		line := int32(r.Addr >> lineShift)
		n := slices.Index(stack, line) // the line's depth − 1
		d := n + 1
		if n < 0 {
			n, d = len(stack), maxLines+1
		}
		if r.Op == trace.OpRead {
			reads[d]++
		} else {
			writes[d]++
		}
		if r.Op == trace.OpRead || writeAllocate {
			if n == len(stack) && n < maxLines { // absent, and room to keep it
				stack = append(stack, 0)
			}
			carry := line
			for i := 0; i < n; i++ {
				if i == 0 || last[stack[i]] < last[carry] {
					stack[i], carry = carry, stack[i]
				}
			}
			if n < len(stack) {
				stack[n] = carry
			}
		}
		last[line] = t
	}
	return reads, writes
}

// TestMultiSizeMatchesStackDistances holds the multi-size kernel, fed
// per reference and by same-line runs, to the stack-distance histograms
// on every paper benchmark's one-PE trace, where no coherence acts: at
// every Figure 4 size the read and write misses are the histograms'
// tails, under both allocation policies.
func TestMultiSizeMatchesStackDistances(t *testing.T) {
	maxLines := figure4Sizes[len(figure4Sizes)-1] / 4
	for _, name := range bench.Names() {
		buf := parityTrace(t, name, 1, true)
		refs := refsOf(buf)[:min(buf.Len(), paperPrefix)]
		for _, wa := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/allocate=%v", name, wa), func(t *testing.T) {
				t.Parallel()
				reads, writes := stackDistances(refs, 2, maxLines, wa)
				cfg := Config{PEs: 1, LineWords: 4, Protocol: Copyback, WriteAllocate: wa}
				perRef, byRuns := newMultiSim(cfg, uniform(figure4Sizes, wa)), newMultiSim(cfg, uniform(figure4Sizes, wa))
				perRef.AddBatch(refs)
				byRuns.AddRuns(refs, trace.LineRuns(refs, nil))
				for k, size := range figure4Sizes {
					var wantR, wantW int64
					for d := size/4 + 1; d <= maxLines+1; d++ {
						wantR += reads[d]
						wantW += writes[d]
					}
					for _, s := range []*multiSim{perRef, byRuns} {
						if st := s.stats(k); st.ReadMisses != wantR || st.WriteMisses != wantW {
							t.Errorf("%d words: read/write misses %d/%d, stack distances %d/%d", size, st.ReadMisses, st.WriteMisses, wantR, wantW)
						}
					}
				}
			})
		}
	}
}
