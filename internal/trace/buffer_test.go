package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// TestBufferNeverCopiesToGrow captures 4 M references the way the
// engine delivers them (staging-buffer batches, then single Adds) into
// a Buffer with no hint. Growing copies nothing: the capture allocates
// each reference's 8 bytes once plus at most one segment of slack, and
// no segment's array moves once it holds a reference.
func TestBufferNeverCopiesToGrow(t *testing.T) {
	const total = 4_000_000
	batch := make([]Ref, 65536)
	firsts := make([]*Ref, 0, 1024) // each segment's array, as first seen
	var b Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < total; {
		if total-n >= len(batch) {
			for i := range batch {
				batch[i].Addr = uint32(n + i)
			}
			b.AddBatch(batch)
			n += len(batch)
		} else {
			b.Add(Ref{Addr: uint32(n)})
			n++
		}
		segs := b.Segments()
		for i, p := range firsts {
			if &segs[i][0] != p {
				t.Fatalf("after %d refs segment %d moved", n, i)
			}
		}
		for _, seg := range segs[len(firsts):] {
			firsts = append(firsts, &seg[0])
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*total+8*segMaxRefs); got > limit {
		t.Errorf("capturing %d refs allocated %d bytes, want at most %d (the refs and one segment)", total, got, limit)
	}
	if b.Len() != total {
		t.Fatalf("buffer holds %d refs, want %d", b.Len(), total)
	}
	for i, r := range slices.Concat(b.Segments()...) {
		if r.Addr != uint32(i) {
			t.Fatalf("ref %d has address %d: growth lost data", i, r.Addr)
		}
	}
}

// oddChunks encodes refs with chunks of the given sizes in turn, where
// ChunkWriter always cuts at codecChunkRefs.
func oddChunks(t *testing.T, refs []Ref, sizes ...int) []byte {
	t.Helper()
	var out bytes.Buffer
	cw, err := NewChunkWriter(&out, Meta{PEs: 8, EmulatorVersion: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(refs) > 0; i++ {
		k := min(sizes[i%len(sizes)], len(refs))
		cw.encodeChunk(refs[:k])
		refs = refs[k:]
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestBufferSegmentBoundaries builds Buffers of lengths around the
// segment boundaries, with single Adds, with batches that straddle the
// boundaries and into an exact hint, and reads each back through every
// read path: Replay into a batch and a non-batch sink, ReplayAll behind
// a FanOut of RunSinks (every reference once, in order, each chunk with
// its LineRuns, every full chunk sent from the Buffer's own segments),
// WriteCompact and ReadCompact, and ChunkReader.Replay into a Buffer
// from default chunks and from chunks of odd sizes.
func TestBufferSegmentBoundaries(t *testing.T) {
	const seg = segMinRefs
	for _, n := range []int{0, 1, seg - 1, seg, seg + 1, 3*seg + 5} {
		want := runsStream(n)
		builds := map[string]*Buffer{"Add": {}, "AddBatch": {}, "hinted": NewBuffer(n)}
		for _, r := range want {
			builds["Add"].Add(r)
		}
		for rest := want; len(rest) > 0; {
			k := min(3001, len(rest)) // straddles every boundary
			builds["AddBatch"].AddBatch(rest[:k])
			builds["hinted"].AddBatch(rest[:k])
			rest = rest[k:]
		}
		for name, b := range builds {
			label := fmt.Sprintf("%d refs by %s", n, name)
			checkSegments(t, label, b, name == "hinted")
			if b.Len() != n {
				t.Fatalf("%s: Len %d", label, b.Len())
			}

			batch, plain := &batchRecordSink{}, &recordSink{}
			b.Replay(batch)
			b.Replay(plain)
			sameRefs(t, label+", Replay batch sink", batch.refs, want)
			sameRefs(t, label+", Replay plain sink", plain.refs, want)
			if segs := len(b.Segments()); batch.batches != segs {
				t.Errorf("%s: Replay gave %d batches for %d segments", label, batch.batches, segs)
			}

			consumers := []*runCheckSink{{}, {slow: true}}
			b.ReplayAll(consumers[0], consumers[1])
			for i, c := range consumers {
				sameRefs(t, fmt.Sprintf("%s, ReplayAll consumer %d", label, i), c.refs, want)
				if c.bad != 0 {
					t.Errorf("%s: consumer %d got %d chunks with wrong runs", label, i, c.bad)
				}
				for j, p := range c.chunkAt[:n/defaultChunkRefs] {
					if !inSegment(b, p) {
						t.Errorf("%s: full chunk %d was copied, not sent from a segment", label, j)
					}
				}
			}

			var enc bytes.Buffer
			if err := b.WriteCompact(&enc, Meta{PEs: 8}); err != nil {
				t.Fatal(err)
			}
			back, _, err := ReadCompact(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("%s: ReadCompact: %v", label, err)
			}
			sameRefs(t, label+", WriteCompact/ReadCompact", slices.Concat(back.Segments()...), want)
			checkSegments(t, label+", ReadCompact", back, true)
		}

		for _, sizes := range [][]int{{codecChunkRefs}, {5000, 10000, 3}} {
			label := fmt.Sprintf("%d refs in chunks of %v", n, sizes)
			var b Buffer
			replayEncoded(t, oddChunks(t, want, sizes...), &b)
			sameRefs(t, label, slices.Concat(b.Segments()...), want)
			checkNonEmpty(t, label, &b)
		}

		// A chunk that passes its CRC but fails to decode, too large
		// for the tail, leaves the segment opened for it out of view.
		label := fmt.Sprintf("%d refs, then a chunk that fails to decode", n)
		var bad bytes.Buffer
		cw, err := NewChunkWriter(&bad, Meta{PEs: 8})
		if err != nil {
			t.Fatal(err)
		}
		cw.AddBatch(want)
		cw.flushChunk()
		junk := bytes.Repeat([]byte{0x80}, 40_000) // tags with the reserved bit set
		cw.w.Write(chunkFrame(len(junk), junk))
		cw.w.Write(junk)
		cw.Close()
		cr, err := NewChunkReader(bytes.NewReader(bad.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var partial Buffer
		if _, err := cr.Replay(&partial); err == nil {
			t.Fatalf("%s: a chunk of bad tags decoded", label)
		}
		if got := slices.Concat(partial.Segments()...); partial.Len() != n || !slices.Equal(got, want) {
			t.Errorf("%s: after a failed decode the view holds %d refs, Len %d, want the %d before", label, len(got), partial.Len(), n)
		}
		checkNonEmpty(t, label, &partial)
	}
}

// inSegment reports whether p points into one of b's segments.
func inSegment(b *Buffer, p *Ref) bool {
	for _, s := range b.Segments() {
		for i := range s {
			if &s[i] == p {
				return true
			}
		}
	}
	return false
}

func checkNonEmpty(t *testing.T, label string, b *Buffer) {
	t.Helper()
	for i, s := range b.Segments() {
		if len(s) == 0 {
			t.Errorf("%s: segment %d is empty", label, i)
		}
	}
}

// checkSegments checks b's segments against the schedule: every one
// holds a reference, is full but for the last, starts on a chunk
// boundary and, unless b was hinted, has the schedule's size. An exact
// hint leaves no free slot.
func checkSegments(t *testing.T, label string, b *Buffer, hinted bool) {
	t.Helper()
	checkNonEmpty(t, label, b)
	segs, at := b.Segments(), 0
	for i, s := range segs {
		if i < len(segs)-1 && len(s) != cap(s) {
			t.Errorf("%s: segment %d holds %d of %d", label, i, len(s), cap(s))
		}
		if at%codecChunkRefs != 0 {
			t.Errorf("%s: segment %d starts at %d, off a chunk boundary", label, i, at)
		}
		if want := segMinRefs << min(i, segDoublings); !hinted && cap(s) != want {
			t.Errorf("%s: segment %d has room for %d, want %d", label, i, cap(s), want)
		}
		at += len(s)
	}
	if hinted && len(segs) > 0 && cap(segs[len(segs)-1]) != len(segs[len(segs)-1]) {
		t.Errorf("%s: an exact hint left %d free slots", label, cap(segs[len(segs)-1])-len(segs[len(segs)-1]))
	}
}
