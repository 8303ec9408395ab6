package trace

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// synthTrace builds a deterministic pseudo-trace with the statistical
// shape of a real RAP-WAM trace: runs of same-PE references with mostly
// small address deltas, occasional far jumps, all object types.
func synthTrace(n, pes int) []Ref {
	refs := make([]Ref, 0, n)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 24
	}
	addrs := make([]uint32, pes)
	for i := range addrs {
		addrs[i] = uint32(0x10000 * (i + 1))
	}
	pe := 0
	for len(refs) < n {
		if next()%13 == 0 {
			pe = int(next() % uint64(pes))
		}
		a := addrs[pe]
		switch next() % 8 {
		case 0:
			a -= uint32(next() % 7)
		case 1:
			a = uint32(next()) // far jump
		default:
			a += uint32(next() % 9)
		}
		addrs[pe] = a
		op := OpRead
		if next()%3 == 0 {
			op = OpWrite
		}
		refs = append(refs, Ref{
			Addr: a,
			PE:   uint8(pe),
			Op:   op,
			Obj:  ObjType(1 + next()%uint64(NumObjTypes-1)),
		})
	}
	return refs
}

func encodeCompact(t *testing.T, refs []Ref, meta Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, meta)
	if err != nil {
		t.Fatalf("NewChunkWriter: %v", err)
	}
	cw.AddBatch(refs)
	if err := cw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestCompactRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, codecChunkRefs, codecChunkRefs + 1, 3*codecChunkRefs + 1234} {
		refs := synthTrace(n, 8)
		meta := Meta{Benchmark: "synth", PEs: 8, Sequential: false, EmulatorVersion: "test1"}
		enc := encodeCompact(t, refs, meta)

		cr, err := NewChunkReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("n=%d: NewChunkReader: %v", n, err)
		}
		got := &Buffer{}
		total, err := cr.Replay(got)
		if err != nil {
			t.Fatalf("n=%d: Replay: %v", n, err)
		}
		if total != int64(n) {
			t.Fatalf("n=%d: replayed %d refs", n, total)
		}
		decoded := slices.Concat(got.Segments()...)
		if len(decoded) != n {
			t.Fatalf("n=%d: decoded %d refs", n, len(decoded))
		}
		for i := range refs {
			if decoded[i] != refs[i] {
				t.Fatalf("n=%d: ref %d: got %v want %v", n, i, decoded[i], refs[i])
			}
		}
		m := cr.Meta()
		if m.Benchmark != "synth" || m.PEs != 8 || m.Sequential || m.EmulatorVersion != "test1" {
			t.Fatalf("n=%d: meta mismatch: %+v", n, m)
		}
		if m.Refs != int64(n) {
			t.Fatalf("n=%d: meta.Refs = %d", n, m.Refs)
		}
		var perPE [8]int64
		for _, r := range refs {
			perPE[r.PE]++
		}
		for pe, want := range perPE {
			if m.PerPE[pe] != want {
				t.Fatalf("n=%d: PerPE[%d] = %d, want %d", n, pe, m.PerPE[pe], want)
			}
		}
	}
}

// TestCompactRoundTripSingleRefs checks the non-batch encode path and a
// non-batch decode sink.
func TestCompactRoundTripSingleRefs(t *testing.T) {
	refs := synthTrace(10000, 3)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, Meta{Benchmark: "one", PEs: 3, EmulatorVersion: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		cw.Add(r)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []Ref
	n, err := cr.Replay(addFunc(func(r Ref) { got = append(got, r) }))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(refs)) || len(got) != len(refs) {
		t.Fatalf("decoded %d/%d refs", n, len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: got %v want %v", i, got[i], refs[i])
		}
	}
}

// TestParallelChunkWriterByteParity pins the contract of the deprecated
// NewParallelChunkWriter forwarder, which cmd/rapwambench's encoder probe
// still calls: at any worker count and any delivery granularity (one
// reference at a time, or batches smaller than, equal to and larger
// than a chunk) its writer produces exactly the bytes of a single
// AddBatch into NewChunkWriter. The test goes with the forwarder.
func TestParallelChunkWriterByteParity(t *testing.T) {
	meta := Meta{Benchmark: "synth", PEs: 8, EmulatorVersion: "test"}
	sizes := []int{0, 1, 100, codecChunkRefs - 1, codecChunkRefs, codecChunkRefs + 1, 3*codecChunkRefs + 17}
	for _, n := range sizes {
		refs := synthTrace(n, meta.PEs)
		want := encodeCompact(t, refs, meta)
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{0, 1000, codecChunkRefs, 65536} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/batch=%d", n, workers, batch), func(t *testing.T) {
					var buf bytes.Buffer
					cw, err := NewParallelChunkWriter(&buf, meta, workers)
					if err != nil {
						t.Fatal(err)
					}
					if batch == 0 {
						for _, r := range refs {
							cw.Add(r)
						}
					} else {
						for rest := refs; len(rest) > 0; {
							k := min(batch, len(rest))
							cw.AddBatch(rest[:k])
							rest = rest[k:]
						}
					}
					if err := cw.Close(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf.Bytes(), want) {
						t.Fatalf("got %d bytes, want %d: encodings differ", buf.Len(), len(want))
					}
				})
			}
		}
	}
}

// addFunc adapts a function to Sink without implementing BatchSink.
type addFunc func(Ref)

func (f addFunc) Add(r Ref) { f(r) }

// TestCompactReadEntryPoints reads one trace through both read entry
// points: ReadCompact materializes it, ChunkReader.Replay streams it
// into a BatchSink.
func TestCompactReadEntryPoints(t *testing.T) {
	refs := synthTrace(5000, 4)
	enc := encodeCompact(t, refs, Meta{Benchmark: "entry", PEs: 4, EmulatorVersion: "t"})

	b, meta, err := ReadCompact(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("ReadCompact: %v", err)
	}
	if got := slices.Concat(b.Segments()...); !slices.Equal(got, refs) || meta.Refs != int64(len(refs)) {
		t.Fatalf("ReadCompact decoded %d refs (header %d), want %d", len(got), meta.Refs, len(refs))
	}

	cr, err := NewChunkReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var c Counter
	n, err := cr.Replay(&c)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != int64(len(refs)) || c.Total() != int64(len(refs)) {
		t.Fatalf("Replay delivered %d refs, counter %d", n, c.Total())
	}
}

func TestCompactSize(t *testing.T) {
	refs := synthTrace(100000, 8)
	enc := encodeCompact(t, refs, Meta{Benchmark: "size", PEs: 8, EmulatorVersion: "t"})
	fixedBytes := 8 * len(refs)
	if len(enc) >= fixedBytes {
		t.Fatalf("compact encoding %d bytes is not smaller than 8-byte records' %d", len(enc), fixedBytes)
	}
	t.Logf("compact: %.2f bytes/ref (fixed records: 8)", float64(len(enc))/float64(len(refs)))
}

// TestCompactCorruption flips every byte of a small encoded trace in
// turn and requires the decoder to reject (or decode identically — CRCs
// do not cover framing varints' redundant encodings, but any accepted
// decode must be correct).
func TestCompactCorruption(t *testing.T) {
	refs := synthTrace(2000, 4)
	enc := encodeCompact(t, refs, Meta{Benchmark: "corrupt", PEs: 4, EmulatorVersion: "t"})
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		cr, err := NewChunkReader(bytes.NewReader(mut))
		if err != nil {
			continue // rejected at header parse: good
		}
		got := &Buffer{}
		if _, err := cr.Replay(got); err != nil {
			continue // rejected during decode: good
		}
		// Accepted: must be byte-for-byte the original stream.
		decoded := slices.Concat(got.Segments()...)
		if len(decoded) != len(refs) {
			t.Fatalf("flip at byte %d accepted with %d refs (want %d)", i, len(decoded), len(refs))
		}
		for j := range refs {
			if decoded[j] != refs[j] {
				t.Fatalf("flip at byte %d accepted with wrong ref %d", i, j)
			}
		}
	}
}

func TestCompactTruncation(t *testing.T) {
	refs := synthTrace(20000, 4)
	enc := encodeCompact(t, refs, Meta{Benchmark: "trunc", PEs: 4, EmulatorVersion: "t"})
	for _, cut := range []int{1, 3, 10, 100, len(enc) / 2, len(enc) - 1} {
		if _, _, err := ReadCompact(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("ReadCompact: truncation at %d of %d bytes not detected", cut, len(enc))
		}
		cr, err := NewChunkReader(bytes.NewReader(enc[:cut]))
		if err != nil {
			continue // truncated inside the header: good
		}
		if _, err := cr.Replay(&Buffer{}); err == nil {
			t.Fatalf("truncation at %d of %d bytes not detected", cut, len(enc))
		}
	}
}

func TestCompactRejectsWrongVersion(t *testing.T) {
	enc := encodeCompact(t, synthTrace(10, 2), Meta{PEs: 2, EmulatorVersion: "t"})
	enc[4] = CodecVersion + 1 // version byte follows the 4-byte magic
	if _, err := NewChunkReader(bytes.NewReader(enc)); err == nil {
		t.Fatal("future codec version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestChunkWriterRejectsOutOfRange: a writer fed what its header does
// not allow fails at Close with the reason, and a second Close returns
// the same error.
func TestChunkWriterRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		refs int64 // the header's declared count (0: unknown)
		feed func(cw *ChunkWriter)
		want string
	}{
		{"pe-outside-header", 0, func(cw *ChunkWriter) {
			cw.Add(Ref{Addr: 1, PE: 5}) // PE outside the declared 2
			// Feeding on after the poisoned chunk neither panics nor
			// replaces the error.
			cw.AddBatch(synthTrace(3*codecChunkRefs, 2))
		}, "reference PE 5 outside the declared 2 PEs"},
		{"count-differs-from-header", 10, func(cw *ChunkWriter) {
			cw.AddBatch(synthTrace(11, 2))
		}, "header declared 10 refs, wrote 11"},
		{"add-after-close", 0, func(cw *ChunkWriter) {
			if err := cw.Close(); err != nil {
				t.Fatalf("Close of an empty trace: %v", err)
			}
			cw.Add(Ref{})
		}, "Add after Close"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			cw, err := NewChunkWriter(&buf, Meta{PEs: 2, EmulatorVersion: "t", Refs: tc.refs})
			if err != nil {
				t.Fatal(err)
			}
			tc.feed(cw)
			err = cw.Close()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Close = %v, want an error containing %q", err, tc.want)
			}
			if again := cw.Close(); again != err {
				t.Fatalf("second Close = %v, want the same error %v", again, err)
			}
		})
	}
}

// TestReplayAllocatesNoBatchPerChunk: no sink is handed a batch of its
// own per chunk. A Buffer gets each chunk decoded into its tail, a
// FanOut into its ring, and any other sink one reused batch, a RunSink
// with one reused run buffer beside it. Replaying 16 chunks into
// Discard, a Counter or a lone RunSink allocates what 2 chunks do; into
// a FanOut, 2 chunks plus the ring slots 2 chunks leave unmade (a chunk
// and a run buffer for each of the Depth+2 slots but the 2 used); with
// ReadCompact, 2 chunks plus the Buffer segments they leave unmade
// (16 chunks fill segments of 1, 2, 4, 8 and the hint's last 1 chunk,
// 2 chunks two of 1) and the two regrowths of the list that holds them.
func TestReplayAllocatesNoBatchPerChunk(t *testing.T) {
	chunk := synthTrace(codecChunkRefs, 4)
	encode := func(chunks int) []byte {
		var refs []Ref
		for range chunks {
			refs = append(refs, chunk...)
		}
		// The header declares the count, as a stored trace's does, so
		// ReadCompact sizes the Buffer once.
		return encodeCompact(t, refs, Meta{PEs: 4, EmulatorVersion: "t", Refs: int64(len(refs))})
	}
	replay := func(enc []byte, sink Sink) error {
		cr, err := NewChunkReader(bytes.NewReader(enc))
		if err == nil {
			_, err = cr.Replay(sink)
		}
		return err
	}
	few, many := encode(2), encode(16)
	for _, tc := range []struct {
		name  string
		load  func(enc []byte) error
		slack float64 // allocations 16 chunks may make past 2 chunks'
	}{
		{"Discard", func(enc []byte) error { return replay(enc, Discard) }, 0},
		{"Counter", func(enc []byte) error { return replay(enc, new(Counter)) }, 0},
		{"RunSink", func(enc []byte) error { return replay(enc, &countRunSink{}) }, 0},
		{"FanOut", func(enc []byte) error {
			f := NewFanOut(FanOutConfig{}, &countRunSink{}, &countRunSink{})
			err := replay(enc, f)
			f.Close()
			return err
		}, 2 * (defaultDepth + 2 - 2)},
		{"ReadCompact", func(enc []byte) error {
			_, _, err := ReadCompact(bytes.NewReader(enc))
			return err
		}, (5 - 2) + 2},
	} {
		allocs := func(enc []byte) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := tc.load(enc); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(few), allocs(many); b > a+tc.slack {
			t.Errorf("%s: %.0f allocations for 2 chunks, %.0f for 16: they grow with the chunks", tc.name, a, b)
		}
	}
}

func TestReplayTwiceRejected(t *testing.T) {
	enc := encodeCompact(t, synthTrace(10, 2), Meta{PEs: 2, EmulatorVersion: "t"})
	cr, err := NewChunkReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Replay(Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Replay(Discard); err == nil {
		t.Fatal("second Replay accepted")
	}
}
