package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// fuzzCountSink tallies delivered refs and records any PE outside the
// header's declared range.
type fuzzCountSink struct {
	pes   int
	n     int64
	badPE bool
}

func (s *fuzzCountSink) Add(r Ref) {
	s.n++
	if int(r.PE) >= s.pes {
		s.badPE = true
	}
}

// FuzzChunkReader feeds arbitrary bytes to the compact-trace decoder.
// The decoder's contract under hostile input is: never panic, never
// loop forever, and either reject the stream with an error or deliver
// a stream that is internally consistent — every delivered PE within
// the header's range and the footer totals matching what was actually
// delivered. The seeds cover the accept path (a valid trace) and the
// structured-reject paths (truncation, a flipped payload byte, a bare
// magic, an empty stream).
func FuzzChunkReader(f *testing.F) {
	meta := Meta{Benchmark: "fuzz", PEs: 3, EmulatorVersion: "emuF"}
	refs := make([]Ref, 500)
	for i := range refs {
		refs[i] = Ref{
			Addr: uint32(i*37) & 0x0fffffff,
			PE:   uint8(i % meta.PEs),
			Op:   Op(i & 1),
			Obj:  ObjType(i % int(NumObjTypes)),
		}
	}
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, meta)
	if err != nil {
		f.Fatal(err)
	}
	cw.AddBatch(refs)
	if err := cw.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("RWT2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := NewChunkReader(bytes.NewReader(data))
		if err != nil {
			return // rejected at the header: the only requirement is no panic
		}
		declaredPEs := cr.Meta().PEs
		sink := &fuzzCountSink{pes: declaredPEs}
		total, err := cr.Replay(sink)
		if err != nil {
			return // rejected mid-stream: likewise
		}
		if sink.badPE {
			t.Fatalf("accepted stream delivered a ref with PE >= declared %d", declaredPEs)
		}
		if total != sink.n {
			t.Fatalf("Replay returned %d refs but delivered %d", total, sink.n)
		}
		if got := cr.Meta().Refs; got != total {
			t.Fatalf("accepted stream's meta says %d refs, delivered %d", got, total)
		}
	})
}

// decodeChunkReference is decodeChunk's general loop alone, without the
// fast path: the reference FuzzDecodeChunkMatchesReference holds the
// real decoder to.
func decodeChunkReference(payload []byte, refCount, pes int, perPE []int64) ([]Ref, error) {
	refs := make([]Ref, refCount)
	var prevAddr [256]uint32
	prevPE := -1
	pos := 0
	for i := range refs {
		if pos >= len(payload) {
			return nil, fmt.Errorf("payload exhausted at ref %d of %d", i, refCount)
		}
		tag := payload[pos]
		pos++
		if tag&0x80 != 0 {
			return nil, fmt.Errorf("reserved tag bit set at ref %d", i)
		}
		pe := prevPE
		if tag&tagSamePE == 0 {
			if pos >= len(payload) {
				return nil, fmt.Errorf("payload exhausted reading PE at ref %d", i)
			}
			pe = int(payload[pos])
			pos++
			prevPE = pe
		}
		if pe < 0 || pe >= pes {
			return nil, fmt.Errorf("PE %d out of range at ref %d", pe, i)
		}
		delta, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("bad address varint at ref %d", i)
		}
		pos += n
		addr := int64(prevAddr[pe]) + unzigzag(delta)
		if addr < 0 || addr > int64(^uint32(0)) {
			return nil, fmt.Errorf("address %d out of range at ref %d", addr, i)
		}
		op := OpRead
		if tag&tagOpWrite != 0 {
			op = OpWrite
		}
		refs[i] = Ref{
			Addr: uint32(addr),
			PE:   uint8(pe),
			Op:   op,
			Obj:  ObjType(tag >> 1 & 0x1f),
		}
		prevAddr[pe] = uint32(addr)
		perPE[pe]++
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%d trailing bytes after %d refs", len(payload)-pos, refCount)
	}
	return refs, nil
}

// FuzzDecodeChunkMatchesReference is the chunk decoder's differential
// check: on arbitrary payload bytes, reference counts and PE counts,
// decodeChunk and its general loop alone (decodeChunkReference) accept
// and reject the same inputs with the same error, and what they accept
// decodes to the same references and per-PE counts, and to the runs
// LineRuns finds in those references, whether or not the decoder marks
// them. The seeds are a
// valid chunk of every delta width, that chunk truncated, with a
// flipped byte and under a PE count one of its references exceeds, and
// an address that a ±63 delta — the widest one-byte one — takes below 0
// and above the 32-bit range.
func FuzzDecodeChunkMatchesReference(f *testing.F) {
	const pes = 4
	var refs []Ref
	addr := uint32(1000)
	for i := 0; i < 600; i++ {
		// Mostly small steps on long same-PE runs, with jumps of every
		// varint width and PE switches mixed in.
		switch step := []int64{1, -2, 3, 63, -64, 200, -9000, 1 << 20, -(1 << 19), 1 << 29}[i*7%10]; {
		case int64(addr)+step >= 0:
			addr = uint32(int64(addr) + step)
		default:
			addr += uint32(-step)
		}
		refs = append(refs, Ref{Addr: addr, PE: uint8(i / 5 % pes), Op: Op(i & 1), Obj: ObjType(i % int(NumObjTypes))})
	}
	buf := make([]byte, len(refs)*maxEncodedRefBytes)
	var counts [256]int64
	n, err := encodePayload(refs, pes, buf, &counts)
	if err != nil {
		f.Fatal(err)
	}
	valid := buf[:n]
	f.Add(valid, uint16(len(refs)), uint8(pes-1))
	f.Add(valid[:n/2], uint16(len(refs)), uint8(pes-1))
	flipped := bytes.Clone(valid)
	flipped[n/3] ^= 0x40
	f.Add(flipped, uint16(len(refs)), uint8(pes-1))
	f.Add(valid, uint16(len(refs)), uint8(pes-2))

	// PE 0 at address 10, then a same-PE delta of -63, then padding so
	// the bad reference is not in the payload's tail.
	pad := bytes.Repeat([]byte{tagSamePE, 0}, 8)
	under := append([]byte{0, 0, byte(zigzag(10))}, tagSamePE, byte(zigzag(-63)))
	f.Add(append(under, pad...), uint16(2+len(pad)/2), uint8(0))
	// PE 0 at the top of the 32-bit range less 10, then +63.
	over := appendUvarint([]byte{0, 0}, zigzag(int64(^uint32(0))-10))
	over = append(over, tagSamePE, byte(zigzag(63)))
	f.Add(append(over, pad...), uint16(2+len(pad)/2), uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, refCount uint16, pesMinus1 uint8) {
		// A reference takes at least two bytes, so larger counts only
		// cost the allocation before "payload exhausted".
		n, pes := int(refCount)%(len(payload)+2), int(pesMinus1)+1
		gotPE, wantPE := make([]int64, pes), make([]int64, pes)
		got := make([]Ref, n)
		runs, gotErr := decodeChunk(got, make([]int32, n+1), payload, pes, gotPE)
		want, wantErr := decodeChunkReference(payload, n, pes, wantPE)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodeChunk: %v; reference: %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !slices.Equal(got, want) {
			t.Fatal("decodeChunk and the reference decoded different references")
		}
		if !slices.Equal(gotPE, wantPE) {
			t.Fatalf("per-PE counts %v, reference %v", gotPE, wantPE)
		}
		if wantRuns := LineRuns(want, nil); !slices.Equal(runs, wantRuns) {
			t.Fatalf("decoded runs %v, LineRuns %v", runs, wantRuns)
		}
		// Without run storage the decoder decodes the same and marks none.
		again := make([]Ref, n)
		if runs, err := decodeChunk(again, nil, payload, pes, make([]int64, pes)); err != nil || runs != nil || !slices.Equal(again, want) {
			t.Fatalf("without runs: %v, runs %v, same references %t", err, runs, slices.Equal(again, want))
		}
	})
}
