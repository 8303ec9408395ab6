package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Byte-parity tests for the parallel encoder: for any stream shape and
// any worker count, ParallelChunkWriter must produce exactly the bytes
// ChunkWriter produces — same header, same frames in the same order,
// same footer, same header back-patch on a seekable writer.

// synthStream builds a deterministic pseudo-random reference stream
// that exercises the codec's shapes: same-PE runs, PE switches, short
// and long address deltas, reads and writes, varied object types.
func synthStream(n, pes int, seed int64) []Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]Ref, n)
	addr := make([]uint32, pes)
	pe := 0
	for i := range refs {
		if rng.Intn(8) == 0 {
			pe = rng.Intn(pes)
		}
		switch rng.Intn(4) {
		case 0:
			addr[pe] += uint32(rng.Intn(4))
		case 1:
			addr[pe] -= uint32(rng.Intn(64))
		default:
			addr[pe] += uint32(rng.Intn(1 << uint(rng.Intn(20))))
		}
		op := OpRead
		if rng.Intn(3) == 0 {
			op = OpWrite
		}
		refs[i] = Ref{
			Addr: addr[pe] & 0x0fffffff,
			PE:   uint8(pe),
			Op:   op,
			Obj:  ObjType(rng.Intn(int(NumObjTypes))),
		}
	}
	return refs
}

// seqBytes encodes refs with the sequential writer.
func seqBytes(t *testing.T, meta Meta, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	cw.AddBatch(refs)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parBytes encodes refs with the parallel writer, mixing delivery
// granularities to vary chunk staging paths.
func parBytes(t *testing.T, meta Meta, refs []Ref, workers int, batch int) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewParallelChunkWriter(&buf, meta, workers)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case batch <= 0: // one reference at a time
		for _, r := range refs {
			cw.Add(r)
		}
	default:
		for len(refs) > 0 {
			n := batch
			if n > len(refs) {
				n = len(refs)
			}
			cw.AddBatch(refs[:n])
			refs = refs[n:]
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelChunkWriterByteParity(t *testing.T) {
	meta := Meta{Benchmark: "synth", PEs: 8, EmulatorVersion: "test"}
	sizes := []int{0, 1, 100, codecChunkRefs - 1, codecChunkRefs, codecChunkRefs + 1, 3*codecChunkRefs + 17}
	for _, n := range sizes {
		refs := synthStream(n, meta.PEs, int64(n)+1)
		want := seqBytes(t, meta, refs)
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{0, 1000, codecChunkRefs, 65536} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/batch=%d", n, workers, batch), func(t *testing.T) {
					got := parBytes(t, meta, refs, workers, batch)
					if !bytes.Equal(got, want) {
						t.Fatalf("parallel bytes differ from sequential: got %d bytes, want %d", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestParallelChunkWriterFilePatch checks the header back-patch path
// (seekable writer): the full file must match the sequential writer's.
func TestParallelChunkWriterFilePatch(t *testing.T) {
	meta := Meta{Benchmark: "synth", PEs: 4, EmulatorVersion: "test"}
	refs := synthStream(2*codecChunkRefs+123, meta.PEs, 7)

	write := func(name string, enc func(f *os.File) error) []byte {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	want := write("seq.rwt", func(f *os.File) error {
		cw, err := NewChunkWriter(f, meta)
		if err != nil {
			return err
		}
		cw.AddBatch(refs)
		return cw.Close()
	})
	got := write("par.rwt", func(f *os.File) error {
		cw, err := NewParallelChunkWriter(f, meta, 3)
		if err != nil {
			return err
		}
		cw.AddBatch(refs)
		return cw.Close()
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("file bytes differ: got %d bytes, want %d", len(got), len(want))
	}

	// And the decoder round-trips the parallel file.
	cr, err := NewChunkReader(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("opening parallel file: %v", err)
	}
	var buf Buffer
	if _, err := cr.Replay(&buf); err != nil {
		t.Fatalf("decoding parallel file: %v", err)
	}
	decoded := slices.Concat(buf.Segments()...)
	if int(cr.Meta().Refs) != len(refs) || len(decoded) != len(refs) {
		t.Fatalf("decoded %d refs (meta %d), want %d", len(decoded), cr.Meta().Refs, len(refs))
	}
	for i := range refs {
		if decoded[i] != refs[i] {
			t.Fatalf("ref %d: got %+v, want %+v", i, decoded[i], refs[i])
		}
	}
}

// TestParallelChunkWriterMeta checks totals and per-PE counts after
// Close match the sequential writer's metadata.
func TestParallelChunkWriterMeta(t *testing.T) {
	meta := Meta{Benchmark: "synth", PEs: 5, EmulatorVersion: "test"}
	refs := synthStream(codecChunkRefs+999, meta.PEs, 11)
	var sb, pb bytes.Buffer
	seq, err := NewChunkWriter(&sb, meta)
	if err != nil {
		t.Fatal(err)
	}
	seq.AddBatch(refs)
	if err := seq.Close(); err != nil {
		t.Fatal(err)
	}
	par, err := NewParallelChunkWriter(&pb, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	par.AddBatch(refs)
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}
	sm, pm := seq.Meta(), par.Meta()
	if pm.Refs != sm.Refs {
		t.Errorf("Refs: got %d, want %d", pm.Refs, sm.Refs)
	}
	for pe := range sm.PerPE {
		if pm.PerPE[pe] != sm.PerPE[pe] {
			t.Errorf("PerPE[%d]: got %d, want %d", pe, pm.PerPE[pe], sm.PerPE[pe])
		}
	}
}

// TestParallelChunkWriterErrors pins the validation errors to the
// sequential writer's messages and checks the pipeline shuts down
// cleanly after one.
func TestParallelChunkWriterErrors(t *testing.T) {
	meta := Meta{Benchmark: "synth", PEs: 2, EmulatorVersion: "test"}

	var buf bytes.Buffer
	cw, err := NewParallelChunkWriter(&buf, meta, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := synthStream(codecChunkRefs, meta.PEs, 3)
	bad[100].PE = 9 // outside declared PEs
	cw.AddBatch(bad)
	// Keep feeding after the poisoned chunk; the writer must not
	// deadlock or panic.
	cw.AddBatch(synthStream(3*codecChunkRefs, meta.PEs, 4))
	err = cw.Close()
	if err == nil || !strings.Contains(err.Error(), "outside the declared") {
		t.Fatalf("Close error = %v, want PE-range error", err)
	}
	if again := cw.Close(); again != err {
		t.Fatalf("second Close = %v, want the same error", again)
	}

	// Add after Close is an error, like the sequential writer.
	var buf2 bytes.Buffer
	cw2, err := NewParallelChunkWriter(&buf2, meta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw2.Close(); err != nil {
		t.Fatal(err)
	}
	cw2.Add(Ref{})
	if cw2.err == nil {
		t.Fatal("Add after Close did not record an error")
	}
}

// TestParallelChunkWriterDeclaredRefs checks the declared-count
// mismatch detection survives the pipeline.
func TestParallelChunkWriterDeclaredRefs(t *testing.T) {
	meta := Meta{Benchmark: "synth", PEs: 2, EmulatorVersion: "test", Refs: 10}
	var buf bytes.Buffer
	cw, err := NewParallelChunkWriter(&buf, meta, 2)
	if err != nil {
		t.Fatal(err)
	}
	cw.AddBatch(synthStream(11, meta.PEs, 5))
	if err := cw.Close(); err == nil || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("Close error = %v, want declared-count mismatch", err)
	}
}
