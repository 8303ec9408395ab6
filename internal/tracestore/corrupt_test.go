package tracestore

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/objcodec"
	"repro/internal/storage"
	"repro/internal/trace"
)

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(trace.Ref)

func (f sinkFunc) Add(r trace.Ref) { f(r) }

// fillCell writes the canonical synthetic trace + sidecar into s.
func fillCell(t *testing.T, s *Store, k Key) []trace.Ref {
	t.Helper()
	refs := synthRefs(30000, k.PEs)
	if err := s.Put(k, func(sink trace.Sink) error {
		for _, r := range refs {
			sink.Add(r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSidecar(k, &result{Refs: int64(len(refs))}); err != nil {
		t.Fatal(err)
	}
	return refs
}

// loadRefs fully decodes the stored cell.
func loadRefs(t *testing.T, s *Store, k Key) []trace.Ref {
	t.Helper()
	buf, _, err := s.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Ref
	buf.Replay(sinkFunc(func(r trace.Ref) { out = append(out, r) }))
	return out
}

// TestCorruptionMatrix flips one byte at several structurally distinct
// offsets of a stored trace — header, early chunk, mid chunk, footer —
// and requires the same outcome every time: the read fails with a
// *CorruptError that also reads as a miss, the damaged object moves to
// quarantine/ (counted), and regenerating the cell restores reads
// bit-identically. Corruption costs latency, never correctness.
func TestCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	want := fillCell(t, s, k)
	pristine, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	size := len(pristine)
	offsets := map[string]int{
		"header":      5,
		"early-chunk": 120,
		"mid-chunk":   size / 2,
		"late-chunk":  size - size/8,
		"footer":      size - 4,
	}
	for name, off := range offsets {
		t.Run(name, func(t *testing.T) {
			// Restore the pristine object, then damage one byte.
			if err := os.WriteFile(s.Path(k), pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			damaged := append([]byte(nil), pristine...)
			damaged[off] ^= 0x40
			if err := os.WriteFile(s.Path(k), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()

			_, _, err := s.Load(k)
			if err == nil {
				t.Fatalf("flipping byte %d read back cleanly", off)
			}
			if !IsCorrupt(err) {
				t.Fatalf("flipping byte %d: not a CorruptError: %v", off, err)
			}
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("corrupt read must double as a miss for heal loops: %v", err)
			}
			if _, err := os.Stat(s.Path(k)); !os.IsNotExist(err) {
				t.Fatal("damaged object still in place (not quarantined)")
			}
			qdir := filepath.Join(dir, "quarantine")
			entries, _ := os.ReadDir(qdir)
			if len(entries) == 0 {
				t.Fatal("quarantine directory is empty")
			}
			if got := s.Stats().Quarantines; got != 1 {
				t.Fatalf("Quarantines = %d, want 1", got)
			}

			// Heal: regenerate and read back bit-identically.
			fillCell(t, s, k)
			got := loadRefs(t, s, k)
			if len(got) != len(want) {
				t.Fatalf("healed cell has %d refs, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("healed ref %d differs: %+v vs %+v", i, got[i], want[i])
				}
			}
			os.RemoveAll(qdir)
		})
	}
}

func TestTruncatedTraceQuarantines(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	fillCell(t, s, k)
	pristine, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	// The torn-write crash model: only a prefix hit the disk.
	if err := os.WriteFile(s.Path(k), pristine[:len(pristine)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replay(k, trace.Discard); !IsCorrupt(err) {
		t.Fatalf("torn trace replay: %v", err)
	}
	if s.Has(k) {
		t.Fatal("quarantined cell still reports Has")
	}
}

func TestCorruptSidecarQuarantines(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	fillCell(t, s, k)
	side := filepath.Join(s.Dir(), k.stem()+".run.rwo1")
	if err := os.WriteFile(side, []byte("not an object"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err := s.LoadSidecar(k, new(result))
	if ok || err != nil {
		t.Fatalf("corrupt sidecar must read as an absent sidecar: ok=%v err=%v", ok, err)
	}
	if got := s.Stats().Quarantines; got != 1 {
		t.Fatalf("Quarantines = %d, want 1", got)
	}
	// The trace itself is untouched.
	if !s.Has(k) {
		t.Fatal("sidecar quarantine took the trace with it")
	}
}

// TestSidecarSilentFlipQuarantines pins the sidecar checksum: a bit
// flip in a payload varint turns one number into another and still
// decodes, so without the envelope checksum it would read back as
// wrong-but-plausible statistics.
func TestSidecarSilentFlipQuarantines(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	fillCell(t, s, k)
	side := filepath.Join(s.Dir(), k.stem()+".run.rwo1")
	data, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	// The last payload byte is the sidecar's Misses, a one-byte varint:
	// 0 → 1.
	data[len(data)-1] ^= 0x02
	d := objcodec.NewDecoder(data[objectHeaderLen:])
	var v result
	if kind := d.String(); kind != SidecarKind {
		t.Fatalf("payload kind %q", kind)
	}
	if v.Decode(d); d.Finish() != nil || v.Misses != 1 {
		t.Fatalf("flipped payload no longer decodes to plausible numbers (%+v, %v), test needs a better offset", v, d.Err())
	}
	if err := os.WriteFile(side, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err := s.LoadSidecar(k, new(result))
	if ok || err != nil {
		t.Fatalf("silently flipped sidecar must read as absent: ok=%v err=%v", ok, err)
	}
	if got := s.Stats().Quarantines; got != 1 {
		t.Fatalf("Quarantines = %d, want 1", got)
	}
}

func TestTransientReadDoesNotQuarantine(t *testing.T) {
	mem := storage.NewMem()
	s := NewOn(mem)
	k := testKey()
	fillCell(t, s, k)

	// Same objects behind a 100%-failing read path: every Load errors,
	// but transiently — the healthy object must stay in place.
	flaky := NewOn(storage.NewFault(mem, storage.Faults{ReadErr: 1, Seed: 9}))
	for i := 0; i < 10; i++ {
		_, _, err := flaky.Load(k)
		if err == nil {
			t.Fatal("ReadErr=1 load succeeded")
		}
		if IsCorrupt(err) {
			t.Fatalf("transient read error classified as corruption: %v", err)
		}
		if !storage.AsBackendError(err) {
			t.Fatalf("transient read error must classify as backend-side: %v", err)
		}
	}
	if got := flaky.Stats().Quarantines; got != 0 {
		t.Fatalf("flaky reads quarantined %d healthy objects", got)
	}
	if !s.Has(k) {
		t.Fatal("object vanished")
	}
}

func TestScrubQuarantinesAndReportsRecoverable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testKey()
	fillCell(t, s, good)
	bad := Key{Benchmark: "synth2", PEs: 2, Sequential: true, EmulatorVersion: "emuT"}
	fillCell(t, s, bad)

	// Damage one trace mid-file.
	data, err := os.ReadFile(s.Path(bad))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(s.Path(bad), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := s.Scrub()
	if rep.Checked < 2 {
		t.Fatalf("scrub checked %d objects, want >= 2", rep.Checked)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("scrub quarantined %v, want exactly the damaged trace", rep.Quarantined)
	}
	foundBad := false
	for _, k := range rep.Recoverable {
		if k == bad {
			foundBad = true
		}
		if k == good {
			t.Fatal("scrub reported the intact cell as recoverable")
		}
	}
	if !foundBad {
		t.Fatalf("scrub Recoverable = %v, want to include %v", rep.Recoverable, bad)
	}
	if !s.Has(good) || s.Has(bad) {
		t.Fatal("scrub kept the wrong cells")
	}

	// Regenerate the quarantined cell: the report's key is all a caller
	// needs (tracegen verify -repair drives exactly this loop).
	refs := fillCell(t, s, bad)
	if got := loadRefs(t, s, bad); len(got) != len(refs) {
		t.Fatalf("repaired cell has %d refs, want %d", len(got), len(refs))
	}
	if rep := s.Scrub(); len(rep.Quarantined) != 0 {
		t.Fatalf("second scrub found new damage: %v", rep.Quarantined)
	}
}

// TestReplayDamageByteIdentity is the byte-level identity check under
// generic damage: for a spread of single-byte corruptions the replayed
// reference stream after healing matches the original exactly.
func TestReplayDamageByteIdentity(t *testing.T) {
	mem := storage.NewMem()
	s := NewOn(mem)
	k := testKey()
	want := fillCell(t, s, k)

	var goldenSink bytes.Buffer
	_, err := s.Replay(k, sinkFunc(func(r trace.Ref) {
		goldenSink.WriteByte(byte(r.PE))
		goldenSink.WriteByte(byte(r.Op))
	}))
	if err != nil {
		t.Fatal(err)
	}

	rc, err := mem.Get(k.name())
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}

	for off := 1; off < len(pristine); off = off*3 + 7 {
		damaged := append([]byte(nil), pristine...)
		damaged[off] ^= 0x10
		if err := mem.Put(k.name(), func(w io.Writer) error {
			_, err := w.Write(damaged)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Replay(k, trace.Discard); err == nil {
			// A flip that the decoder cannot distinguish from valid data
			// would be a codec bug (everything is CRC-covered).
			t.Fatalf("offset %d: damaged trace replayed cleanly", off)
		}
		// Heal and compare byte-for-byte.
		got := fillCell(t, s, k)
		if len(got) != len(want) {
			t.Fatalf("offset %d: healed %d refs, want %d", off, len(got), len(want))
		}
		var sink bytes.Buffer
		if _, err := s.Replay(k, sinkFunc(func(r trace.Ref) {
			sink.WriteByte(byte(r.PE))
			sink.WriteByte(byte(r.Op))
		})); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.Bytes(), goldenSink.Bytes()) {
			t.Fatalf("offset %d: healed replay differs from golden stream", off)
		}
	}
}
