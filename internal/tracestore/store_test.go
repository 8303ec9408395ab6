package tracestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func testKey() Key {
	return Key{Benchmark: "synth", PEs: 4, Sequential: false, EmulatorVersion: "emuT"}
}

// synthRefs builds a small deterministic trace.
func synthRefs(n, pes int) []trace.Ref {
	refs := make([]trace.Ref, n)
	addr := uint32(0x1000)
	for i := range refs {
		pe := uint8(i / 7 % pes)
		addr += uint32(i%5) - 2
		op := trace.OpRead
		if i%3 == 0 {
			op = trace.OpWrite
		}
		refs[i] = trace.Ref{Addr: addr + uint32(pe)<<16, PE: pe, Op: op,
			Obj: trace.ObjType(1 + i%(trace.NumObjTypes-1))}
	}
	return refs
}

func TestStorePutReplayRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	refs := synthRefs(30000, k.PEs)
	if s.Has(k) {
		t.Fatal("empty store reports Has")
	}
	if err := s.Put(k, func(sink trace.Sink) error {
		for _, r := range refs {
			sink.Add(r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !s.Has(k) {
		t.Fatal("store misses just-written key")
	}

	var got trace.Buffer
	meta, err := s.Replay(k, &got)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Refs != int64(len(refs)) || meta.Benchmark != k.Benchmark {
		t.Fatalf("meta = %+v", meta)
	}
	if !slices.Equal(slices.Concat(got.Segments()...), refs) {
		t.Fatalf("replayed %d refs, want the %d written", got.Len(), len(refs))
	}

	buf, _, err := s.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(refs) {
		t.Fatalf("Load got %d refs", buf.Len())
	}

	st := s.Stats()
	if st.Puts != 1 || st.Hits < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreMissIsNotExist(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, err := s.Replay(testKey(), trace.Discard); !os.IsNotExist(err) {
		t.Fatalf("miss error = %v, want not-exist", err)
	}
}

func TestStorePutErrorLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k := testKey()
	genErr := os.ErrDeadlineExceeded
	if err := s.Put(k, func(sink trace.Sink) error {
		sink.Add(trace.Ref{Addr: 1, PE: 0, Obj: trace.ObjHeap})
		return genErr
	}); err != genErr {
		t.Fatalf("Put returned %v, want the generator's error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed Put left %d files behind", len(entries))
	}
}

func TestStoreRejectsKeyMismatch(t *testing.T) {
	s, _ := Open(t.TempDir())
	k := testKey()
	if err := s.Put(k, func(sink trace.Sink) error {
		sink.Add(trace.Ref{Addr: 1, PE: 0, Obj: trace.ObjHeap})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Copy the file under a different key's name: the header check must
	// catch the forgery.
	other := k
	other.Benchmark = "other"
	data, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(other), data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replay(other, trace.Discard); err == nil {
		t.Fatal("header/key mismatch accepted")
	} else if !strings.Contains(err.Error(), "carries header") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestStoreSidecar(t *testing.T) {
	s, _ := Open(t.TempDir())
	k := testKey()
	if ok, err := s.LoadSidecar(k, new(result)); err != nil || ok {
		t.Fatalf("empty sidecar: ok=%v err=%v", ok, err)
	}
	want := result{Refs: 12345, Misses: -7}
	if err := s.PutSidecar(k, &want); err != nil {
		t.Fatal(err)
	}
	var got result
	ok, err := s.LoadSidecar(k, &got)
	if err != nil || !ok {
		t.Fatalf("LoadSidecar: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("sidecar = %+v, want %+v", got, want)
	}
}

func TestStoreListAndVerify(t *testing.T) {
	s, _ := Open(t.TempDir())
	keys := []Key{
		{Benchmark: "a", PEs: 1, Sequential: true, EmulatorVersion: "e"},
		{Benchmark: "b", PEs: 2, Sequential: false, EmulatorVersion: "e"},
	}
	for i, k := range keys {
		refs := synthRefs(1000*(i+1), k.PEs)
		if err := s.Put(k, func(sink trace.Sink) error {
			for _, r := range refs {
				sink.Add(r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("List found %d entries, want 2", len(entries))
	}
	if errs := s.Verify().Errors; len(errs) != 0 {
		t.Fatalf("Verify on clean store: %v", errs)
	}

	// Corrupt one payload byte near the end of the larger file; Verify
	// must name exactly that file.
	path := s.Path(keys[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-40] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	errs := s.Verify().Errors
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), filepath.Base(path)) {
		t.Fatalf("Verify after corruption: %v", errs)
	}
}

func TestKeyHashDistinguishesCells(t *testing.T) {
	base := testKey()
	variants := []Key{
		{Benchmark: "synth2", PEs: 4, Sequential: false, EmulatorVersion: "emuT"},
		{Benchmark: "synth", PEs: 8, Sequential: false, EmulatorVersion: "emuT"},
		{Benchmark: "synth", PEs: 4, Sequential: true, EmulatorVersion: "emuT"},
		{Benchmark: "synth", PEs: 4, Sequential: false, EmulatorVersion: "emuU"},
	}
	seen := map[string]bool{base.stem(): true}
	for _, v := range variants {
		if seen[v.stem()] {
			t.Fatalf("key %v collides", v)
		}
		seen[v.stem()] = true
	}
}

func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale1 := write("put-abc" + TraceExt + ".tmp")
	stale2 := write("put-def.json.tmp")
	fresh := write("put-live" + TraceExt + ".tmp")
	keep := write("unrelated.rwt2")
	old := time.Now().Add(-2 * StaleTempAge)
	for _, p := range []string{stale1, stale2} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{stale1, stale2} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived Open", p)
		}
	}
	// A young temp may belong to a live writer in another process, and
	// non-temp files are never the sweep's business.
	for _, p := range []string{fresh, keep} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s should have survived Open: %v", p, err)
		}
	}
}

// TestInterruptedWriteLeavesNoDroppings is the regression test for the
// killed-writer scenario end to end: a Put whose generator dies part
// way through must leave the store with no *.tmp files and no partial
// trace, and a later Put of the same cell must succeed cleanly.
func TestInterruptedWriteLeavesNoDroppings(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	boom := errors.New("writer interrupted")
	err = s.Put(k, func(sink trace.Sink) error {
		for _, r := range synthRefs(1000, k.PEs) {
			sink.Add(r)
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Put: err = %v, want the generator's error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("interrupted Put left %s behind", e.Name())
	}
	if s.Has(k) {
		t.Fatal("interrupted Put registered the cell")
	}
	if err := s.Put(k, func(sink trace.Sink) error {
		for _, r := range synthRefs(1000, k.PEs) {
			sink.Add(r)
		}
		return nil
	}); err != nil {
		t.Fatalf("retry Put after interruption: %v", err)
	}
	if _, err := s.Replay(k, trace.Discard); err != nil {
		t.Fatalf("replay after retry: %v", err)
	}
}

func TestContentHashStable(t *testing.T) {
	// The key hash is the on-disk address of every stored trace; it
	// must never drift, or warm stores silently go cold. This pins the
	// scheme: 12 hex digits of SHA-256 over NUL-joined parts.
	k := Key{Benchmark: "qsort", PEs: 8, Sequential: false, EmulatorVersion: "emuT"}
	want := ContentHash("qsort", "8", "false", "emuT", fmt.Sprintf("v%d", trace.CodecVersion))
	if got := k.hash(); got != want {
		t.Fatalf("Key.hash = %s, want ContentHash form %s", got, want)
	}
	if len(want) != 12 {
		t.Fatalf("hash length %d, want 12 hex digits", len(want))
	}
	if ContentHash("a", "bc") == ContentHash("ab", "c") {
		t.Fatal("NUL joining failed: concatenation collision")
	}
}

func TestPutPanicLeavesNoDroppings(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A machine-error panic escaping the generator (e.g. an overflow in
	// the emulator) unwinds through Put; the temp file must still be
	// cleaned up.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		s.Put(testKey(), func(sink trace.Sink) error { panic("machine error") })
	}()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("panicking Put left %s behind", e.Name())
	}
}

// TestKeyNamesPinned pins the object names of a handful of keys, odd
// characters included: they are on-disk names, so building them any
// other way must not move a byte. The values are the ones the
// fmt.Sprintf form of stem and hash produced.
func TestKeyNamesPinned(t *testing.T) {
	for _, c := range []struct {
		k          Key
		trace, sim string
	}{
		{Key{Benchmark: "qsort", PEs: 8, EmulatorVersion: "emu1"}, "qsort-p8-par-emu1-e0504e43fb53.rwt2", "qsort-p8-par-emu1-e0504e43fb53.sim.rwo1"},
		{Key{Benchmark: "deriv", PEs: 1, Sequential: true, EmulatorVersion: "emu1"}, "deriv-p1-seq-emu1-88b9c508f828.rwt2", "deriv-p1-seq-emu1-88b9c508f828.sim.rwo1"},
		{Key{Benchmark: "matrix-32", PEs: 64, EmulatorVersion: "emu1"}, "matrix-32-p64-par-emu1-a80684fa3426.rwt2", "matrix-32-p64-par-emu1-a80684fa3426.sim.rwo1"},
		{Key{Benchmark: "qsort-6540", PEs: 4, EmulatorVersion: "v2.0+dirty"}, "qsort-6540-p4-par-v2_0_dirty-db4f7a6f589c.rwt2", "qsort-6540-p4-par-v2_0_dirty-db4f7a6f589c.sim.rwo1"},
		{Key{Benchmark: "näive rev/x", PEs: 0, Sequential: true, EmulatorVersion: "e\xffmu"}, "n_ive_rev_x-p0-seq-e_mu-8019f4bd06ef.rwt2", "n_ive_rev_x-p0-seq-e_mu-8019f4bd06ef.sim.rwo1"},
		{Key{PEs: -3}, "-p-3-par--9ef0acffdf35.rwt2", "-p-3-par--9ef0acffdf35.sim.rwo1"},
	} {
		if got := c.k.name(); got != c.trace {
			t.Errorf("%+v: trace name %q, want %q", c.k, got, c.trace)
		}
		if got := c.k.objectName("sim"); got != c.sim {
			t.Errorf("%+v: sim object name %q, want %q", c.k, got, c.sim)
		}
	}
}
