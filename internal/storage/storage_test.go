package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage/blob"
)

// The generic Backend contract lives in storagetest and runs over
// every implementation from contract_test.go. This file keeps the
// tests that reach into implementation specifics (raw os errors, the
// on-disk temp layout) and the package's error-taxonomy helpers.

// The dir backend must surface misses as RAW os errors, because the
// trace store's callers match with os.IsNotExist, which does not
// unwrap %w chains.
func TestDirMissMatchesOsIsNotExist(t *testing.T) {
	d, err := blob.NewDir(filepath.Join(t.TempDir(), "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("nope.bin"); !os.IsNotExist(err) {
		t.Fatalf("dir get miss must satisfy os.IsNotExist, got %v", err)
	}
}

func TestDirSweepRemovesStaleTemps(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	d, err := blob.NewDir(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(root, "put-123.rwt2.tmp")
	if err := os.WriteFile(stale, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	os.Chtimes(stale, old, old)
	fresh := filepath.Join(root, "put-456.rwt2.tmp")
	if err := os.WriteFile(fresh, []byte("in flight right now"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := d.Sweep(time.Hour); n != 1 {
		t.Fatalf("sweep removed %d, want 1 (only the stale temp)", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp survived sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("sweep removed an in-flight temp")
	}
}

func TestValidName(t *testing.T) {
	good := []string{"a.bin", "quarantine/a.bin", "sub/deep.bin"}
	bad := []string{"", "/abs", "trail/", "a//b", "./x", "../x", "a/../b"}
	for _, n := range good {
		if !blob.ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if blob.ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestProbeBrokenBackend(t *testing.T) {
	b := blob.NewFault(blob.NewMem(), blob.Faults{WriteErr: 1})
	if err := blob.Probe(b); err == nil {
		t.Fatal("probe of a write-dead backend must fail")
	}
}

func TestErrorClassification(t *testing.T) {
	plain := errors.New("compute failed")
	if blob.AsBackendError(plain) || blob.IsTransient(plain) {
		t.Fatal("plain errors must not classify as storage failures")
	}
	tr := blob.Transient(plain)
	if !blob.IsTransient(tr) || !blob.AsBackendError(tr) {
		t.Fatal("Transient must classify as transient and backend-side")
	}
	be := &blob.Error{Op: "put", Backend: "dir:x", Name: "a", Err: plain}
	if !blob.AsBackendError(be) || blob.IsTransient(be) {
		t.Fatal("*blob.Error must classify as backend-side but not transient")
	}
	pe := &fs.PathError{Op: "write", Path: "/x", Err: errors.New("EIO")}
	if !blob.AsBackendError(fmt.Errorf("wrapped: %w", pe)) {
		t.Fatal("wrapped *fs.PathError must classify as backend-side")
	}
	if blob.Transient(nil) != nil {
		t.Fatal("Transient(nil) must stay nil")
	}
}

func TestDegradedFlag(t *testing.T) {
	ctx, flag := blob.WithDegraded(t.Context())
	blob.MarkDegraded(ctx, "trace-store")
	blob.MarkDegraded(ctx, "result-cache")
	blob.MarkDegraded(ctx, "trace-store") // deduplicated
	if got := fmt.Sprint(flag.Components()); got != "[trace-store result-cache]" {
		t.Fatalf("components: %v", got)
	}
	// No flag planted: a no-op, never a panic.
	blob.MarkDegraded(t.Context(), "whatever")
	var nilFlag *blob.DegradedFlag
	if nilFlag.Components() != nil {
		t.Fatal("nil flag must read as empty")
	}
}

// TestMemWriterMatchesFile drives blob.Buffer (Mem's writer) and an *os.File through the
// same sequence — appends, a write past the end after a seek (a hole),
// an overwrite of the start after Seek(0) (the trace codec's header
// back-patch), then more appends from the end — and requires equal
// content, so Mem keeps the file semantics its Put callbacks rely on.
func TestMemWriterMatchesFile(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "ref"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var w blob.Buffer
	steps := []struct {
		seek   bool
		off    int64
		whence int
		data   []byte
	}{
		{data: bytes.Repeat([]byte{0xAA}, 100)},
		{data: bytes.Repeat([]byte{0xBB}, 5000)},
		{seek: true, off: 300, whence: io.SeekEnd, data: []byte("past the end")},
		{seek: true, off: 0, whence: io.SeekStart, data: []byte("HEADER")},
		{seek: true, off: -4, whence: io.SeekCurrent, data: []byte("xy")},
		{seek: true, off: 0, whence: io.SeekEnd, data: bytes.Repeat([]byte{0xCC}, 70000)},
	}
	for i, s := range steps {
		if s.seek {
			fo, ferr := f.Seek(s.off, s.whence)
			wo, werr := w.Seek(s.off, s.whence)
			if ferr != nil || werr != nil || fo != wo {
				t.Fatalf("step %d: seek = (%d, %v), file (%d, %v)", i, wo, werr, fo, ferr)
			}
		}
		if _, err := f.Write(s.data); err != nil {
			t.Fatal(err)
		}
		if n, err := w.Write(s.data); n != len(s.data) || err != nil {
			t.Fatalf("step %d: write = (%d, %v)", i, n, err)
		}
	}
	want, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Errorf("Buffer holds %d bytes that differ from the file's %d", len(w.Bytes()), len(want))
	}
}

// TestMemWriterGrowsGeometrically: 16 MB of 64 KB writes (a trace's
// chunks) reallocate at most ⌈log₂ 256⌉ = 8 times after the first
// allocation; append's policy for large slices took several times that,
// recopying the object each time.
func TestMemWriterGrowsGeometrically(t *testing.T) {
	var w blob.Buffer
	chunk := make([]byte, 64<<10)
	reallocs, last := 0, cap(w.Bytes())
	for i := 0; i < 256; i++ {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if c := cap(w.Bytes()); c != last {
			reallocs, last = reallocs+1, c
		}
	}
	if len(w.Bytes()) != 16<<20 {
		t.Fatalf("wrote %d bytes, want %d", len(w.Bytes()), 16<<20)
	}
	if reallocs > 9 {
		t.Errorf("%d reallocations for 256 chunks, want at most 9 (the first allocation, then doubling)", reallocs)
	}
}
