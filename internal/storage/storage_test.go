package storage_test

import (
	"errors"
	"fmt"
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
