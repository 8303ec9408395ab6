package service

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"testing"

	"repro/internal/storage/blob"
)

// listErrBackend fails List with a fixed error; everything else is the
// in-memory backend.
type listErrBackend struct {
	blob.Backend
	err error
}

func (b *listErrBackend) List(prefix string) ([]string, error) { return nil, b.err }

// TestResultCacheLenClassifiesListErrors is the regression test for a
// finding rapwamlint's errortaxonomy analyzer surfaced: Len used to
// propagate the backend's raw List error. A miss-shaped error (the
// cache's namespace was simply never written, which cluster peer
// backends report as fs.ErrNotExist) means an empty cache, not a
// failure; anything else must come back wrapped, still matchable
// through the taxonomy.
func TestResultCacheLenClassifiesListErrors(t *testing.T) {
	missing := NewResultCacheOn(&listErrBackend{
		Backend: blob.NewMem(),
		err:     fmt.Errorf("peer: %w", iofs.ErrNotExist),
	})
	if n, err := missing.Len(); err != nil || n != 0 {
		t.Fatalf("Len over a never-written namespace = %d, %v; want 0, nil", n, err)
	}

	broken := NewResultCacheOn(&listErrBackend{
		Backend: blob.NewMem(),
		err:     blob.Transient(errors.New("disk wobble")),
	})
	n, err := broken.Len()
	if err == nil {
		t.Fatal("Len over a failing backend returned nil error")
	}
	if n != 0 {
		t.Fatalf("Len over a failing backend = %d, want 0", n)
	}
	if !blob.IsTransient(err) {
		t.Fatalf("Len error %v lost its transient classification in the wrapping", err)
	}
}
