package tracestore

import (
	"fmt"
	"io"
	"io/fs"
	"testing"

	"repro/internal/storage/blob"
)

// vanishBackend makes Get on one object report a miss while List and
// Stat still see it: the window where a concurrent sweep, delete or
// quarantine removes an object between a scrub's listing and its read.
type vanishBackend struct {
	blob.Backend
	gone string
}

func (b *vanishBackend) Get(name string) (io.ReadCloser, error) {
	if name == b.gone {
		return nil, fmt.Errorf("vanished between list and read: %w", fs.ErrNotExist)
	}
	return b.Backend.Get(name)
}

// TestScrubVanishedObjectNotQuarantined is the regression test for a
// bug rapwamlint's errortaxonomy analyzer surfaced: verifyObject used
// to return the raw fs.ErrNotExist for an object that disappeared
// between List and Get, which Scrub's transient gate does not match —
// so Scrub would try to quarantine an object that no longer exists
// and report phantom corruption. A vanished object is a transient
// condition: reported, never quarantined.
func TestScrubVanishedObjectNotQuarantined(t *testing.T) {
	mem := blob.NewMem()
	healthy := NewOn(mem)
	k := testKey()
	fillCell(t, healthy, k)

	s := NewOn(&vanishBackend{Backend: mem, gone: k.name()})
	rep := s.Scrub()
	if len(rep.Quarantined) != 0 {
		t.Fatalf("scrub quarantined %v for an object that merely vanished mid-scrub", rep.Quarantined)
	}
	if len(rep.Errors) == 0 {
		t.Fatal("scrub swallowed the vanished object entirely: want a reported transient error")
	}
	transient := false
	for _, err := range rep.Errors {
		if blob.IsTransient(err) {
			transient = true
		}
	}
	if !transient {
		t.Fatalf("scrub errors %v: none classified transient", rep.Errors)
	}
	if !healthy.Has(k) {
		t.Fatal("the underlying object was removed by the scrub")
	}
	if rep := healthy.Scrub(); len(rep.Quarantined) != 0 || len(rep.Errors) != 0 {
		t.Fatalf("follow-up scrub over the healthy backend: quarantined %v, errors %v", rep.Quarantined, rep.Errors)
	}
}
