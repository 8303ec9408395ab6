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

// getCounter counts the Gets made on each object of its backend (from
// one goroutine: a scan reads sequentially).
type getCounter struct {
	blob.Backend
	gets map[string]int
}

func (b *getCounter) Get(name string) (io.ReadCloser, error) {
	b.gets[name]++
	return b.Backend.Get(name)
}

// TestScanReadsEachTraceOnce: Verify and Scrub take a trace's cell key
// from the header the verifying decode parsed, so each trace is read
// once per scan.
func TestScanReadsEachTraceOnce(t *testing.T) {
	mem := blob.NewMem()
	keys := []Key{testKey(), {Benchmark: "synth2", PEs: 2, Sequential: true, EmulatorVersion: "emuT"}}
	for _, k := range keys {
		fillCell(t, NewOn(mem), k)
	}
	for name, scan := range map[string]func(*Store) ScrubReport{"Verify": (*Store).Verify, "Scrub": (*Store).Scrub} {
		b := &getCounter{Backend: mem, gets: map[string]int{}}
		rep := scan(NewOn(b))
		if rep.Traces != len(keys) || len(rep.Errors) != 0 {
			t.Fatalf("%s: %d traces, errors %v; want %d clean", name, rep.Traces, rep.Errors, len(keys))
		}
		for _, k := range keys {
			if n := b.gets[k.name()]; n != 1 {
				t.Errorf("%s read %s %d times, want once", name, k.name(), n)
			}
		}
	}
}
