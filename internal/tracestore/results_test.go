package tracestore

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/objcodec"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// result stands in for a consumer's per-configuration result (and, in
// these tests, for a run sidecar).
type result struct{ Refs, Misses int64 }

func (r result) Encode(e *objcodec.Encoder) { e.Int(r.Refs); e.Int(r.Misses) }

func (r *result) Decode(d *objcodec.Decoder) { r.Refs, r.Misses = d.Int(), d.Int() }

// eachKind runs f once per result kind the repo stores: the contract
// below is one object's, and a kind is only part of its name.
func eachKind(t *testing.T, f func(t *testing.T, kind string)) {
	for _, kind := range []string{"sim", "des"} {
		t.Run(kind, func(t *testing.T) { f(t, kind) })
	}
}

// TestResultsRoundTripAndAccounting pins the result object's contract:
// what was put is what loads, want is accounted key by key, a lookup
// that found everything wanted counts the one Hit of the Replay it
// saved while a partial or empty one counts none, result writes are not
// trace Puts, List does not see the object, and one kind's object is
// invisible to a lookup of another kind.
func TestResultsRoundTripAndAccounting(t *testing.T) {
	eachKind(t, func(t *testing.T, kind string) {
		s := NewOn(storage.NewMem())
		k := testKey()
		fillCell(t, s, k)
		s.ResetStats()

		got, err := LoadResults[result](s, k, kind, "v1", []string{"a", "b"})
		if err != nil || got == nil || len(got) != 0 {
			t.Fatalf("empty store: %v, err %v; want an empty non-nil map", got, err)
		}
		if st := s.Stats(); st != (Stats{ResultMisses: 2}) {
			t.Fatalf("empty lookup: %+v, want only 2 result misses", st)
		}

		want := map[string]result{"a": {10, 1}, "b": {20, 2}}
		if err := PutResults(s, k, kind, "v1", want); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Puts != 0 || st.ResultPuts != 1 {
			t.Fatalf("after PutResults: %d trace puts, %d result puts; want 0 and 1", st.Puts, st.ResultPuts)
		}
		if _, err := s.b.Stat(k.stem() + "." + kind + ".rwo1"); err != nil {
			t.Fatalf("the object is not named <stem>.%s.rwo1: %v", kind, err)
		}
		s.ResetStats()

		got, err = LoadResults[result](s, k, kind, "v1", []string{"a", "c"})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded %v, err %v; want %v", got, err, want)
		}
		if st := s.Stats(); st != (Stats{ResultHits: 1, ResultMisses: 1}) {
			t.Fatalf("partial lookup: %+v, want 1 result hit, 1 result miss and no Hit", st)
		}
		if _, err = LoadResults[result](s, k, kind, "v1", []string{"b", "a"}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st != (Stats{Hits: 1, ResultHits: 3, ResultMisses: 1}) {
			t.Fatalf("full lookup: %+v, want one Hit and two more result hits", st)
		}
		if got, err := LoadResults[result](s, k, kind+"x", "v1", nil); err != nil || len(got) != 0 {
			t.Fatalf("a lookup of another kind was served %v (err %v)", got, err)
		}

		entries, err := s.List()
		if err != nil || len(entries) != 1 {
			t.Fatalf("List: %d entries (err %v), want the one trace", len(entries), err)
		}
	})
}

// TestResultsBytesDeterministic: two stores given the same results in
// different insertion orders hold byte-identical objects (peers serve
// each other's result objects).
func TestResultsBytesDeterministic(t *testing.T) {
	k := testKey()
	object := func(keys ...string) []byte {
		t.Helper()
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]result{}
		for _, key := range keys {
			m[key] = result{Refs: int64(len(key))}
		}
		if err := PutResults(s, k, "sim", "v1", m); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(strings.TrimSuffix(s.Path(k), TraceExt) + ".sim.rwo1")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := object("x", "yy", "zzz"), object("zzz", "x", "yy"); !bytes.Equal(a, b) {
		t.Errorf("same results, different bytes:\n%s\n%s", a, b)
	}
}

// TestStaleResultsIgnoredNotQuarantined: an object stamped by another
// consumer version, or filed under another cell's name, is somebody
// else's valid data — it reads as nothing stored and stays where it
// is until a write replaces it.
func TestStaleResultsIgnoredNotQuarantined(t *testing.T) {
	eachKind(t, func(t *testing.T, kind string) {
		mem := storage.NewMem()
		s := NewOn(mem)
		k := testKey()
		if err := PutResults(s, k, kind, "v1", map[string]result{"a": {1, 1}}); err != nil {
			t.Fatal(err)
		}
		got, err := LoadResults[result](s, k, kind, "v2", []string{"a"})
		if err != nil || len(got) != 0 {
			t.Fatalf("another version's object served %v (err %v)", got, err)
		}

		// The same bytes under another cell's name.
		other := Key{Benchmark: "synth2", PEs: 2, Sequential: true, EmulatorVersion: "emuT"}
		storagetest.Put(t, mem, other.objectName(kind), storagetest.Get(t, mem, k.objectName(kind)))
		got, err = LoadResults[result](s, other, kind, "v1", []string{"a"})
		if err != nil || len(got) != 0 {
			t.Fatalf("a mis-filed object served %v (err %v)", got, err)
		}
		if st := s.Stats(); st.Quarantines != 0 || st.ResultHits != 0 {
			t.Fatalf("stale objects: %+v, want nothing quarantined and nothing served", st)
		}
		if _, err := mem.Stat(k.objectName(kind)); err != nil {
			t.Fatalf("the stale object was removed: %v", err)
		}
	})
}

// TestCorruptResultsQuarantinedThenHealed: a damaged result object of
// either kind reads as nothing stored and is moved aside by that read;
// the caller's write-back is then the only object, and serves.
func TestCorruptResultsQuarantinedThenHealed(t *testing.T) {
	eachKind(t, func(t *testing.T, kind string) {
		mem := storage.NewMem()
		s := NewOn(mem)
		k := testKey()
		want := map[string]result{"a": {1, 1}}
		if err := PutResults(s, k, kind, "v1", want); err != nil {
			t.Fatal(err)
		}
		data := []byte(storagetest.Get(t, mem, k.objectName(kind)))
		data[len(data)-1] ^= 0x02 // Misses 1 → 0: still decodes, wrong numbers
		storagetest.Put(t, mem, k.objectName(kind), string(data))

		got, err := LoadResults[result](s, k, kind, "v1", []string{"a"})
		if err != nil || len(got) != 0 {
			t.Fatalf("a damaged object served %v (err %v)", got, err)
		}
		if st := s.Stats(); st.Quarantines != 1 || st.ResultMisses != 1 {
			t.Fatalf("damaged lookup: %+v, want 1 quarantine and 1 result miss", st)
		}
		if _, err := mem.Stat(k.objectName(kind)); err == nil {
			t.Fatal("the damaged object is still in place")
		}
		if err := PutResults(s, k, kind, "v1", want); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadResults[result](s, k, kind, "v1", []string{"a"}); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("after the write-back: %v (err %v), want %v", got, err, want)
		}
		if rep := s.Verify(); len(rep.Errors) != 0 {
			t.Fatalf("store not clean afterwards: %v", rep.Errors)
		}
	})
}

// TestVerifyChecksEnvelopesReadOnly is the regression test for the
// read-only verify that never opened a sidecar or result object: a
// bit-flipped one used to report "all clean" until a -repair run.
// Verify now reports all of them, counts what it checked per kind, and
// still moves nothing; Scrub quarantines exactly those objects.
func TestVerifyChecksEnvelopesReadOnly(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	fillCell(t, s, k)
	for _, kind := range []string{"sim", "des"} {
		if err := PutResults(s, k, kind, "v1", map[string]result{"a": {1, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	wantKinds := map[string]int{SidecarKind: 1, "sim": 1, "des": 1}
	if rep := s.Verify(); len(rep.Errors) != 0 || rep.Traces != 1 || rep.Checked != 4 || !reflect.DeepEqual(rep.Objects, wantKinds) {
		t.Fatalf("clean store: %+v, want no errors over 1 trace + %v", rep, wantKinds)
	}

	stem := strings.TrimSuffix(s.Path(k), TraceExt)
	objects := []string{stem + ".run.rwo1", stem + ".sim.rwo1", stem + ".des.rwo1"}
	for _, path := range objects {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The last payload byte, a one-byte varint, to another value:
		// still decodes, wrong numbers.
		data[len(data)-1] ^= 0x04
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Verify()
	if len(rep.Errors) != 3 || len(rep.Quarantined) != 0 {
		t.Fatalf("Verify over three damaged objects: errors %v, quarantined %v; want 3 and none", rep.Errors, rep.Quarantined)
	}
	if st := s.Stats(); st.Quarantines != 0 {
		t.Fatalf("read-only Verify quarantined %d objects", st.Quarantines)
	}
	for _, path := range objects {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("Verify moved %s: %v", path, err)
		}
	}
	if rep := s.Scrub(); len(rep.Quarantined) != 3 {
		t.Fatalf("Scrub quarantined %v, want all three objects", rep.Quarantined)
	}
	if rep := s.Verify(); len(rep.Errors) != 0 || rep.Checked != 1 {
		t.Fatalf("after Scrub: %+v, want a clean store of one trace", rep)
	}
}

// TestLegacyJSONObjectsAreForeign: the checksummed-JSON objects of the
// format before ObjectVersion 1 keep their names (<stem>.json,
// <stem>.<kind>.json), which this build never reads: a store holding
// them reads as having no sidecar and no results, quarantines nothing,
// and Verify counts them as legacy without checking them. So does an
// object of another format version.
func TestLegacyJSONObjectsAreForeign(t *testing.T) {
	mem := storage.NewMem()
	s := NewOn(mem)
	k := testKey()
	fillCell(t, s, k)
	if err := mem.Delete(k.objectName(SidecarKind)); err != nil {
		t.Fatal(err)
	}
	legacy := map[string]string{
		k.stem() + ".json":     `{"sha256":"0","data":{"Success":true}}`,
		k.stem() + ".sim.json": `{"sha256":"0","data":{}}`,
		k.stem() + ".sim.rwo0": "RWOB\x00",
	}
	for name, data := range legacy {
		storagetest.Put(t, mem, name, data)
	}
	if ok, err := s.LoadSidecar(k, new(result)); ok || err != nil {
		t.Fatalf("LoadSidecar over a legacy sidecar: ok=%v err=%v, want an absent sidecar", ok, err)
	}
	if got, err := LoadResults[result](s, k, "sim", "v1", []string{"a"}); err != nil || len(got) != 0 {
		t.Fatalf("LoadResults over a legacy object: %v (err %v), want nothing stored", got, err)
	}
	rep := s.Scrub()
	if len(rep.Errors) != 0 || rep.Checked != 1 || rep.Legacy != len(legacy) {
		t.Fatalf("Scrub: %+v, want one trace checked and %d legacy objects ignored", rep, len(legacy))
	}
	if st := s.Stats(); st.Quarantines != 0 {
		t.Fatalf("%d objects quarantined, want 0", st.Quarantines)
	}
	for name := range legacy {
		if _, err := mem.Stat(name); err != nil {
			t.Errorf("legacy object %s was moved: %v", name, err)
		}
	}
}
