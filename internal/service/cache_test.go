package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/storage/blob"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

func testEnvelope(t *testing.T, key CacheKey) []byte {
	t.Helper()
	body, err := marshalEnvelope(key.Experiment, experiments.Canonical{{Name: "pes", Value: "2"}}, map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// openDirCache opens a result cache over dir as service.New does,
// sweeping stale temps and aged quarantined entries.
func openDirCache(t *testing.T, dir string) *ResultCache {
	t.Helper()
	d, err := blob.NewDir(dir, tracestore.StaleTempAge)
	if err != nil {
		t.Fatal(err)
	}
	return NewResultCacheOn(d)
}

func TestResultCacheRoundTrip(t *testing.T) {
	c := openDirCache(t, t.TempDir())
	key := CacheKey{Experiment: "fig4", Params: "pes=2"}
	if _, _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	body := testEnvelope(t, key)
	if err := c.Put(key, body); err != nil {
		t.Fatal(err)
	}
	got, source, ok := c.Get(key)
	if !ok || source != "memory" || !bytes.Equal(got, body) {
		t.Fatalf("Get after Put: ok=%v source=%q identical=%v", ok, source, bytes.Equal(got, body))
	}

	// A fresh cache over the same directory serves the identical bytes
	// from disk — the daemon-restart path.
	c2 := openDirCache(t, c.Dir())
	got2, source2, ok := c2.Get(key)
	if !ok || source2 != "disk" || !bytes.Equal(got2, body) {
		t.Fatalf("Get after reopen: ok=%v source=%q identical=%v", ok, source2, bytes.Equal(got2, body))
	}
	// And the second Get is a memory hit.
	if _, source3, _ := c2.Get(key); source3 != "memory" {
		t.Fatalf("second Get after reopen: source=%q, want memory", source3)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit + 1 mem hit", st)
	}
}

func TestResultCacheKeyDistinguishesParams(t *testing.T) {
	keys := []CacheKey{
		{Experiment: "fig4", Params: "pes=1,2"},
		{Experiment: "fig4", Params: "pes=1,4"},
		{Experiment: "fig2", Params: "pes=1,2"},
		{Experiment: "fig2", Params: ""},
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k.hash()] {
			t.Fatalf("key %+v collides", k)
		}
		seen[k.hash()] = true
	}
}

func TestResultCacheRejectsForeignEnvelope(t *testing.T) {
	c := openDirCache(t, t.TempDir())
	key := CacheKey{Experiment: "fig4", Params: "pes=2"}
	// A file at the right path carrying the wrong experiment (or plain
	// garbage) must read as a miss, not as a hit for the wrong cell.
	wrong, err := marshalEnvelope("table2", nil, map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(key), wrong, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key); ok {
		t.Fatal("mismatched envelope served as a hit")
	}
	if err := os.WriteFile(c.Path(key), []byte("{corrupt"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key); ok {
		t.Fatal("corrupt envelope served as a hit")
	}
}

func TestResultCacheOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "put-zzz.json.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tracestore.StaleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "put-live.json.tmp")
	if err := os.WriteFile(fresh, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	openDirCache(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp survived opening the cache")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("young temp should survive: %v", err)
	}
}

func TestEnvelopeCarriesVersions(t *testing.T) {
	key := CacheKey{Experiment: "mlips", Params: "cache=256"}
	body := testEnvelope(t, key)
	if !verifyEnvelope(CacheKey{Experiment: key.Experiment, Params: "pes=2"}, body) {
		t.Fatal("fresh envelope fails verification")
	}
	// A params mismatch at the right path must fail verification.
	if verifyEnvelope(CacheKey{Experiment: key.Experiment, Params: "pes=4"}, body) {
		t.Fatal("wrong-params envelope passed verification")
	}
	h := key.hash()
	if len(h) != 12 {
		t.Fatalf("hash %q not 12 hex digits", h)
	}
	// The key hash must depend on the emulator and codec versions (it
	// is recomputed here from the shared ContentHash helper).
	want := tracestore.ContentHash(key.Experiment, key.Params, core.EmulatorVersion,
		fmt.Sprintf("codec%d", trace.CodecVersion), fmt.Sprintf("rc%d", CacheVersion))
	if h != want {
		t.Fatalf("hash = %s, want shared ContentHash form %s", h, want)
	}
}
