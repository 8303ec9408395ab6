package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
)

// The memory layer is a memo of rendered responses: each entry holds
// the envelope plus its csv and text bytes. These tests pin what that
// must not change (byte identity across sources), what it must buy (no
// decode on a warm hit) and that the renderings share the envelope's
// lifetime (quarantine and eviction drop every form at once).

// TestRenderedMemoBytesIdentical: for every experiment × format, the
// cold computed body, the memory hit and a restarted server's disk hit
// are byte-identical.
func TestRenderedMemoBytesIdentical(t *testing.T) {
	traceDir := t.TempDir()
	for _, format := range []string{"json", "csv", "text"} {
		resultDir := t.TempDir()
		h := newTestServerAt(t, resultDir, traceDir).Handler()
		cold := map[string][]byte{}
		for _, tc := range cheapCases {
			path := withFormat(tc.path, format)
			for _, want := range []string{"computed", "memory"} {
				w := getOK(t, h, path)
				if src := w.Header().Get("X-Result-Source"); src != want {
					t.Fatalf("%s: source %q, want %q", path, src, want)
				}
				if want == "computed" {
					cold[path] = w.Body.Bytes()
				} else if !bytes.Equal(w.Body.Bytes(), cold[path]) {
					t.Errorf("%s: memory hit differs from the computed body", path)
				}
			}
		}
		restarted := newTestServerAt(t, resultDir, traceDir).Handler()
		for path, body := range cold {
			w := getOK(t, restarted, path)
			if src := w.Header().Get("X-Result-Source"); src != "disk" {
				t.Fatalf("%s after restart: source %q, want disk", path, src)
			}
			if !bytes.Equal(w.Body.Bytes(), body) {
				t.Errorf("%s after restart: disk hit differs from the computed body", path)
			}
		}
	}
}

// TestWarmRenderedHitAllocations is the guard against a decode creeping
// back onto the hit path: a warm csv/text memory hit allocates at most
// 10 objects more than the same key's json hit (a decode + render cost
// ~90–190 more).
func TestWarmRenderedHitAllocations(t *testing.T) {
	h := newTestServer(t).Handler()
	allocs := func(path string) float64 {
		getOK(t, h, path) // compute, or render this format once
		return testing.AllocsPerRun(50, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		})
	}
	for _, path := range []string{"/v1/experiments/fig4?pes=1,2&sizes=64,256", "/v1/experiments/table2?pes=2"} {
		base := allocs(path)
		for _, format := range []string{"csv", "text"} {
			got := allocs(withFormat(path, format))
			t.Logf("%s: json %.0f, %s %.0f allocations", path, base, format, got)
			if got > base+10 {
				t.Errorf("%s warm %s hit: %.0f allocations, json hit %.0f (limit +10)", path, format, got, base)
			}
		}
	}
}

// TestConcurrentFirstRenders: many requests racing to render one
// entry's csv and text for the first time all serve the same bytes
// (run under -race by `make race`).
func TestConcurrentFirstRenders(t *testing.T) {
	h := newTestServer(t).Handler()
	const path = "/v1/experiments/table2?pes=2"
	getOK(t, h, path) // the envelope only
	bodies := make([][]byte, 16)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", withFormat(path, []string{"csv", "text"}[i%2]), nil))
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[i%2]) {
			t.Fatalf("request %d served different bytes from request %d", i, i%2)
		}
	}
}

// TestScrubDropsRenderings: once Scrub quarantines a corrupt entry, the
// next csv request recomputes — the memory layer kept no rendering of
// it.
func TestScrubDropsRenderings(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	const path = "/v1/experiments/fig4?pes=1,2&sizes=64,256&format=csv"
	want := getOK(t, h, path).Body.Bytes()
	if src := getOK(t, h, path).Header().Get("X-Result-Source"); src != "memory" {
		t.Fatalf("warm csv source %q, want memory", src)
	}
	key := CacheKey{Experiment: "fig4", Params: "pes=1,2&sizes=64,256"}
	if err := os.WriteFile(s.cache.Path(key), []byte("{corrupt"), 0o666); err != nil {
		t.Fatal(err)
	}
	if rep := s.Scrub().CacheReport; len(rep.Quarantined) != 1 {
		t.Fatalf("scrub quarantined %v, want the one corrupt entry", rep.Quarantined)
	}
	w := getOK(t, h, path)
	if src := w.Header().Get("X-Result-Source"); src != "computed" {
		t.Fatalf("csv after scrub: source %q, want computed", src)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("recomputed csv differs from the original")
	}
}

// TestEvictionDropsRenderings: an entry evicted from the memory layer
// loses its renderings with it — its next text request is a disk hit
// with unchanged bytes — and the layer stays within maxMemEntries keys.
func TestEvictionDropsRenderings(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	const path = "/v1/experiments/table2?pes=2&format=text"
	want := getOK(t, h, path).Body.Bytes()
	target := CacheKey{Experiment: "table2", Params: "pes=2"}.hash()
	resident := func() (ok bool, n int) {
		s.cache.mu.RLock()
		defer s.cache.mu.RUnlock()
		_, ok = s.cache.mem[target]
		return ok, len(s.cache.mem)
	}
	// Eviction picks an arbitrary victim, so fill until it picks ours.
	for i := 0; ; i++ {
		ok, n := resident()
		if n > maxMemEntries {
			t.Fatalf("memory layer holds %d keys, bound %d", n, maxMemEntries)
		}
		if !ok {
			break
		}
		if i == 100*maxMemEntries {
			t.Fatal("target entry never evicted")
		}
		key := CacheKey{Experiment: "fill", Params: fmt.Sprint(i)}
		if err := s.cache.Put(key, testEnvelope(t, key)); err != nil {
			t.Fatal(err)
		}
	}
	w := getOK(t, h, path)
	if src := w.Header().Get("X-Result-Source"); src != "disk" {
		t.Fatalf("evicted key's text request: source %q, want disk", src)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("text body changed across eviction")
	}
}
