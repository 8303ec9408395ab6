package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/storage/blob"
)

// newChaosServer builds a server whose result cache AND trace store sit
// on fault-injected in-memory backends.
func newChaosServer(t *testing.T, f blob.Faults) *Server {
	t.Helper()
	s, err := New(Config{
		ResultBackend: blob.NewFault(blob.NewMem(), f),
		TraceBackend:  blob.NewFault(blob.NewMem(), f),
		Parallelism:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosByteIdentity is the fault-injection matrix: with every
// failure mode enabled at >= 10% on both backends, warm and cold
// requests must either return the byte-identical body a fault-free
// server produces or fail with a clean JSON 5xx — never a corrupt 200.
// Several seeds exercise different deterministic fault interleavings.
func TestChaosByteIdentity(t *testing.T) {
	paths := []string{
		"/v1/experiments/table2?pes=2",
		"/v1/experiments/fig2?pes=1,2",
		"/v1/experiments/mlips?cache=64",
	}
	// Golden bodies from a fault-free server (envelopes are pure
	// functions of the cell, so they are comparable across servers).
	golden := map[string][]byte{}
	gs := newTestServer(t)
	for _, p := range paths {
		golden[p] = append([]byte(nil), getOK(t, gs.Handler(), p).Body.Bytes()...)
	}

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newChaosServer(t, blob.Faults{
				Seed:      seed,
				ReadErr:   0.15,
				WriteErr:  0.10,
				OpErr:     0.05,
				TornWrite: 0.10,
				BitFlip:   0.10,
			})
			h := s.Handler()
			oks, failures := 0, 0
			for round := 0; round < 4; round++ { // round 0 cold, later rounds warm-ish
				for _, p := range paths {
					w := get(t, h, p)
					switch {
					case w.Code == http.StatusOK:
						oks++
						if !bytes.Equal(w.Body.Bytes(), golden[p]) {
							t.Fatalf("round %d %s: 200 body differs from fault-free golden", round, p)
						}
					case w.Code >= 500 && w.Code < 600:
						failures++
						var e apiError
						if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
							t.Fatalf("round %d %s: %d body is not a JSON error: %q", round, p, w.Code, w.Body.String())
						}
					default:
						t.Fatalf("round %d %s: unexpected status %d: %s", round, p, w.Code, w.Body.String())
					}
				}
			}
			if oks == 0 {
				t.Fatal("no request succeeded under fault injection (self-healing is not healing)")
			}
			t.Logf("seed %d: %d ok (byte-identical), %d clean failures", seed, oks, failures)
		})
	}
}

// TestResultCorruptionHealsTransparently damages a cached result on
// disk and requires the next read to quarantine it, recompute, and
// serve a byte-identical body — with the quarantine visible in
// /v1/stats.
func TestResultCorruptionHealsTransparently(t *testing.T) {
	resultDir, traceDir := t.TempDir(), t.TempDir()
	s1 := newTestServerAt(t, resultDir, traceDir)
	const path = "/v1/experiments/table2?pes=2"
	cold := getOK(t, s1.Handler(), path).Body.Bytes()

	// Find the one cache entry and flip a byte in its JSON.
	names, err := s1.cache.Backend().List("")
	if err != nil || len(names) != 1 {
		t.Fatalf("cache entries: %v, %v", names, err)
	}
	entryPath := s1.cache.Dir() + "/" + names[0]
	data, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(entryPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same directories (the restart pattern;
	// also drops the in-memory layer so the disk read really happens).
	s2 := newTestServerAt(t, resultDir, traceDir)
	w := getOK(t, s2.Handler(), path)
	if !bytes.Equal(w.Body.Bytes(), cold) {
		t.Fatal("healed response differs from the original body")
	}
	if got := w.Header().Get("X-Result-Source"); got != "computed" {
		t.Errorf("healed response source = %q, want computed (the corrupt entry cannot be a hit)", got)
	}

	var stats statsBody
	if err := json.Unmarshal(getOK(t, s2.Handler(), "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ResultCache.Quarantines != 1 {
		t.Fatalf("stats quarantines = %d, want 1", stats.ResultCache.Quarantines)
	}
	// The recompute re-stores the entry under the same content-addressed
	// name, so the path exists again — but with the damage gone.
	healed, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatalf("recomputed entry was not re-stored: %v", err)
	}
	if bytes.Equal(healed, data) {
		t.Fatal("corrupt entry still in place")
	}
	// The recomputed entry is back on disk and valid: a third server
	// serves it as a disk hit.
	s3 := newTestServerAt(t, resultDir, traceDir)
	w3 := getOK(t, s3.Handler(), path)
	if got := w3.Header().Get("X-Result-Source"); got != "disk" {
		t.Errorf("post-heal source = %q, want disk", got)
	}
	if !bytes.Equal(w3.Body.Bytes(), cold) {
		t.Fatal("post-heal disk body differs")
	}
}

// TestLoadShedding pins the admission contract: with 1 compute slot and
// a queue of 1, four concurrent cold requests for DISTINCT experiments
// admit one, queue one, and shed the rest with 429 + Retry-After.
func TestLoadShedding(t *testing.T) {
	s, err := New(Config{
		ResultBackend: blob.NewMem(),
		MaxComputes:   1,
		MaxQueue:      1,
		Parallelism:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blockers []*blockingExperiment
	for i := 0; i < 4; i++ {
		blockers = append(blockers, newBlockingExperiment(s, fmt.Sprintf("shedtest%d", i)))
	}
	h := s.Handler()

	type resp struct {
		code       int
		retryAfter string
		body       []byte
	}
	results := make([]chan resp, 4)
	issue := func(i int) {
		results[i] = make(chan resp, 1)
		go func() {
			w := get(t, h, "/v1/experiments/"+blockers[i].exp.Name)
			results[i] <- resp{w.Code, w.Header().Get("Retry-After"), w.Body.Bytes()}
		}()
	}

	issue(0)
	<-blockers[0].started // request 0 holds the compute slot
	issue(1)              // request 1 queues (slot busy, queue has room)
	// Wait until request 1 is actually queued, not still dialing.
	for i := 0; i < 1000 && s.flights.adm.queued.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.flights.adm.queued.Load() != 1 {
		t.Fatal("request 1 did not queue")
	}
	issue(2) // queue full: shed
	issue(3) // shed
	for _, i := range []int{2, 3} {
		r := <-results[i]
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429 (%s)", i, r.code, r.body)
		}
		if r.retryAfter == "" {
			t.Fatalf("request %d: 429 without Retry-After", i)
		}
	}
	if got := s.Sheds(); got != 2 {
		t.Fatalf("Sheds() = %d, want 2", got)
	}
	// Exactly one computation ever started.
	select {
	case <-blockers[1].started:
		t.Fatal("second computation started while the slot was held")
	default:
	}
	// Release: both admitted requests complete OK.
	close(blockers[0].unblock)
	close(blockers[1].unblock)
	for _, i := range []int{0, 1} {
		if r := <-results[i]; r.code != http.StatusOK {
			t.Fatalf("request %d: status %d after release (%s)", i, r.code, r.body)
		}
	}
}

// TestSingleFlightRidesFreeThroughAdmission: N identical requests need
// only ONE compute slot — joiners must not consume admission capacity.
func TestSingleFlightRidesFreeThroughAdmission(t *testing.T) {
	s, err := New(Config{
		ResultBackend: blob.NewMem(),
		MaxComputes:   1,
		MaxQueue:      1,
		Parallelism:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := newBlockingExperiment(s, "joinfree")
	h := s.Handler()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	launchOne := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = get(t, h, "/v1/experiments/joinfree").Code
		}()
	}
	launchOne(0)
	<-b.started
	for i := 1; i < n; i++ {
		launchOne(i)
	}
	// Joiners must enqueue onto the flight, not the admission queue, so
	// none of them shed even with queue capacity 1.
	time.Sleep(20 * time.Millisecond)
	close(b.unblock)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("identical request %d: status %d, want 200 (joiners ride free)", i, c)
		}
	}
	if got := s.Sheds(); got != 0 {
		t.Fatalf("identical requests shed %d times", got)
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("computes = %d, want 1", got)
	}
}

// TestComputeTimeout504 pins the budget contract: a computation that
// exceeds ComputeTimeout maps to 504 (not the 503 of a client
// disconnect) and counts in /v1/stats.
func TestComputeTimeout504(t *testing.T) {
	s, err := New(Config{
		ResultBackend:  blob.NewMem(),
		ComputeTimeout: 50 * time.Millisecond,
		Parallelism:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	newBlockingExperiment(s, "stuck") // parks until its ctx dies
	w := get(t, s.Handler(), "/v1/experiments/stuck")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("stuck computation: status %d, want 504 (%s)", w.Code, w.Body.String())
	}
	var stats statsBody
	if err := json.Unmarshal(getOK(t, s.Handler(), "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ComputeTimeouts != 1 {
		t.Fatalf("compute_timeouts = %d, want 1", stats.ComputeTimeouts)
	}
}

// TestHealthzProbesComponents pins the deepened health check: a healthy
// server reports per-component "ok"; a server whose result backend
// cannot write turns 503 with the failure named.
func TestHealthzProbesComponents(t *testing.T) {
	s := newTestServer(t)
	w := getOK(t, s.Handler(), "/v1/healthz")
	var body struct {
		Status     string            `json:"status"`
		Components map[string]string `json:"components"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Components["result_cache"] != "ok" || body.Components["trace_store"] != "ok" {
		t.Fatalf("healthy server healthz: %s", w.Body.String())
	}

	broken, err := New(Config{
		ResultBackend: blob.NewFault(blob.NewMem(), blob.Faults{WriteErr: 1}),
		Parallelism:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w2 := get(t, broken.Handler(), "/v1/healthz")
	if w2.Code != http.StatusServiceUnavailable {
		t.Fatalf("write-dead backend healthz: status %d, want 503 (%s)", w2.Code, w2.Body.String())
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "unhealthy" || body.Components["result_cache"] == "ok" {
		t.Fatalf("unhealthy healthz body: %s", w2.Body.String())
	}
}

// TestDegradedServeWithoutCaching pins graceful degradation: when the
// result cache cannot be written, the response is still served (200,
// correct body) with X-Degraded naming the component.
func TestDegradedServeWithoutCaching(t *testing.T) {
	golden := newTestServer(t)
	const path = "/v1/experiments/table2?pes=2"
	want := append([]byte(nil), getOK(t, golden.Handler(), path).Body.Bytes()...)

	s, err := New(Config{
		ResultBackend: blob.NewFault(blob.NewMem(), blob.Faults{WriteErr: 1}),
		Parallelism:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := getOK(t, s.Handler(), path)
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("degraded body differs from golden")
	}
	if got := w.Header().Get("X-Degraded"); got != "result-cache" {
		t.Fatalf("X-Degraded = %q, want result-cache", got)
	}
	var stats statsBody
	if err := json.Unmarshal(getOK(t, s.Handler(), "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.DegradedServes == 0 {
		t.Fatal("degraded_serves did not count")
	}
}

// TestScrubRepairsBothStores runs Server.Scrub over deliberately
// damaged stores and checks the damage is quarantined and the next
// request recomputes transparently.
func TestScrubRepairsBothStores(t *testing.T) {
	resultDir, traceDir := t.TempDir(), t.TempDir()
	s := newTestServerAt(t, resultDir, traceDir)
	const path = "/v1/experiments/table2?pes=2"
	want := append([]byte(nil), getOK(t, s.Handler(), path).Body.Bytes()...)

	// Damage the one result entry and one stored trace.
	names, err := s.cache.Backend().List("")
	if err != nil || len(names) != 1 {
		t.Fatalf("cache entries: %v, %v", names, err)
	}
	damage := func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x08
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(s.cache.Dir() + "/" + names[0])
	traces, err := s.runner.Store.Backend().List("")
	if err != nil || len(traces) == 0 {
		t.Fatalf("trace entries: %v, %v", traces, err)
	}
	damage(s.runner.Store.Dir() + "/" + traces[0])

	sum := s.Scrub()
	if len(sum.CacheReport.Quarantined) != 1 {
		t.Fatalf("cache scrub quarantined %v, want 1 entry", sum.CacheReport.Quarantined)
	}
	if len(sum.TraceReport.Quarantined) != 1 {
		t.Fatalf("trace scrub quarantined %v, want 1 trace", sum.TraceReport.Quarantined)
	}
	// Post-scrub request recomputes byte-identically (the in-memory
	// layer was invalidated by the quarantine).
	w := getOK(t, s.Handler(), path)
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("post-scrub body differs")
	}
	if rep := s.Scrub(); len(rep.CacheReport.Quarantined)+len(rep.TraceReport.Quarantined) != 0 {
		t.Fatal("second scrub found damage after the heal")
	}
}
