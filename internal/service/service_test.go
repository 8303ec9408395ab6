package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/storage/blob"
)

// newTestServer builds a server over fresh temp directories (its own
// result cache and trace store).
func newTestServer(t *testing.T) *Server {
	t.Helper()
	return newTestServerAt(t, t.TempDir(), t.TempDir())
}

func newTestServerAt(t *testing.T, resultDir, traceDir string) *Server {
	t.Helper()
	s, err := New(Config{ResultDir: resultDir, TraceDir: traceDir, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the handler and returns the
// response.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getOK(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := get(t, h, path)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body.String())
	}
	return w
}

// blockingExperiment is an experiment, served by one test server only,
// whose computation parks until its context is cancelled (or unblock is
// closed), reporting lifecycle events on channels — the deterministic
// probe for the disconnect/shutdown cancellation paths.
type blockingExperiment struct {
	exp       *experiments.Experiment
	started   chan struct{}
	cancelled chan struct{}
	unblock   chan struct{}
}

// newBlockingExperiment adds a blocking experiment to the suite s
// serves.
func newBlockingExperiment(s *Server, name string) *blockingExperiment {
	b := &blockingExperiment{
		started:   make(chan struct{}, 64),
		cancelled: make(chan struct{}),
		unblock:   make(chan struct{}),
	}
	var once sync.Once
	b.exp = &experiments.Experiment{
		Name:    name,
		Summary: "test-only blocking experiment",
		Prepare: func(q url.Values) (experiments.Canonical, experiments.Run, error) {
			return nil, func(ctx context.Context, _ *bench.Runner) (experiments.Result, error) {
				b.started <- struct{}{}
				select {
				case <-ctx.Done():
					once.Do(func() { close(b.cancelled) })
					return nil, ctx.Err()
				case <-b.unblock:
					return &experiments.Table1Result{Rows: []experiments.Table1Row{{Frame: "ok"}}}, nil
				}
			}, nil
		},
		Fresh: func() experiments.Result { return new(experiments.Table1Result) },
	}
	s.suite = append(s.suite, b.exp)
	return b
}

func decodeEnvelope(t *testing.T, body []byte) Envelope {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding envelope: %v\n%s", err, body)
	}
	return env
}

func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	w := getOK(t, h, "/v1/healthz")
	var hz map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil || hz["status"] != "ok" {
		t.Fatalf("healthz body %s (err %v)", w.Body.String(), err)
	}
	w = getOK(t, h, "/v1/stats")
	var st statsBody
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if st.Requests < 1 || st.EmulatorVersion == "" || st.TraceStore == nil {
		t.Fatalf("stats = %+v", st)
	}

	// The grid's stored-results decisions surface in trace_store: a cold
	// bus study simulates one configuration of each paper benchmark and
	// runs one bus DES, and writes one result object per cell and kind.
	getOK(t, h, "/v1/experiments/bus?pes=2")
	w = getOK(t, h, "/v1/stats")
	var raw struct {
		TraceStore map[string]int64 `json:"trace_store"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if ts := raw.TraceStore; ts["ResultHits"] != 0 || ts["ResultMisses"] != 5 || ts["ResultPuts"] != 5 {
		t.Fatalf("trace_store after a cold bus study = %v, want 0 ResultHits, 5 ResultMisses, 5 ResultPuts", ts)
	}
}

func TestExperimentListDocumentsEveryEndpoint(t *testing.T) {
	s := newTestServer(t)
	w := getOK(t, s.Handler(), "/v1/experiments")
	var body struct {
		Experiments []experiments.Experiment `json:"experiments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "fig2", "table2", "table3", "fig4", "mlips", "bus", "ablations"}
	names := map[string]bool{}
	for _, e := range body.Experiments {
		names[e.Name] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("experiment %q missing from /v1/experiments", n)
		}
	}
}

// cheapCases is every registry experiment at cheap parameters (where it
// accepts any).
var cheapCases = []struct {
	name string
	path string
}{
	{"table1", "/v1/experiments/table1"},
	{"fig2", "/v1/experiments/fig2?pes=1,2"},
	{"table2", "/v1/experiments/table2?pes=2"},
	{"table3", "/v1/experiments/table3"},
	{"fig4", "/v1/experiments/fig4?pes=1,2&sizes=64,256"},
	{"mlips", "/v1/experiments/mlips?cache=64"},
	{"bus", "/v1/experiments/bus?pes=2&cache=64&desbench=qsort-150"},
	{"ablations", "/v1/experiments/ablations?pes=2"},
}

// withFormat appends a format parameter to an experiment path.
func withFormat(path, format string) string {
	if strings.Contains(path, "?") {
		return path + "&format=" + format
	}
	return path + "?format=" + format
}

// TestEndpointRoundTrips exercises every experiment endpoint in every
// format over one shared server (cheap parameters where the experiment
// accepts them), checking envelope shape and cache-layer progression.
func TestEndpointRoundTrips(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for _, tc := range cheapCases {
		t.Run(tc.name, func(t *testing.T) {
			w := getOK(t, h, tc.path)
			if got := w.Header().Get("X-Result-Source"); got != "computed" {
				t.Errorf("cold source = %q, want computed", got)
			}
			env := decodeEnvelope(t, w.Body.Bytes())
			if env.Experiment != tc.name {
				t.Errorf("envelope experiment = %q, want %q", env.Experiment, tc.name)
			}
			if len(env.Result) == 0 {
				t.Error("empty result payload")
			}
			// Identical request: memory hit, byte-identical.
			w2 := getOK(t, h, tc.path)
			if got := w2.Header().Get("X-Result-Source"); got != "memory" {
				t.Errorf("warm source = %q, want memory", got)
			}
			if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
				t.Error("warm body differs from cold body")
			}
			// CSV and text renderings succeed and are non-empty.
			for _, format := range []string{"csv", "text"} {
				wf := getOK(t, h, withFormat(tc.path, format))
				if wf.Body.Len() == 0 {
					t.Errorf("%s rendering empty", format)
				}
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	cases := []struct {
		path string
		code int
	}{
		{"/v1/experiments/nope", http.StatusNotFound},
		{"/v1/experiments/table2?pes=0", http.StatusBadRequest},
		{"/v1/experiments/table2?pes=65", http.StatusBadRequest},
		{"/v1/experiments/fig2?maxpes=999", http.StatusBadRequest},
		{"/v1/experiments/fig4?sizes=abc", http.StatusBadRequest},
		{"/v1/experiments/fig4?pes=1x", http.StatusBadRequest},
		{"/v1/experiments/table1?format=xml", http.StatusBadRequest},
		{"/v1/experiments/bus?desbench=nope", http.StatusBadRequest},
		{"/v1/experiments/mlips?target=-1", http.StatusBadRequest},
		// Non-finite floats: NaN fails a plain f <= 0 test and +Inf is
		// positive, so both used to run the grid, then fail to marshal.
		{"/v1/experiments/mlips?target=NaN", http.StatusBadRequest},
		{"/v1/experiments/mlips?target=Inf", http.StatusBadRequest},
		{"/v1/experiments/bus?bw=Inf&pes=2&cache=64", http.StatusBadRequest},
		{"/v1/experiments/bus?bw=NaN&pes=2&cache=64", http.StatusBadRequest},
		// Cache geometry below one line: cache.Config.Validate's
		// bound, enforced before any computation starts.
		{"/v1/experiments/mlips?cache=1", http.StatusBadRequest},
		{"/v1/experiments/fig4?sizes=2", http.StatusBadRequest},
		{"/v1/experiments/bus?cache=3", http.StatusBadRequest},
		// ... or not a whole number of lines.
		{"/v1/experiments/mlips?cache=130", http.StatusBadRequest},
		{"/v1/traces/unknown-bench-name", http.StatusNotFound},
		{"/v1/traces/qsort?pes=99", http.StatusBadRequest},
		{"/v1/traces/qsort?mode=sideways", http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := get(t, h, tc.path)
		if w.Code != tc.code {
			t.Errorf("GET %s: status %d, want %d (%s)", tc.path, w.Code, tc.code, w.Body.String())
		}
		var e apiError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: error body %q not a JSON error", tc.path, w.Body.String())
		}
	}
}

func TestTraceEndpoints(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	// Warm one cell through an experiment, then read it back.
	getOK(t, h, "/v1/experiments/table2?pes=2")
	w := getOK(t, h, "/v1/traces")
	var list struct {
		Traces []traceInfoBody `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("trace store empty after an experiment computation")
	}
	w = getOK(t, h, "/v1/traces/qsort?pes=2&mode=par")
	var tb traceInfoBody
	if err := json.Unmarshal(w.Body.Bytes(), &tb); err != nil {
		t.Fatal(err)
	}
	if tb.Benchmark != "qsort" || tb.PEs != 2 || tb.Mode != "par" || tb.Refs <= 0 {
		t.Fatalf("trace metadata = %+v", tb)
	}
	// A cell nobody generated is a 404, not a generation.
	if w := get(t, h, "/v1/traces/zebra?pes=7"); w.Code != http.StatusNotFound {
		t.Fatalf("missing cell: status %d", w.Code)
	}
}

// TestSingleFlight is the acceptance test for concurrent deduplication:
// 32 concurrent identical cold requests perform exactly one
// computation and receive byte-identical bodies; the engine-run cost
// equals one cold computation's.
func TestSingleFlight(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 32
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/experiments/fig2?pes=1,2")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("%d concurrent identical requests performed %d computations, want 1", n, got)
	}
	coldRuns := s.runner.EngineRuns()
	if coldRuns == 0 {
		t.Fatal("cold computation performed no engine runs — test is vacuous")
	}

	// Warm traffic performs zero further computations and zero engine
	// runs.
	resp, err := http.Get(ts.URL + "/v1/experiments/fig2?pes=1,2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.Computes(); got != 1 {
		t.Fatalf("warm request recomputed (computes = %d)", got)
	}
	if got := s.runner.EngineRuns(); got != coldRuns {
		t.Fatalf("warm request ran the emulator (%d -> %d runs)", coldRuns, got)
	}
}

// TestWarmCacheBitIdentity is the acceptance test for cache
// correctness: the served result equals the direct driver's, bodies
// are byte-identical across requests and daemon restarts, and warm
// serving performs zero emulator runs.
func TestWarmCacheBitIdentity(t *testing.T) {
	resultDir, traceDir := t.TempDir(), t.TempDir()
	s := newTestServerAt(t, resultDir, traceDir)
	h := s.Handler()

	const fig4Path = "/v1/experiments/fig4?pes=1,2&sizes=64,256"
	cold := getOK(t, h, fig4Path)
	runsAfterCold := s.runner.EngineRuns()

	// Bit-identity vs the direct driver, on a Runner of the test's own
	// over the same (now warm) trace store.
	direct := &bench.Runner{Store: s.TraceStore()}
	var env Envelope
	if err := json.Unmarshal(cold.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var served experiments.Figure4
	if err := json.Unmarshal(env.Result, &served); err != nil {
		t.Fatal(err)
	}
	directF4, err := experiments.RunFigure4(context.Background(), direct, []int{1, 2}, []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&served, directF4) {
		t.Fatalf("served fig4 differs from direct driver:\nserved: %+v\ndirect: %+v", &served, directF4)
	}

	t3cold := getOK(t, h, "/v1/experiments/table3")
	env = decodeEnvelope(t, t3cold.Body.Bytes())
	var servedT3 experiments.Table3
	if err := json.Unmarshal(env.Result, &servedT3); err != nil {
		t.Fatal(err)
	}
	directT3, err := experiments.RunTable3(context.Background(), direct)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&servedT3, directT3) {
		t.Fatal("served table3 differs from direct driver")
	}

	// Daemon restart: a fresh server over the same directories serves
	// the identical bytes from disk with zero computations and zero
	// emulator runs.
	s2 := newTestServerAt(t, resultDir, traceDir)
	warm := getOK(t, s2.Handler(), fig4Path)
	if got := warm.Header().Get("X-Result-Source"); got != "disk" {
		t.Fatalf("restarted daemon source = %q, want disk", got)
	}
	if !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatal("restarted daemon served different bytes")
	}
	if got := s2.Computes(); got != 0 {
		t.Fatalf("restarted daemon recomputed (computes = %d)", got)
	}
	if got := s2.runner.EngineRuns(); got != 0 {
		t.Fatalf("restarted daemon ran the emulator %d times", got)
	}
	if runsAfterCold == 0 {
		t.Fatal("cold fig4 performed no engine runs — test is vacuous")
	}
}

// TestClientDisconnectCancelsCompute verifies the reference-counted
// flight: when the only waiting client disconnects, the computation's
// context is cancelled, and the failed flight is not memoized.
func TestClientDisconnectCancelsCompute(t *testing.T) {
	s := newTestServer(t)
	b := newBlockingExperiment(s, "test-block")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/experiments/test-block", nil)
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-b.started:
	case <-time.After(10 * time.Second):
		t.Fatal("computation never started")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("disconnected request reported success")
	}
	select {
	case <-b.cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("computation context not cancelled after the last client disconnected")
	}
	// The cancelled flight must not be cached as a failure: a new
	// request recomputes (and this time completes).
	close(b.unblock)
	resp, err := http.Get(ts.URL + "/v1/experiments/test-block")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("retry after cancelled flight: status %d: %s", resp.StatusCode, body)
	}
}

// TestOneDisconnectDoesNotAbortOtherWaiters: with two clients on the
// same flight, one disconnecting must not cancel the computation the
// other still wants.
func TestOneDisconnectDoesNotAbortOtherWaiters(t *testing.T) {
	s := newTestServer(t)
	b := newBlockingExperiment(s, "test-block2")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx1, cancel1 := context.WithCancel(context.Background())
	req1, _ := http.NewRequestWithContext(ctx1, "GET", ts.URL+"/v1/experiments/test-block2", nil)
	done1 := make(chan struct{})
	go func() {
		resp, _ := http.DefaultClient.Do(req1)
		if resp != nil {
			resp.Body.Close()
		}
		close(done1)
	}()
	select {
	case <-b.started:
	case <-time.After(10 * time.Second):
		t.Fatal("computation never started")
	}
	done2 := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/experiments/test-block2")
		if err != nil {
			done2 <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		done2 <- resp.StatusCode
	}()
	// Let the second client join the flight, then disconnect the first.
	time.Sleep(100 * time.Millisecond)
	cancel1()
	<-done1
	select {
	case <-b.cancelled:
		t.Fatal("one client's disconnect cancelled a computation another client was waiting on")
	case <-time.After(300 * time.Millisecond):
	}
	close(b.unblock)
	if code := <-done2; code != http.StatusOK {
		t.Fatalf("surviving waiter got status %d", code)
	}
}

// TestServeGracefulShutdown is the acceptance test for shutdown:
// cancelling the serve context aborts in-flight computations end to
// end and Serve returns promptly and cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	s := newTestServer(t)
	b := newBlockingExperiment(s, "test-block3")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "", ln, s, 5*time.Second) }()

	reqDone := make(chan struct{})
	go func() {
		resp, _ := http.Get("http://" + ln.Addr().String() + "/v1/experiments/test-block3")
		if resp != nil {
			resp.Body.Close()
		}
		close(reqDone)
	}()
	select {
	case <-b.started:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight computation never started")
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v on clean shutdown", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("Serve did not return after context cancellation — shutdown did not cancel in-flight work")
	}
	select {
	case <-b.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not cancel the in-flight computation")
	}
	select {
	case <-reqDone:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	// Neither store carries temp droppings after shutdown.
	for _, dir := range []string{s.cache.Dir(), s.runner.Store.Dir()} {
		assertNoTemps(t, dir)
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("temp droppings in %s: %v", dir, matches)
	}
}

// TestServersInOneProcessDoNotAlias pins what the per-Server Runner
// buys: two live servers over different trace dirs compute on their own
// stores and counters — each store holds (and each engine_runs counts)
// only its own server's cells.
func TestServersInOneProcessDoNotAlias(t *testing.T) {
	a, b := newTestServer(t), newTestServer(t)
	getOK(t, a.Handler(), "/v1/experiments/table2?pes=2") // 4 benchmarks × {1 PE seq, 2 PEs}
	getOK(t, b.Handler(), "/v1/experiments/fig2?pes=2")   // deriv × {1 PE seq, 2 PEs}
	for _, tc := range []struct {
		name  string
		s     *Server
		cells int64
	}{{"a", a, 8}, {"b", b, 2}} {
		if got := tc.s.TraceStore().Stats().Puts; got != tc.cells {
			t.Errorf("server %s: trace store holds %d cells, want its own %d", tc.name, got, tc.cells)
		}
		if got := tc.s.runner.EngineRuns(); got != tc.cells {
			t.Errorf("server %s: engine_runs = %d, want its own %d", tc.name, got, tc.cells)
		}
	}
}

// TestMachineFaultIsAnErrorResponse: a cell whose emulation overflows a
// machine area (qsort-17540 at 8 PEs exhausts the local stack) answers
// 500 naming the fault, and the server keeps serving.
func TestMachineFaultIsAnErrorResponse(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	w := get(t, h, "/v1/experiments/bus?desbench=qsort-17540&pes=8")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("faulting cell: status %d, want 500: %s", w.Code, w.Body.String())
	}
	var body apiError
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %s", w.Body.String())
	}
	if ok, _ := regexp.MatchString(`cycle \d+ pc \d+: pe\d+: local stack overflow`, body.Error); !ok {
		t.Fatalf("error %q does not name the machine fault", body.Error)
	}
	getOK(t, h, "/v1/experiments/table1")
}

// TestConcurrentComputesShareOneCellBudget: a server's Parallelism
// bounds the cells in flight across all its computes, so at 1 two cold
// computes that share cells take turns with one token — and both
// finish, with the bodies each computes alone.
func TestConcurrentComputesShareOneCellBudget(t *testing.T) {
	s, err := New(Config{ResultBackend: blob.NewMem(), TraceBackend: blob.NewMem(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/v1/experiments/table2?pes=2", "/v1/experiments/bus?pes=2"}
	codes := make([]int, len(paths))
	bodies := make([]string, len(paths))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i, path := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := get(t, s.Handler(), path+"&format=text")
				codes[i], bodies[i] = w.Code, w.Body.String()
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("two computes at Parallelism 1 did not finish")
	}
	for i, path := range paths {
		if codes[i] != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, codes[i], bodies[i])
		}
		alone := getOK(t, newTestServer(t).Handler(), path+"&format=text").Body.String()
		if bodies[i] != alone {
			t.Errorf("GET %s: the body differs from the one computed alone", path)
		}
	}
}
