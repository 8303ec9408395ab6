package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tracestore"
)

// This file is the in-process multi-daemon cluster harness: N complete
// rapwamd services, each over its own in-memory result cache and trace
// store (every Server owns its grid state, so nothing aliases between
// nodes), wired to each
// other through real HTTP (httptest listeners) exactly as a production
// fleet would be — peer blob fetches, proxied computes and health
// probes all cross real sockets. Nodes can be killed (connections
// reset), restarted over their surviving storage, or restarted over
// fresh storage (disk loss), and the peer wire can be made hostile by
// injecting storage.Fault via Config.PeerWrap.

// testNode is one fleet member: a fixed URL whose handler can be
// swapped — the live server, or a connection-resetting tombstone when
// killed — so the node's address outlives its process, like a
// restarted daemon on the same host:port.
type testNode struct {
	url     string
	hts     *httptest.Server
	handler atomic.Pointer[http.Handler]
	result  *storage.Mem
	trace   *storage.Mem
	srv     *Server
}

// loseDisk replaces the node's storage with empty backends (reboot it
// to rejoin empty).
func (nd *testNode) loseDisk() {
	nd.result, nd.trace = storage.NewMem(), storage.NewMem()
}

type testFleet struct {
	t     *testing.T
	nodes []*testNode
	urls  []string
	wrap  func(storage.Backend) storage.Backend
}

// newTestFleet starts n clustered nodes. wrap, when non-nil, wraps
// every node's peer-fetch backend (inject storage.Fault here to make
// the wire hostile; the proxy path and each node's local storage stay
// clean).
func newTestFleet(t *testing.T, n int, wrap func(storage.Backend) storage.Backend) *testFleet {
	t.Helper()
	f := &testFleet{t: t, wrap: wrap}
	for i := 0; i < n; i++ {
		nd := new(testNode)
		nd.loseDisk()
		nd.hts = newNodeListener(nd)
		t.Cleanup(nd.hts.Close)
		nd.url = nd.hts.URL
		f.nodes = append(f.nodes, nd)
		f.urls = append(f.urls, nd.url)
	}
	for _, nd := range f.nodes {
		f.boot(nd)
	}
	return f
}

// newNodeListener gives a node its listener: a fixed URL dispatching
// to whatever handler the node currently holds.
func newNodeListener(nd *testNode) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*nd.handler.Load()).ServeHTTP(w, r)
	}))
}

// boot (re)constructs a node's server over whatever its backend
// currently holds — the restart pattern: fresh process, surviving
// storage, same address.
func (f *testFleet) boot(nd *testNode) {
	f.t.Helper()
	srv, err := New(Config{
		ResultBackend: nd.result,
		TraceBackend:  nd.trace,
		Parallelism:   2,
		Peers:         f.urls,
		SelfURL:       nd.url,
		PeerClient:    &http.Client{Timeout: 30 * time.Second},
		PeerWrap:      f.wrap,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	nd.srv = srv
	h := srv.Handler()
	nd.handler.Store(&h)
}

// kill takes a node down hard: its handler becomes a tombstone that
// resets every connection (peers see transport errors, not HTTP
// responses) and in-flight keep-alives are severed.
func (f *testFleet) kill(i int) {
	nd := f.nodes[i]
	var down http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		http.Error(w, "node down", http.StatusServiceUnavailable)
	})
	nd.handler.Store(&down)
	nd.hts.CloseClientConnections()
	nd.srv = nil
}

// get performs one real-HTTP request against node i.
func (f *testFleet) get(i int, path string) (*http.Response, []byte) {
	f.t.Helper()
	resp, err := http.Get(f.nodes[i].url + path)
	if err != nil {
		f.t.Fatalf("GET node%d %s: %v", i, path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		f.t.Fatalf("GET node%d %s: reading body: %v", i, path, err)
	}
	return resp, body
}

// sumEngineRuns totals the live nodes' own engine_runs, as each
// reports them in /v1/stats.
func (f *testFleet) sumEngineRuns() int64 {
	f.t.Helper()
	var n int64
	for i, nd := range f.nodes {
		if nd.srv == nil {
			continue
		}
		var stats statsBody
		if _, body := f.get(i, "/v1/stats"); json.Unmarshal(body, &stats) != nil {
			f.t.Fatalf("node%d stats: %s", i, body)
		}
		n += stats.EngineRuns
	}
	return n
}

// sumComputes totals experiment computations across live nodes — the
// fleet-wide exactly-once observable.
func (f *testFleet) sumComputes() int64 {
	var n int64
	for _, nd := range f.nodes {
		if nd.srv != nil {
			n += nd.srv.Computes()
		}
	}
	return n
}

// owner returns the index of the node that owns key's compute.
func (f *testFleet) owner(key CacheKey) int {
	f.t.Helper()
	o := storage.Rendezvous(key.hash(), f.urls)[0]
	for i, nd := range f.nodes {
		if nd.url == o {
			return i
		}
	}
	f.t.Fatalf("owner %s not in fleet %v", o, f.urls)
	return -1
}

// corruptObject flips one byte in the middle of a stored object,
// in place — silent at-rest corruption on one node's disk.
func corruptObject(t *testing.T, b storage.Backend, name string) {
	t.Helper()
	rc, err := b.Get(name)
	if err != nil {
		t.Fatalf("reading %s to corrupt it: %v", name, err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	err = b.Put(name, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	if err != nil {
		t.Fatalf("writing corrupted %s: %v", name, err)
	}
}

// TestClusterExactlyOnce is the headline property: a fleet of three
// daemons hit by 48 concurrent requests for the same cold cell
// performs exactly ONE computation cluster-wide — local single-flight
// collapses each node's waiters, cross-node single-flight routes the
// three survivors to the cell's rendezvous owner — and all 48
// responses are byte-identical. A warm round afterwards computes and
// emulates nothing anywhere.
func TestClusterExactlyOnce(t *testing.T) {
	f := newTestFleet(t, 3, nil)

	const path = "/v1/experiments/fig2?pes=1,2"
	const clients = 48
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := f.get(i%len(f.nodes), path)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if n := f.sumComputes(); n != 1 {
		t.Fatalf("fleet performed %d computations for one cell, want exactly 1", n)
	}
	coldRuns := f.sumEngineRuns()
	if coldRuns == 0 {
		t.Fatal("cold sweep ran no emulator at all")
	}

	// Warm round: every node must now serve the cell without another
	// computation or emulator run anywhere in the fleet.
	for i := range f.nodes {
		resp, body := f.get(i, path)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodies[0]) {
			t.Fatalf("warm node %d: status %d, identical=%v", i, resp.StatusCode, bytes.Equal(body, bodies[0]))
		}
		if src := resp.Header.Get("X-Result-Source"); src == "computed" || src == "proxied" {
			t.Fatalf("warm node %d re-computed (source %q)", i, src)
		}
	}
	if n := f.sumComputes(); n != 1 {
		t.Fatalf("warm round raised fleet computations to %d", n)
	}
	if got := f.sumEngineRuns(); got != coldRuns {
		t.Fatalf("warm round ran the emulator (%d -> %d runs)", coldRuns, got)
	}
}

// TestClusterEngineRunsOncePerCell pins the trace tier end to end, now
// that every node has its own store: fig4 sent to every node of a
// 3-node fleet costs the fleet — summed over the nodes' own engine_runs
// — exactly one engine run per distinct (benchmark, PEs) cell, and a
// second result cell over the same traces, wherever its owner is, costs
// none: the traces come from a local store or a peer's.
func TestClusterEngineRunsOncePerCell(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	const cells = 4 * 2 // paper benchmarks × PE counts
	for _, path := range []string{
		"/v1/experiments/fig4?pes=1,2&sizes=64,256",
		"/v1/experiments/fig4?pes=1,2&sizes=128",
	} {
		for i := range f.nodes {
			if resp, body := f.get(i, path); resp.StatusCode != http.StatusOK {
				t.Fatalf("node %d %s: status %d: %s", i, path, resp.StatusCode, body)
			}
		}
		if n := f.sumEngineRuns(); n != cells {
			t.Fatalf("after %s at every node the fleet has run the emulator %d times, want %d (once per cell)", path, n, cells)
		}
	}
	if n := f.sumComputes(); n != 2 {
		t.Fatalf("fleet performed %d computations for two result cells", n)
	}
}

// peerGets records the names a node reads through its peer tiers.
type peerGets struct {
	storage.Backend
	mu    *sync.Mutex
	names *[]string
}

func (p peerGets) Get(name string) (io.ReadCloser, error) {
	p.mu.Lock()
	*p.names = append(*p.names, name)
	p.mu.Unlock()
	return p.Backend.Get(name)
}

// TestClusterCellResultsTravelByName: result objects of every kind
// travel through the trace store's Peer tier by name, like traces and
// sidecars do. Node 0 computes the bus study and then loses its
// envelope store; node 1, handed the same request to serve locally,
// finds no envelope anywhere and renders from the cells' <stem>.sim.rwo1
// and <stem>.des.rwo1 objects fetched from node 0 — it runs no emulator
// and never opens a trace, its own or its peer's.
func TestClusterCellResultsTravelByName(t *testing.T) {
	var (
		mu      sync.Mutex
		fetched []string
	)
	f := newTestFleet(t, 2, func(b storage.Backend) storage.Backend {
		return peerGets{Backend: b, mu: &mu, names: &fetched}
	})
	// serveLocally is what a proxying peer sends: the receiving node
	// fetches, computes or fails, and never proxies on.
	serveLocally := func(i int) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, f.nodes[i].url+"/v1/experiments/bus?pes=2", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(proxyHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d, err %v: %s", i, resp.StatusCode, err, body)
		}
		return resp, body
	}
	_, golden := serveLocally(0)
	if n := f.nodes[0].srv.runner.EngineRuns(); n != 4 {
		t.Fatalf("node 0 ran the emulator %d times for the cold bus study, want 4", n)
	}
	f.nodes[0].result = storage.NewMem()
	f.boot(f.nodes[0])
	mu.Lock()
	fetched = nil
	mu.Unlock()

	resp, body := serveLocally(1)
	if !bytes.Equal(body, golden) {
		t.Fatalf("node 1 rendered a different body:\n%s\n%s", body, golden)
	}
	if src := resp.Header.Get("X-Result-Source"); src != "computed" {
		t.Fatalf("node 1 served from %q, want computed (no envelope is left anywhere)", src)
	}
	nd := f.nodes[1]
	if n := nd.srv.runner.EngineRuns(); n != 0 {
		t.Errorf("node 1 ran the emulator %d times, want 0", n)
	}
	if st := nd.srv.runner.Store.Stats(); st.ResultHits != 5 || st.ResultMisses != 0 {
		t.Errorf("node 1: %d results reused, %d computed; want 5 and 0", st.ResultHits, st.ResultMisses)
	}
	kinds := map[string]int{}
	mu.Lock()
	for _, name := range fetched {
		for _, suffix := range []string{".rwt2", ".sim" + tracestore.ObjectExt, ".des" + tracestore.ObjectExt} {
			if strings.HasSuffix(name, suffix) {
				kinds[suffix]++
			}
		}
	}
	mu.Unlock()
	if kinds[".sim"+tracestore.ObjectExt] != 4 || kinds[".des"+tracestore.ObjectExt] != 1 || kinds[".rwt2"] != 0 {
		t.Errorf("node 1 fetched from its peer %v; want 4 sim objects, 1 des object and no trace", kinds)
	}
	local, err := nd.trace.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range local {
		if strings.HasSuffix(name, ".rwt2") {
			t.Errorf("node 1 holds the trace %s it never needed", name)
		}
	}
}

// TestClusterByteIdentityAcrossNodesAndRestarts: a cell computed once
// is served byte-identically by every member, by every member after a
// fleet-wide restart, and — via peer fetch — by a member that rejoined
// after losing its disk, all with zero new computations.
func TestClusterByteIdentityAcrossNodesAndRestarts(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	const path = "/v1/experiments/table2?pes=2"

	resp, golden := f.get(0, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, golden)
	}
	for i := range f.nodes {
		if resp, body := f.get(i, path); resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden) {
			t.Fatalf("node %d: status %d, identical=%v", i, resp.StatusCode, bytes.Equal(body, golden))
		}
	}

	// Fleet-wide restart over surviving storage: every node serves from
	// its own disk, computing nothing.
	for _, nd := range f.nodes {
		f.boot(nd)
	}
	for i := range f.nodes {
		resp, body := f.get(i, path)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden) {
			t.Fatalf("restarted node %d: status %d, identical=%v", i, resp.StatusCode, bytes.Equal(body, golden))
		}
	}
	if n := f.sumComputes(); n != 0 {
		t.Fatalf("restarted fleet computed %d times serving a stored cell", n)
	}

	// Node 2 loses its disk and rejoins empty: the cell comes back over
	// peer fetch, not recomputation, and writes through locally.
	f.nodes[2].loseDisk()
	f.boot(f.nodes[2])
	resp, body := f.get(2, path)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("rejoined node: status %d, identical=%v", resp.StatusCode, bytes.Equal(body, golden))
	}
	if src := resp.Header.Get("X-Result-Source"); src != "peer" {
		t.Fatalf("rejoined node served from %q, want peer", src)
	}
	if n := f.nodes[2].srv.Computes(); n != 0 {
		t.Fatalf("rejoined node computed %d times", n)
	}
	st := f.nodes[2].srv.resultTier.Stats()
	if st.PeerHits != 1 || st.WriteThroughs != 1 {
		t.Fatalf("rejoined node tier stats %+v, want 1 peer hit written through", st)
	}
}

// TestClusterKilledOwnerDegradesThenRejoinsWarm: with a cell's owner
// dead, a surviving node falls back to computing locally (the response
// says so via X-Degraded: peer-proxy — a dead peer costs duplicate
// work, never an outage) and the restarted owner then warms itself
// from the survivor over peer fetch without recomputing.
func TestClusterKilledOwnerDegradesThenRejoinsWarm(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	const path = "/v1/experiments/fig2?pes=2"
	key := CacheKey{Experiment: "fig2", Params: "pes=2"}
	owner := f.owner(key)
	requester := (owner + 1) % len(f.nodes)

	f.kill(owner)
	resp, golden := f.get(requester, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("with owner down: status %d: %s", resp.StatusCode, golden)
	}
	if d := resp.Header.Get("X-Degraded"); !strings.Contains(d, "peer-proxy") {
		t.Fatalf("X-Degraded %q does not name peer-proxy", d)
	}
	if src := resp.Header.Get("X-Result-Source"); src != "computed" {
		t.Fatalf("fallback served from %q, want computed", src)
	}
	if n := f.nodes[requester].srv.Computes(); n != 1 {
		t.Fatalf("survivor computed %d times, want 1", n)
	}
	if n := f.nodes[requester].srv.cluster.proxyFallbacks.Load(); n != 1 {
		t.Fatalf("survivor recorded %d proxy fallbacks, want 1", n)
	}

	// The owner rejoins (same empty storage, same address) and serves
	// the cell warm off the survivor's copy.
	f.boot(f.nodes[owner])
	resp, body := f.get(owner, path)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("rejoined owner: status %d, identical=%v", resp.StatusCode, bytes.Equal(body, golden))
	}
	if src := resp.Header.Get("X-Result-Source"); src != "peer" {
		t.Fatalf("rejoined owner served from %q, want peer", src)
	}
	if n := f.nodes[owner].srv.Computes(); n != 0 {
		t.Fatalf("rejoined owner computed %d times", n)
	}
}

// TestClusterChaosOnWireNeverServesCorrupt points storage.Fault at the
// peer transport — read errors, failed operations and in-flight bit
// flips on every blob a node fetches from its peers — and demands the
// client contract hold anyway: every response is a 200 byte-identical
// to the fault-free golden (possibly flagged X-Degraded), because a
// peer's bytes go through the same envelope verification as local ones
// and verification failure is a miss, never a serve.
func TestClusterChaosOnWireNeverServesCorrupt(t *testing.T) {
	// Fault-free golden bodies, from a solo server sharing nothing with
	// the fleet but the deterministic computation.
	solo, err := New(Config{ResultBackend: storage.NewMem(), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	cells := []string{
		"/v1/experiments/fig2?pes=1,2",
		"/v1/experiments/fig2?pes=2",
		"/v1/experiments/table2?pes=2",
	}
	golden := make(map[string][]byte, len(cells))
	sh := solo.Handler()
	for _, cell := range cells {
		w := getOK(t, sh, cell)
		golden[cell] = append([]byte(nil), w.Body.Bytes()...)
	}

	f := newTestFleet(t, 3, func(b storage.Backend) storage.Backend {
		return storage.NewFault(b, storage.Faults{
			Seed:     7,
			ReadErr:  0.3,
			OpErr:    0.2,
			ReadFlip: 0.3,
		})
	})
	for round := 0; round < 4; round++ {
		for _, cell := range cells {
			for i := range f.nodes {
				resp, body := f.get(i, cell)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d node %d %s: status %d: %s", round, i, cell, resp.StatusCode, body)
				}
				if !bytes.Equal(body, golden[cell]) {
					t.Fatalf("round %d node %d %s: 200 body differs from fault-free golden (degraded=%q)",
						round, i, cell, resp.Header.Get("X-Degraded"))
				}
			}
		}
	}
	if n := f.sumComputes(); n < int64(len(cells)) {
		t.Fatalf("fleet computed %d cells, want at least %d", n, len(cells))
	}
}

// TestClusterCorruptPeerBlobHeals: one node's stored copy of a cell
// rots on disk. A peer fetching that blob rejects it at envelope
// verification, quarantines its own write-through, and recovers the
// correct bytes (proxy → the owner itself re-verifies, quarantines and
// recomputes) — both nodes end up healed byte-identically and the
// corrupt bytes are never served.
func TestClusterCorruptPeerBlobHeals(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	const path = "/v1/experiments/table2?pes=2"
	key := CacheKey{Experiment: "table2", Params: "pes=2"}
	owner := f.owner(key)
	other := 1 - owner

	// Warm the owner only: request AT the owner so the other node never
	// caches a copy.
	resp, golden := f.get(owner, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, golden)
	}

	// Rot the owner's stored blob, then restart both nodes: memory
	// layers gone, the other node's storage empty — every path now leads
	// through the corrupt object.
	corruptObject(t, f.nodes[owner].result, key.name())
	f.nodes[other].loseDisk()
	for _, nd := range f.nodes {
		f.boot(nd)
	}

	resp, body := f.get(other, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("through corrupt peer blob: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, golden) {
		t.Fatal("healed response is not byte-identical to the original")
	}
	if n := f.nodes[owner].srv.Computes(); n != 1 {
		t.Fatalf("owner recomputed %d times healing, want 1", n)
	}
	quar := f.nodes[owner].srv.cache.Stats().Quarantines +
		f.nodes[other].srv.cache.Stats().Quarantines
	if quar < 2 {
		t.Fatalf("fleet quarantined %d corrupt copies, want >= 2 (fetcher's write-through and owner's original)", quar)
	}

	// Both nodes now serve the healed cell from verified local storage.
	for i := range f.nodes {
		resp, body := f.get(i, path)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, golden) {
			t.Fatalf("healed node %d: status %d, identical=%v", i, resp.StatusCode, bytes.Equal(body, golden))
		}
	}
}

// TestClusterStatsAndHealth: the cluster section of /v1/stats reports
// identity, peers and the cross-node counters, and healthz reports
// peer reachability without going unhealthy when a peer dies.
func TestClusterStatsAndHealth(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	const path = "/v1/experiments/fig2?pes=2"
	key := CacheKey{Experiment: "fig2", Params: "pes=2"}
	owner := f.owner(key)
	other := 1 - owner

	// A request at the non-owner proxies to the owner.
	if resp, body := f.get(other, path); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	} else if src := resp.Header.Get("X-Result-Source"); src != "proxied" {
		t.Fatalf("non-owner cold serve source %q, want proxied", src)
	}

	resp, stats := f.get(other, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		fmt.Sprintf("%q", f.nodes[other].url), `"proxied_computes":1`, `"result_peer"`,
	} {
		if !strings.Contains(string(stats), want) {
			t.Fatalf("stats body missing %s:\n%s", want, stats)
		}
	}
	if n := f.nodes[owner].srv.cluster.proxiedServes.Load(); n != 1 {
		t.Fatalf("owner served %d proxied requests, want 1", n)
	}

	// healthz: all peers up, then one down — the survivor stays healthy
	// and reports the degraded peer set.
	if resp, body := f.get(other, "/v1/healthz"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), `"peers":"ok (1/1 reachable)"`) {
		t.Fatalf("healthz with peers up: status %d body %s", resp.StatusCode, body)
	}
	f.kill(owner)
	if resp, body := f.get(other, "/v1/healthz"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), `"peers":"degraded (0/1 reachable)"`) {
		t.Fatalf("healthz with a peer down: status %d body %s", resp.StatusCode, body)
	}
}

// TestClusterConfigValidation: malformed cluster configs fail
// construction loudly; degenerate ones (solo, or self-only lists)
// cleanly disable clustering.
func TestClusterConfigValidation(t *testing.T) {
	mem := func() storage.Backend { return storage.NewMem() }
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr string // "" = must succeed without a cluster
	}{
		{"solo", Config{ResultBackend: mem()}, ""},
		{"self-only", Config{ResultBackend: mem(),
			Peers: []string{"http://a:1"}, SelfURL: "http://a:1"}, ""},
		{"duplicate-self-only", Config{ResultBackend: mem(),
			Peers: []string{"http://a:1", "http://a:1/"}, SelfURL: "http://a:1"}, ""},
		{"missing-self", Config{ResultBackend: mem(),
			Peers: []string{"http://a:1", "http://b:1"}}, "SelfURL empty"},
		{"self-not-listed", Config{ResultBackend: mem(),
			Peers: []string{"http://a:1", "http://b:1"}, SelfURL: "http://c:1"}, "not in Peers"},
		{"bad-url", Config{ResultBackend: mem(),
			Peers: []string{"http://a:1", "nonsense"}, SelfURL: "http://a:1"}, "want http(s)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if s.cluster != nil {
					t.Fatalf("degenerate peer config built a cluster: %+v", s.cluster)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New error %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}
