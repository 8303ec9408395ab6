package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"

	"repro/internal/storage"
)

// service-mix: real rapwamd processes on loopback ports, closed loop
// (a caller of a results cache waits for its reply before asking
// again). service and storage dominate the warm, restart and peer
// phases while the grid does nothing; the cold request is the same
// grid work as paper-grid reached through HTTP, admission and
// single-flight, so the service's own cost is the difference.
type serviceWorkload struct {
	bin      string
	urls     []string // path?query of every experiment in every format
	names    []string // experiment names
	order    []int    // the warm phase's seeded request order
	ref      sync.Map // url -> first body seen (every later one must equal it)
	peerDone bool
}

func (w *serviceWorkload) roundsPerPass() int { return 1 }

func (w *serviceWorkload) phases() [3]phase {
	return [3]phase{
		{"svc_cold_fig4_ms", "ms", inverse(1e3)},
		{"svc_warm_rps", "req/s", same},
		{"svc_warm_p50_us", "us", inverse(1e6)},
	}
}

const coldURL = "/v1/experiments/fig4"

// warmClients is the warm phase's closed-loop client count: two, on
// any host with two cores.
func warmClients() int { return min(2, runtime.NumCPU()) }

func (w *serviceWorkload) warmRequests(e *env) int {
	if e.smoke {
		return 200
	}
	return 4000
}

// warmBurst is how many warm requests make one timed unit: enough for
// a median latency, and a tenth of a second of the host's time.
const warmBurst = 500

// daemonPatience is how long a daemon may take to come up or to shut
// down. Both take milliseconds; the margin is for a stalled host.
const daemonPatience = 30 * time.Second

// daemon is one running rapwamd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	client *http.Client
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches rapwamd on addr over the given directories and waits
// until it answers /v1/healthz.
func (w *serviceWorkload) start(addr, results, traces string, peers []string) (*daemon, error) {
	args := []string{"-addr", addr, "-results", results, "-tracedir", traces}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","), "-self", "http://"+addr)
	}
	d := &daemon{
		cmd:    exec.Command(w.bin, args...),
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute},
	}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(daemonPatience)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			d.cmd.Wait()
			return nil, fmt.Errorf("rapwamd on %s not healthy after %v: %v\n%s", addr, daemonPatience, err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the daemon, waits for it and returns its peak RSS.
func (d *daemon) stop(e *env) float64 {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGINT)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(daemonPatience):
		d.cmd.Process.Kill()
		<-done
		e.fail("rapwamd %s did not shut down within %v of SIGINT", d.base, daemonPatience)
	}
	return peakRSSMB(d.cmd.ProcessState)
}

// reply is one finished GET.
type reply struct {
	latency time.Duration
	source  string
	body    []byte
	ok      bool
}

// get issues one GET and checks it: status 200, a source among want
// (any when empty), and a body equal to every other body this run saw
// for the URL — the first of which is held to the pinned digest when
// the URL is one of the default-parameter cells.
func (w *serviceWorkload) get(e *env, d *daemon, url string, want ...string) reply {
	e.op()
	t0 := time.Now()
	resp, err := d.client.Get(d.base + url)
	if err != nil {
		e.fail("GET %s: %v", url, err)
		return reply{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{latency: time.Since(t0), source: resp.Header.Get("X-Result-Source"), body: body}
	if err != nil || resp.StatusCode != http.StatusOK {
		e.fail("GET %s: status %d, read error %v", url, resp.StatusCode, err)
		return r
	}
	if len(want) > 0 && !slices.Contains(want, r.source) {
		e.fail("GET %s: X-Result-Source %q, want one of %v", url, r.source, want)
		return r
	}
	if first, seen := w.ref.LoadOrStore(url, body); seen {
		if !bytes.Equal(first.([]byte), body) {
			e.fail("GET %s (%s): body differs from the first one seen", url, r.source)
			return r
		}
	} else if slices.Contains(w.urls, url) || url == coldURL {
		e.digest("body"+url, body)
	}
	r.ok = true
	return r
}

// setup builds the daemon, starts it once on fresh directories to
// learn the experiment list, and draws the warm request order.
func (w *serviceWorkload) setup(e *env) error {
	bin, err := e.build("rapwamd")
	if err != nil {
		return err
	}
	w.bin = bin
	d, dirs, err := w.fresh(e, "setup")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirs)
	defer d.stop(e)
	resp, err := d.client.Get(d.base + "/v1/experiments")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var list struct {
		Experiments []struct {
			Name string `json:"name"`
		} `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return fmt.Errorf("/v1/experiments: %w", err)
	}
	w.urls, w.names = nil, nil
	for _, x := range list.Experiments {
		w.names = append(w.names, x.Name)
		for _, f := range []string{"json", "csv", "text"} {
			w.urls = append(w.urls, "/v1/experiments/"+x.Name+"?format="+f)
		}
	}
	if len(w.urls) == 0 {
		return fmt.Errorf("/v1/experiments lists no experiment")
	}
	r := &rng{s: e.seed}
	w.order = make([]int, w.warmRequests(e))
	for i := range w.order {
		w.order[i] = r.between(0, len(w.urls)-1)
	}
	return nil
}

func (w *serviceWorkload) close() {}

// fresh starts a daemon on new, empty result and trace directories
// under one parent, which it returns for removal.
func (w *serviceWorkload) fresh(e *env, tag string) (*daemon, string, error) {
	dirs, err := os.MkdirTemp(e.work, "svc-"+tag+"-")
	if err != nil {
		return nil, "", err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, dirs, err
	}
	d, err := w.start(addr, filepath.Join(dirs, "results"), filepath.Join(dirs, "traces"), nil)
	return d, dirs, err
}

// warm issues the seeded request order from n closed-loop clients and
// returns every latency and the phase's wall time. each, when set, is
// called with every reply (the traced run's span hook).
func (w *serviceWorkload) warm(e *env, d *daemon, n int, order []int, each func(client int, url string, t0 time.Time, r reply)) ([]float64, time.Duration) {
	lat := make([][]float64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(order); i += n {
				url := w.urls[order[i]]
				start := time.Now()
				r := w.get(e, d, url, "memory")
				if each != nil {
					each(c, url, start, r)
				}
				if r.ok {
					lat[c] = append(lat[c], float64(r.latency.Nanoseconds())/1e3)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all, wall
}

// round is one pass on fresh directories: cold, warm, restart.
func (w *serviceWorkload) round(e *env) {
	d, dirs, err := w.fresh(e, "round")
	if err != nil {
		e.op()
		e.fail("start rapwamd: %v", err)
		return
	}
	defer os.RemoveAll(dirs)

	// cold: one client, one request, nothing cached anywhere.
	if r := w.get(e, d, coldURL, "computed"); r.ok {
		e.unit("phase1_rate", "fig4", 1, r.latency)
	}
	e.pulse()
	// Untimed: compute every other experiment, so the warm phase
	// below meets memory hits only.
	for _, url := range w.urls {
		w.get(e, d, url, "computed", "memory")
	}
	// warm: closed loop, every request a memory hit, a burst at a
	// time. A burst is its own kind of unit: its slice of the request
	// order is the same in every round, and no other burst's.
	for lo := 0; lo < len(w.order); lo += warmBurst {
		order := w.order[lo:min(lo+warmBurst, len(w.order))]
		lat, wall := w.warm(e, d, warmClients(), order, nil)
		if len(lat) == len(order) {
			burst := fmt.Sprint("burst ", lo/warmBurst)
			e.unit("phase2_rate", burst, float64(len(lat)), wall)
			e.unit("phase3_rate", burst, 1, time.Duration(median(lat)*1e3))
		}
	}
	e.pulse()
	// restart: the same directories under a new process serve from
	// disk. The daemon that computed and served is the one whose
	// memory counts; the restarted one holds next to nothing.
	e.sample("peak_rss_mb", d.stop(e))
	addr := strings.TrimPrefix(d.base, "http://")
	d, err = w.start(addr, filepath.Join(dirs, "results"), filepath.Join(dirs, "traces"), nil)
	if err != nil {
		e.op()
		e.fail("restart rapwamd: %v", err)
		return
	}
	disk := 0
	for _, url := range w.urls {
		if r := w.get(e, d, url, "disk", "memory"); r.source == "disk" {
			disk++
		}
	}
	if disk != len(w.names) {
		e.fail("restart: %d disk hits, want one per experiment (%d)", disk, len(w.names))
	}
	d.stop(e)

	if !w.peerDone {
		w.peerDone = true
		w.peerRound(e, nil, nil)
	}
}

// peerRound runs two daemons as one cache and asks both for cheap
// distinct cells until it has seen a peer fetch (the non-owner asked
// for a cell the owner holds) and a proxied cold compute (the
// non-owner asked for a cell nobody holds). Which node owns a cell is
// a hash over the member URLs, ports included, so the harness learns
// it from the first reply instead of predicting it.
func (w *serviceWorkload) peerRound(e *env, each func(url string, t0 time.Time, r reply), after func(nodes []*daemon)) {
	dirs, err := os.MkdirTemp(e.work, "svc-peer-")
	if err != nil {
		e.fail("%v", err)
		return
	}
	defer os.RemoveAll(dirs)
	var addrs, members []string
	for i := 0; i < 2; i++ {
		addr, err := freeAddr()
		if err != nil {
			e.fail("%v", err)
			return
		}
		addrs, members = append(addrs, addr), append(members, "http://"+addr)
	}
	var nodes []*daemon
	for i, addr := range addrs {
		sub := filepath.Join(dirs, fmt.Sprint("node", i))
		d, err := w.start(addr, filepath.Join(sub, "results"), filepath.Join(sub, "traces"), members)
		if err != nil {
			e.op()
			e.fail("start peer %d: %v", i, err)
			for _, n := range nodes {
				n.stop(e)
			}
			return
		}
		nodes = append(nodes, d)
	}
	defer func() {
		for _, n := range nodes {
			n.stop(e)
		}
	}()

	ask := func(d *daemon, url string, want ...string) reply {
		t0 := time.Now()
		r := w.get(e, d, url, want...)
		if each != nil {
			each(url, t0, r)
		}
		return r
	}
	var peer, proxied bool
	for pes := 1; pes <= 8 && !(peer && proxied); pes++ {
		url := fmt.Sprintf("/v1/experiments/table2?pes=%d", pes)
		first, second := nodes[pes%2], nodes[(pes+1)%2]
		switch r := ask(first, url, "computed", "proxied"); r.source {
		case "computed": // first owns the cell and now holds it
			if ask(second, url, "peer").ok {
				peer = true
			}
		case "proxied": // second owns it and computed it for first
			proxied = r.ok
			ask(second, url, "memory", "disk")
		}
	}
	if !peer || !proxied {
		e.fail("peer round: saw peer fetch %t, proxied compute %t in 8 cells", peer, proxied)
	}
	if after != nil {
		after(nodes)
	}
}

// tracedRounds is how many rounds the traced run decomposes.
const tracedRounds = 3

func (w *serviceWorkload) traced(e *env) {
	root := e.rootSpan
	var untracedRPS float64
	if s := e.samples["phase2_rate"]; len(s) > 0 {
		untracedRPS = s[len(s)-1]
	}

	// What the daemon's cold fig4 costs without the daemon: the same
	// driver in this process over an empty trace store.
	refDir := filepath.Join(e.work, "svc-ref-store")
	var ref time.Duration
	if _, err := rapwam.SetTraceDir(refDir); err != nil {
		e.fail("%v", err)
	} else {
		rapwam.ResetTraceCache()
		ref = e.rec.do(root, "experiments", "fig4 in-process reference", func() {
			if _, err := rapwam.RunFigure4(context.Background(), []int{1, 2, 4, 8}, cacheSizes); err != nil {
				e.fail("RunFigure4: %v", err)
			}
		})
		rapwam.SetTraceStore(nil)
		os.RemoveAll(refDir)
	}

	bySource := map[string]int{}
	latBy := map[string][]float64{} // "phase/source" -> microseconds
	var mu sync.Mutex
	note := func(parent int, phase string) func(url string, t0 time.Time, r reply) {
		return func(url string, t0 time.Time, r reply) {
			e.rec.add(parent, "service", "GET "+url, t0, r.latency, map[string]int64{"bytes": int64(len(r.body))})
			mu.Lock()
			bySource[r.source]++
			latBy[phase+"/"+r.source] = append(latBy[phase+"/"+r.source], float64(r.latency.Nanoseconds())/1e3)
			mu.Unlock()
		}
	}
	timedGet := func(parent int, phase string, d *daemon, url string, want ...string) reply {
		t0 := time.Now()
		r := w.get(e, d, url, want...)
		note(parent, phase)(url, t0, r)
		return r
	}

	rounds := tracedRounds
	if e.smoke {
		rounds = 1
	}
	var cold, warmRPS, warm1RPS []float64
	var computes, sheds float64
	for round := 0; round < rounds; round++ {
		d, dirs, err := w.fresh(e, "traced")
		if err != nil {
			e.op()
			e.fail("start rapwamd: %v", err)
			return
		}
		span := e.rec.start(root, "harness", "cold")
		if r := timedGet(span, "cold", d, coldURL, "computed"); r.ok {
			cold = append(cold, float64(r.latency.Nanoseconds())/1e6)
		}
		e.rec.end(span, nil)

		span = e.rec.start(root, "harness", "warm-up")
		for _, url := range w.urls {
			timedGet(span, "warm-up", d, url, "computed", "memory")
		}
		e.rec.end(span, nil)

		span = e.rec.start(root, "harness", "warm")
		hook := note(span, "warm")
		lat, wall := w.warm(e, d, warmClients(), w.order, func(_ int, url string, t0 time.Time, r reply) { hook(url, t0, r) })
		e.rec.end(span, nil)
		warmRPS = append(warmRPS, float64(len(lat))/wall.Seconds())

		span = e.rec.start(root, "harness", "warm 1 client")
		hook = note(span, "warm1")
		half := w.order[:len(w.order)/2]
		lat, wall = w.warm(e, d, 1, half, func(_ int, url string, t0 time.Time, r reply) { hook(url, t0, r) })
		e.rec.end(span, nil)
		warm1RPS = append(warm1RPS, float64(len(lat))/wall.Seconds())

		c, s := w.stats(e, d)
		computes, sheds = computes+c, sheds+s

		span = e.rec.start(root, "harness", "restart")
		d.stop(e)
		addr := strings.TrimPrefix(d.base, "http://")
		d, err = w.start(addr, filepath.Join(dirs, "results"), filepath.Join(dirs, "traces"), nil)
		if err != nil {
			e.op()
			e.fail("restart rapwamd: %v", err)
			return
		}
		for _, url := range w.urls {
			timedGet(span, "restart", d, url, "disk", "memory")
		}
		e.rec.end(span, nil)
		d.stop(e)
		os.RemoveAll(dirs)
	}

	span := e.rec.start(root, "harness", "peer")
	hook := note(span, "peer")
	w.peerRound(e, hook, func(nodes []*daemon) {
		w.peerBlobs(e, span, nodes[0])
		for _, d := range nodes {
			c, s := w.stats(e, d)
			computes, sheds = computes+c, sheds+s
		}
	})
	e.rec.end(span, nil)

	e.set("service.warm_p50_us", median(latBy["warm/memory"]))
	e.set("service.warm_p99_us", percentile(latBy["warm/memory"], 99))
	e.set("service.mem_hit_p50_us", median(latBy["warm1/memory"]))
	e.set("service.disk_hit_p50_us", median(latBy["restart/disk"]))
	e.set("service.peer_fetch_p50_us", median(latBy["peer/peer"]))
	e.set("service.proxy_cold_ms", median(latBy["peer/proxied"])/1e3)
	e.set("service.cold_overhead_ms", median(cold)-float64(ref.Nanoseconds())/1e6)
	e.set("service.warm_1client_rps", median(warm1RPS))
	e.set("service.computes", computes)
	e.set("service.sheds", sheds)
	for _, src := range []string{"memory", "disk", "computed", "peer", "proxied"} {
		e.set("service.requests_by_source."+src, float64(bySource[src]))
	}
	if rps := median(warmRPS); untracedRPS > 0 && rps > 0 {
		e.set("harness.trace_overhead_pct", 100*(untracedRPS/rps-1))
	}
}

// stats reads the daemon's own counters.
func (w *serviceWorkload) stats(e *env, d *daemon) (computes, sheds float64) {
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		e.fail("GET /v1/stats: %v", err)
		return 0, 0
	}
	defer resp.Body.Close()
	var body struct {
		Computes float64 `json:"computes"`
		Sheds    float64 `json:"sheds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		e.fail("/v1/stats: %v", err)
	}
	return body.Computes, body.Sheds
}

// peerBlobs times the storage layer's peer backend alone: every
// result object of node d fetched over its blob API.
func (w *serviceWorkload) peerBlobs(e *env, parent int, d *daemon) {
	peer := storage.NewPeer(d.client, []string{d.base + "/v1/blobs/results"})
	names, err := peer.List("")
	if err != nil || len(names) == 0 {
		e.fail("peer list: %d objects, %v", len(names), err)
		return
	}
	var lat []float64
	for rep := 0; rep < 20; rep++ {
		for _, name := range names {
			e.op()
			d := e.rec.do(parent, "storage", "Peer.Get", func() {
				rc, err := peer.Get(name)
				if err != nil {
					e.fail("peer get %s: %v", name, err)
					return
				}
				if _, err := io.Copy(io.Discard, rc); err != nil {
					e.fail("peer get %s: %v", name, err)
				}
				rc.Close()
			})
			lat = append(lat, float64(d.Nanoseconds())/1e3)
		}
	}
	e.set("storage.peer_get_p50_us", median(lat))
}
