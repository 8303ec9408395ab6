package service

import (
	"errors"
	"io"
	iofs "io/fs"
	"net/http"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/blob"
)

// Cluster-tier benchmarks: what a warm request costs when the answer is on
// this node's own disk, when it must be fetched from a peer, and when
// the node has to proxy the whole compute to the cell's owner — the
// three price points of the cluster read path.

const clusterBenchPath = "/v1/experiments/table2?pes=2"

var clusterBenchKey = CacheKey{Experiment: "table2", Params: "pes=2"}

// benchFleet builds a two-node fleet with the benchmark cell warmed on
// the cell's owner, returning (fleet, owner index, non-owner index).
func benchFleet(b *testing.B, wrap func(blob.Backend) blob.Backend) (*testFleet, int, int) {
	b.Helper()
	f := newBenchFleet(b, 2, wrap)
	owner := -1
	o := storage.Rendezvous(clusterBenchKey.hash(), f.urls)[0]
	for i, nd := range f.nodes {
		if nd.url == o {
			owner = i
		}
	}
	if owner < 0 {
		b.Fatalf("owner %s not in fleet %v", o, f.urls)
	}
	resp, err := http.Get(f.nodes[owner].url + clusterBenchPath)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warming owner: status %d", resp.StatusCode)
	}
	return f, owner, 1 - owner
}

// newBenchFleet is newTestFleet for benchmarks (testing.B cleanup).
func newBenchFleet(b *testing.B, n int, wrap func(blob.Backend) blob.Backend) *testFleet {
	b.Helper()
	f := &testFleet{wrap: wrap}
	for i := 0; i < n; i++ {
		nd := &testNode{result: blob.NewMem()}
		nd.hts = newNodeListener(nd)
		b.Cleanup(nd.hts.Close)
		nd.url = nd.hts.URL
		f.nodes = append(f.nodes, nd)
		f.urls = append(f.urls, nd.url)
	}
	for _, nd := range f.nodes {
		srv, err := New(Config{
			ResultBackend: nd.result,
			Parallelism:   2,
			Peers:         f.urls,
			SelfURL:       nd.url,
			PeerClient:    &http.Client{Timeout: 30 * time.Second},
			PeerWrap:      f.wrap,
		})
		if err != nil {
			b.Fatal(err)
		}
		nd.srv = srv
		h := srv.Handler()
		nd.handler.Store(&h)
	}
	return f
}

// evict drops a node's copy of the benchmark cell from both cache
// layers, so the next request must go to the cluster.
func evict(b *testing.B, nd *testNode) {
	b.Helper()
	nd.srv.cache.mu.Lock()
	delete(nd.srv.cache.mem, clusterBenchKey.hash())
	nd.srv.cache.mu.Unlock()
	if err := nd.result.Delete(clusterBenchKey.name()); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		b.Fatalf("evicting local copy: %v", err)
	}
}

func benchGet(b *testing.B, client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkClusterWarmLocalHit: the baseline — the requested cell is in
// the node's own cache (full HTTP round trip included), the price every
// non-first request pays regardless of cluster size.
func BenchmarkClusterWarmLocalHit(b *testing.B) {
	f, owner, _ := benchFleet(b, nil)
	client := &http.Client{Timeout: 30 * time.Second}
	url := f.nodes[owner].url + clusterBenchPath
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, client, url)
	}
}

// BenchmarkClusterWarmPeerFetch: the cell is warm on a peer but absent
// locally — one blob fetch over HTTP, envelope verification and a local
// write-through per request (the local copy is evicted every
// iteration to keep the path cold).
func BenchmarkClusterWarmPeerFetch(b *testing.B) {
	f, _, other := benchFleet(b, nil)
	client := &http.Client{Timeout: 30 * time.Second}
	url := f.nodes[other].url + clusterBenchPath
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		evict(b, f.nodes[other])
		b.StartTimer()
		benchGet(b, client, url)
	}
}

// BenchmarkClusterColdProxyHop: the cell is absent locally AND the peer
// blob fetch is unavailable (every peer read faults), so the node runs
// the full cold path: miss, failed peer fetch, proxied compute to the
// warm owner, verification and local write-through. The delta over
// WarmPeerFetch is what the proxy hop itself costs.
func BenchmarkClusterColdProxyHop(b *testing.B) {
	f, _, other := benchFleet(b, func(bk blob.Backend) blob.Backend {
		return blob.NewFault(bk, blob.Faults{Seed: 1, ReadErr: 1})
	})
	client := &http.Client{Timeout: 30 * time.Second}
	url := f.nodes[other].url + clusterBenchPath
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		evict(b, f.nodes[other])
		b.StartTimer()
		benchGet(b, client, url)
	}
}
