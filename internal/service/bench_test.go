package service

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/experiments"
)

// benchServer builds a server with a warmed result cache for the given
// path: the serving-layer benchmarks measure the steady state the
// daemon lives in (every request a cache hit), not the one-off grid
// computation.
func benchServer(b *testing.B, warmPath string) *httptest.Server {
	b.Helper()
	s, err := New(Config{ResultDir: b.TempDir(), TraceDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	if err := warmGet(ts.Client(), ts.URL+warmPath); err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkServiceWarm is the serving-layer load generator: sequential
// warm-cache requests over real HTTP, reporting requests/s and p50/p99
// latency.
func BenchmarkServiceWarm(b *testing.B) {
	for _, tc := range []struct {
		name, path string
	}{
		{"table2", "/v1/experiments/table2?pes=2"},
		{"fig2csv", "/v1/experiments/fig2?pes=1,2&format=csv"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ts := benchServer(b, tc.path)
			client := ts.Client()
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				resp, err := client.Get(ts.URL + tc.path)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				lat = append(lat, time.Since(t0))
			}
			elapsed := time.Since(start)
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			pct := func(p float64) time.Duration {
				idx := int(p * float64(len(lat)-1))
				return lat[idx]
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			b.ReportMetric(float64(pct(0.50).Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(pct(0.99).Nanoseconds()), "p99-ns")
		})
	}
}

// BenchmarkServiceWarmMix is the in-process twin of the harness's
// service-mix warm phase: every registry experiment (default
// parameters) in every format, requested in a seeded random order by 2
// concurrent clients over real HTTP; reports aggregate requests/s.
func BenchmarkServiceWarmMix(b *testing.B) {
	s, err := New(Config{ResultDir: b.TempDir(), TraceDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	var urls []string
	for _, e := range experiments.Registry() {
		for _, format := range []string{"json", "csv", "text"} {
			urls = append(urls, ts.URL+"/v1/experiments/"+e.Name+"?format="+format)
		}
	}
	// Warm every URL: the json of each experiment computes, every
	// request after it is a memory hit.
	for _, u := range urls {
		if err := warmGet(client, u); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	order := make([]int, 4096)
	for i := range order {
		order[i] = rng.Intn(len(urls))
	}
	b.Run("2clients", func(b *testing.B) {
		const clients = 2
		errs := make(chan error, clients)
		b.ResetTimer()
		start := time.Now()
		for c := 0; c < clients; c++ {
			go func(c int) {
				for i := c; i < b.N; i += clients {
					if err := warmGet(client, urls[order[i%len(order)]]); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(c)
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
	})
}

// warmGet performs one request and drains it, failing on a non-200.
func warmGet(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// BenchmarkServiceWarmParallel drives the warm cache with concurrent
// clients (the many-readers steady state); reports aggregate
// requests/s.
func BenchmarkServiceWarmParallel(b *testing.B) {
	ts := benchServer(b, "/v1/experiments/table2?pes=2")
	client := ts.Client()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Get(ts.URL + "/v1/experiments/table2?pes=2")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
}
