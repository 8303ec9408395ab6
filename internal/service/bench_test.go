package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
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
	resp, err := http.Get(ts.URL + warmPath)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warming %s: status %d", warmPath, resp.StatusCode)
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
