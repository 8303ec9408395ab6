package experiments

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// shared is the Runner of the tests that only read results: like
// `experiments -exp all`, they share one in-memory trace store, so each
// cell is emulated once per test binary. Tests that attach a store, count
// engine runs or cancel mid-run build their own Runner.
var shared = new(bench.Runner)

// storeRunner returns a Runner over a fresh store rooted in a test
// temp dir.
func storeRunner(t *testing.T) *bench.Runner {
	t.Helper()
	s, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &bench.Runner{Store: s}
}

// cellBuffer decodes the cell's trace from r's store (generating the
// cell on first need) for tests that compare against in-memory replay.
func cellBuffer(t *testing.T, r *bench.Runner, b bench.Benchmark, pes int, sequential bool) *trace.Buffer {
	t.Helper()
	buf := new(trace.Buffer)
	err := r.UseCell(context.Background(), b, pes, sequential, func(s *tracestore.Store, k tracestore.Key) error {
		buf.Refs = buf.Refs[:0]
		return replayCell(s, k, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func benchByName(t *testing.T, name string) (bench.Benchmark, bool) {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing", name)
	}
	return b, ok
}

// cacheRatio replays a trace through one cache configuration — the
// sequential one-config-per-walk path the fan-out pipeline replaced,
// kept in tests as the reference formulation.
func cacheRatio(buf *trace.Buffer, cfg cache.Config) float64 {
	sim := cache.New(cfg)
	buf.Replay(sim)
	return sim.Stats().TrafficRatio()
}
