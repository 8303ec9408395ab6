package bench

// Sharded-execution golden parity: the speculative per-PE dispatcher
// (core.Config.ExecShards > 1) promises byte-identical RWT2 traces at
// every shard count — same goldens, same content addresses, no
// EmulatorVersion bump. This test runs the full pinned grid (every
// benchmark in Names() at 1 and 8 PEs, sequential and parallel)
// through the sharded engine at several shard counts and holds the
// digests against the same golden file the serial dispatcher is pinned
// to. A sequential or 1-PE cell exercises the mode's fall-through (no
// epoch ever fires); the 8-PE parallel cells exercise the epoch
// machinery end to end.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/trace"
)

func execShardCounts() []int {
	counts := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

func TestGoldenTraceParityShards(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid; skipped in -short")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (generate with -update on the sequential suite): %v", goldenPath, err)
	}
	var goldens map[string]goldenCell
	if err := json.Unmarshal(data, &goldens); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	for _, shards := range execShardCounts() {
		for _, c := range parityCells() {
			c, shards := c, shards
			key := goldenKey(c.name, c.pes, c.seq)
			t.Run(fmt.Sprintf("%dsh/%s", shards, key), func(t *testing.T) {
				t.Parallel()
				want, ok := goldens[key]
				if !ok {
					t.Fatalf("no golden for %s (regenerate with -update)", key)
				}
				got := traceFingerprintShards(t, c.name, c.pes, c.seq, shards)
				if got.Refs != want.Refs {
					t.Errorf("refs = %d, golden %d", got.Refs, want.Refs)
				}
				for pe := 0; pe < len(want.PerPE) && pe < len(got.PerPE); pe++ {
					if got.PerPE[pe] != want.PerPE[pe] {
						t.Errorf("PE %d refs = %d, golden %d", pe, got.PerPE[pe], want.PerPE[pe])
					}
				}
				if got.SHA256 != want.SHA256 {
					t.Errorf("RWT2 digest = %s, golden %s: sharded execution changed the emitted trace at %d shards",
						got.SHA256, want.SHA256, shards)
				}
			})
		}
	}
}

// traceFingerprintShards is traceFingerprint with the engine driven
// directly under the sharded dispatcher at the given host-shard count
// (no product path sets core.Config.ExecShards). The goldens are
// shared: the sharded merge must reproduce the reference stream
// byte-for-byte at every shard count.
func traceFingerprintShards(t *testing.T, name string, pes int, sequential bool, shards int) goldenCell {
	t.Helper()
	return fingerprintRun(t, name, pes, sequential, func(b Benchmark, sink trace.Sink) error {
		code, err := compile.Compile(b.Source, b.Query, compile.Options{Sequential: sequential})
		if err != nil {
			return err
		}
		eng, err := core.New(code, core.Config{PEs: pes, Sink: sink, ExecShards: shards})
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return err
		}
		eng.Close()
		if b.Check != nil {
			return b.Check(res)
		}
		return nil
	})
}
