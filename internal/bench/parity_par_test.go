package bench

// Golden parity for parallel generation: encoding a benchmark cell's
// reference stream through trace.ParallelChunkWriter must reproduce
// the exact golden SHA-256 of the sequential encoder — with no
// EmulatorVersion bump — at every worker count. This is the
// acceptance gate for the parallel quantum-generation path: the
// pipeline may move encode and I/O off the engine's goroutine, but
// the bytes (and so the content addresses of stored traces) must not
// move at all.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// parallelFingerprint is traceFingerprint through the parallel encoder.
func parallelFingerprint(t *testing.T, name string, pes int, sequential bool, workers int) goldenCell {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	var enc bytes.Buffer
	cw, err := trace.NewParallelChunkWriter(&enc, trace.Meta{
		Benchmark:       name,
		PEs:             pes,
		Sequential:      sequential,
		EmulatorVersion: core.EmulatorVersion,
	}, workers)
	if err != nil {
		t.Fatalf("%s: NewParallelChunkWriter: %v", goldenKey(name, pes, sequential), err)
	}
	if _, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: pes, Sequential: sequential, Sink: cw}); err != nil {
		cw.Close()
		t.Fatalf("%s: run: %v", goldenKey(name, pes, sequential), err)
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("%s: close: %v", goldenKey(name, pes, sequential), err)
	}
	m := cw.Meta()
	sum := sha256.Sum256(enc.Bytes())
	return goldenCell{
		SHA256: hex.EncodeToString(sum[:]),
		Refs:   m.Refs,
		PerPE:  m.PerPE,
	}
}

func TestGoldenTraceParityParallelGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs; skipped in -short")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (generate with -update on the sequential suite): %v", goldenPath, err)
	}
	var goldens map[string]goldenCell
	if err := json.Unmarshal(data, &goldens); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	// deriv and qsort at 1 and 8 PEs bound the runtime; the sequential
	// suite covers the full Names() grid and the codec byte-parity
	// tests (internal/trace) cover the encoder exhaustively.
	for _, name := range []string{"deriv", "qsort"} {
		for _, pes := range []int{1, 8} {
			for _, seq := range []bool{pes == 1, false} {
				key := goldenKey(name, pes, seq)
				want, ok := goldens[key]
				if !ok {
					t.Errorf("%s: missing golden", key)
					continue
				}
				for _, workers := range []int{1, 4} {
					got := parallelFingerprint(t, name, pes, seq, workers)
					if got.SHA256 != want.SHA256 {
						t.Errorf("%s workers=%d: trace bytes changed:\n got sha256 %s\nwant sha256 %s",
							key, workers, got.SHA256, want.SHA256)
					}
					if got.Refs != want.Refs {
						t.Errorf("%s workers=%d: refs = %d, want %d", key, workers, got.Refs, want.Refs)
					}
				}
			}
		}
	}
}
