package bench

// Golden trace parity: the emitted trace of every benchmark cell is a
// pure function of (benchmark, PEs, sequential, core.EmulatorVersion) —
// that is the contract the persistent trace store depends on (a warm
// store must stay valid across engine rewrites that do not bump the
// version). This test pins the RWT2 bytes (as a SHA-256 digest) and the
// per-PE reference sequence counts of every benchmark in Names() at 1
// and 8 PEs, sequential and parallel, against goldens generated by the
// pre-optimization engine. Any engine change that reorders, adds, drops
// or relabels even one reference fails here and must either be fixed or
// ship with an EmulatorVersion bump (which invalidates the goldens and
// every stored trace alike — regenerate with -update).
//
//	go test ./internal/bench -run TestGoldenTraceParity -update

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/golden_traces.json from the current engine")

const goldenPath = "testdata/golden_traces.json"

// goldenCell is the pinned fingerprint of one benchmark cell's trace.
type goldenCell struct {
	// SHA256 digests the exact RWT2 encoding (header with the cell's
	// metadata, chunks, footer) of the cell's reference stream.
	SHA256 string `json:"sha256"`
	// Refs is the total reference count.
	Refs int64 `json:"refs"`
	// PerPE is the per-PE reference count vector. Combined with the
	// stream digest this pins the per-PE subsequences: the RWT2 bytes
	// fix the interleaved stream, and the codec's per-PE delta state
	// means any PE relabeling changes the bytes.
	PerPE []int64 `json:"per_pe"`
}

// goldenKey names a cell in the golden file.
func goldenKey(name string, pes int, sequential bool) string {
	mode := "par"
	if sequential {
		mode = "seq"
	}
	return fmt.Sprintf("%s/%dpe/%s", name, pes, mode)
}

// traceFingerprint runs the cell's emulator execution and fingerprints
// its trace: the exact compact-codec bytes plus per-PE counts.
func traceFingerprint(t *testing.T, name string, pes int, sequential bool) goldenCell {
	t.Helper()
	return fingerprintRun(t, name, pes, sequential, func(b Benchmark, sink trace.Sink) error {
		_, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: pes, Sequential: sequential, Sink: sink})
		return err
	})
}

// fingerprintRun fingerprints the reference stream run emits for the
// cell into the compact encoder.
func fingerprintRun(t *testing.T, name string, pes int, sequential bool, run func(b Benchmark, sink trace.Sink) error) goldenCell {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	var enc bytes.Buffer
	cw, err := trace.NewChunkWriter(&enc, trace.Meta{
		Benchmark:       name,
		PEs:             pes,
		Sequential:      sequential,
		EmulatorVersion: core.EmulatorVersion,
	})
	if err != nil {
		t.Fatalf("%s: NewChunkWriter: %v", goldenKey(name, pes, sequential), err)
	}
	if err := run(b, cw); err != nil {
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

// parityCells enumerates the pinned grid: every fixed benchmark at 1
// and 8 PEs, sequential and parallel.
func parityCells() []struct {
	name string
	pes  int
	seq  bool
} {
	var cells []struct {
		name string
		pes  int
		seq  bool
	}
	for _, name := range Names() {
		for _, pes := range []int{1, 8} {
			for _, seq := range []bool{false, true} {
				cells = append(cells, struct {
					name string
					pes  int
					seq  bool
				}{name, pes, seq})
			}
		}
	}
	return cells
}

func TestGoldenTraceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid; skipped in -short")
	}
	cells := parityCells()

	if *updateGoldens {
		goldens := make(map[string]goldenCell, len(cells))
		for _, c := range cells {
			goldens[goldenKey(c.name, c.pes, c.seq)] = traceFingerprint(t, c.name, c.pes, c.seq)
		}
		data, err := json.MarshalIndent(goldens, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(goldens), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update): %v", err)
	}
	var goldens map[string]goldenCell
	if err := json.Unmarshal(data, &goldens); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if len(goldens) != len(cells) {
		t.Errorf("golden file has %d cells, grid has %d (regenerate with -update)", len(goldens), len(cells))
	}

	for _, c := range cells {
		c := c
		key := goldenKey(c.name, c.pes, c.seq)
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			want, ok := goldens[key]
			if !ok {
				t.Fatalf("no golden for %s (regenerate with -update)", key)
			}
			got := traceFingerprint(t, c.name, c.pes, c.seq)
			if got.Refs != want.Refs {
				t.Errorf("refs = %d, golden %d", got.Refs, want.Refs)
			}
			for pe := 0; pe < len(want.PerPE) && pe < len(got.PerPE); pe++ {
				if got.PerPE[pe] != want.PerPE[pe] {
					t.Errorf("PE %d refs = %d, golden %d", pe, got.PerPE[pe], want.PerPE[pe])
				}
			}
			if got.SHA256 != want.SHA256 {
				t.Errorf("RWT2 digest = %s, golden %s: the emitted trace changed; either restore bit-parity or bump core.EmulatorVersion (and -update)", got.SHA256, want.SHA256)
			}
		})
	}
}
