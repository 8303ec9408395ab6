package core_test

// The mechanism guard for the quantum dispatcher: on the paper's 8-PE
// shapes, where most PEs wait on a parcall frame or idle most of the
// time, almost every cycle must run inside a quantum that steps only
// the running workers. Parity tests cannot see a dispatcher that falls
// back to the round-robin and stays exact but slow; this test can. The
// engine is deterministic, so the counts repeat exactly.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
)

func TestQuantumCoversMostCycles(t *testing.T) {
	for _, tc := range []struct {
		bench  string
		pes    int
		maxPct float64 // round-robin share of all cycles
	}{
		// The owner's own goal stack holds the rows still to hand out
		// while every other PE waits: no idle PE can steal from it.
		{"matrix-32", 8, 10},
		{"qsort", 8, 5},
	} {
		b, ok := bench.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", tc.bench)
		}
		code, err := compile.Compile(b.Source, b.Query, compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(code, core.Config{PEs: tc.pes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		rr := eng.RoundRobinCycles()
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		pct := 100 * float64(rr) / float64(res.Stats.Cycles)
		t.Logf("%s@%d: %d of %d cycles in the round-robin (%.1f%%)", tc.bench, tc.pes, rr, res.Stats.Cycles, pct)
		if pct > tc.maxPct {
			t.Errorf("%s@%d: the round-robin dispatched %.1f%% of the cycles, want at most %.0f%%",
				tc.bench, tc.pes, pct, tc.maxPct)
		}
	}
}
