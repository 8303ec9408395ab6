package bench

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// cellOutcome is everything a consumer can read of a cell: the run
// sidecar and the replayed reference stream's Table 1 tally.
type cellOutcome struct {
	Record RunRecord
	Refs   trace.Counter
}

// readCell consumes the cell through UseCell, rebuilding its consumer
// state on every attempt as the contract requires.
func readCell(ctx context.Context, r *Runner, b Benchmark) (cellOutcome, error) {
	var out cellOutcome
	err := r.UseCell(ctx, b, 2, false, func(s *tracestore.Store, k tracestore.Key) error {
		out = cellOutcome{}
		if _, err := s.LoadSidecar(k, &out.Record); err != nil {
			return err
		}
		_, err := s.Replay(k, &out.Refs)
		return err
	})
	return out, err
}

// flipStoredTrace damages one mid-file byte of the only stored trace.
func flipStoredTrace(t *testing.T, m *storage.Mem) {
	t.Helper()
	names, err := m.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.HasSuffix(name, tracestore.TraceExt) {
			continue
		}
		data := []byte(storagetest.Get(t, m, name))
		data[len(data)/2] ^= 0x40
		storagetest.Put(t, m, name, string(data))
		return
	}
	t.Fatal("no stored trace to damage")
}

// TestUseCellHealsAndDegrades drives the one heal/degrade rule through
// its three outcomes over storage.Fault: a corrupt object quarantines
// and regenerates, a flaky read retries, and a store that keeps failing
// (reads or writes) is bypassed through the in-memory store with the
// context marked degraded — the consumer sees the identical cell every
// time.
func TestUseCellHealsAndDegrades(t *testing.T) {
	b, ok := ByName("qsort-150")
	if !ok {
		t.Fatal("benchmark missing")
	}
	want, err := readCell(context.Background(), new(Runner), b)
	if err != nil {
		t.Fatal(err)
	}
	if want.Refs == (trace.Counter{}) || !want.Record.Success {
		t.Fatalf("reference cell is empty: %+v", want.Record)
	}

	cases := []struct {
		name   string
		faults storage.Faults
		// damage, when set, corrupts the stored trace after a first
		// healthy read.
		damage bool
		// wantRuns is the engine runs of the read under test.
		wantRuns        int64
		wantQuarantines int64
		wantDegraded    bool
		wantInjected    bool
	}{
		{name: "corrupt regenerates", damage: true, wantRuns: 1, wantQuarantines: 1},
		{name: "transient retries", faults: storage.Faults{Seed: 3, ReadErr: 0.4}, wantRuns: 1, wantInjected: true},
		{name: "unreadable degrades", faults: storage.Faults{ReadErr: 1}, wantRuns: 2, wantDegraded: true, wantInjected: true},
		{name: "unwritable degrades", faults: storage.Faults{WriteErr: 1}, wantRuns: 1, wantDegraded: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			media := storage.NewMem()
			fault := storage.NewFault(media, tc.faults)
			r := &Runner{Store: tracestore.NewOn(fault)}
			if tc.damage {
				if _, err := readCell(context.Background(), r, b); err != nil {
					t.Fatal(err)
				}
				flipStoredTrace(t, media)
			}
			before := r.EngineRuns()
			ctx, flag := storage.WithDegraded(context.Background())
			got, err := readCell(ctx, r, b)
			if err != nil {
				t.Fatalf("storage trouble cost the answer: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cell differs from the healthy one:\n got %+v\nwant %+v", got, want)
			}
			if n := r.EngineRuns() - before; n != tc.wantRuns {
				t.Errorf("%d engine runs, want %d", n, tc.wantRuns)
			}
			if n := r.Store.Stats().Quarantines; n != tc.wantQuarantines {
				t.Errorf("%d quarantines, want %d", n, tc.wantQuarantines)
			}
			degraded := len(flag.Components()) > 0
			if degraded != tc.wantDegraded {
				t.Errorf("degraded = %v (%v), want %v", degraded, flag.Components(), tc.wantDegraded)
			}
			if reads, _, _, _, _ := fault.Injected(); (reads > 0) != tc.wantInjected {
				t.Errorf("%d injected read faults, want some = %v", reads, tc.wantInjected)
			}

			// Whatever happened, the cell is now held somewhere that
			// answers: a healed Store, or the in-memory store.
			before = r.EngineRuns()
			if _, err := readCell(context.Background(), r, b); err != nil {
				t.Fatal(err)
			}
			if n := r.EngineRuns() - before; n != 0 {
				t.Errorf("second read emulated %d more times", n)
			}
		})
	}
}
