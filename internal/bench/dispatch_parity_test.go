package bench

// Dispatcher parity on real programs: the default dispatcher (runner
// quanta, inert-poll elision) must emit the trace, statistics and
// answers of the reference one-instruction-per-tick round-robin
// (core.Config.ReferenceDispatch) at PE counts the goldens do not pin —
// odd ones, and more PEs than the program has parallel work for, where
// most workers wait or idle and the quanta elide the most.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/trace"
)

func TestDispatcherParityOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("two engine runs per cell; skipped in -short")
	}
	names := append(Names(), "matrix-32", "qsort-2000", "deriv-128")
	for _, name := range names {
		for _, pes := range []int{1, 2, 3, 8, 16} {
			name, pes := name, pes
			t.Run(fmt.Sprintf("%s/%dpe", name, pes), func(t *testing.T) {
				t.Parallel()
				refFP, ref := dispatchFingerprint(t, name, pes, true)
				gotFP, got := dispatchFingerprint(t, name, pes, false)
				if !reflect.DeepEqual(gotFP, refFP) {
					t.Errorf("trace differs: default %+v, reference %+v", gotFP, refFP)
				}
				if !reflect.DeepEqual(got.Stats, ref.Stats) {
					t.Errorf("stats differ:\ndefault   %+v\nreference %+v", got.Stats, ref.Stats)
				}
				if got.Success != ref.Success || !reflect.DeepEqual(got.Bindings, ref.Bindings) {
					t.Errorf("answers differ: default %v %v, reference %v %v",
						got.Success, got.Bindings, ref.Success, ref.Bindings)
				}
			})
		}
	}
}

// dispatchFingerprint runs the parallel build of a benchmark under the
// chosen dispatcher and fingerprints its RWT2 trace.
func dispatchFingerprint(t *testing.T, name string, pes int, reference bool) (goldenCell, *core.Result) {
	t.Helper()
	var res *core.Result
	fp := fingerprintRun(t, name, pes, false, func(b Benchmark, sink trace.Sink) error {
		code, err := compile.Compile(b.Source, b.Query, compile.Options{})
		if err != nil {
			return err
		}
		eng, err := core.New(code, core.Config{PEs: pes, Sink: sink, ReferenceDispatch: reference})
		if err != nil {
			return err
		}
		defer eng.Close()
		if res, err = eng.Run(); err != nil {
			return err
		}
		if b.Check != nil {
			return b.Check(res)
		}
		return nil
	})
	return fp, res
}
