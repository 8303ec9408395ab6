package core

// Dispatcher parity: the quantum dispatcher (straight-line inner loops
// for a sole runner, inert-poll elision for waiters and idlers) must be
// observationally identical to the reference one-instruction-per-tick
// round-robin — same trace, same statistics, same answers — for every
// program shape: sequential, parallel with stealing, parallel failure
// (kill messages, remote trail unwinding), CGE fallback and nesting.
// internal/bench's golden suite pins the same property against
// pre-optimization digests; this test localizes a violation to the
// dispatcher when it appears.

import (
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/mem"
	"repro/internal/trace"
)

// dispatchCases are the program shapes the two dispatchers must agree
// on; the failure cases drive the kill/unwind machinery where the
// quantum bookkeeping is most delicate.
var dispatchCases = []struct {
	name    string
	program string
	query   string
}{
	{"seq-nrev", `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
		nrev([], []).
		nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
	`, "nrev([1,2,3,4,5,6,7,8,9,10,11,12], R)"},
	{"par-tree", `
		tree(0, 1).
		tree(D, N) :- D > 0, D1 is D - 1,
			(tree(D1, A) & tree(D1, B)),
			N is A + B.
	`, "tree(7, N)"},
	{"par-fail-arm", `
		ok(1).
		bad(_) :- slow(40), fail.
		slow(0).
		slow(N) :- N > 0, M is N - 1, slow(M).
		try(X) :- ok(X) & bad(X).
		try(99).
	`, "try(R)"},
	{"par-fail-both", `
		bad(N) :- slow(N), fail.
		slow(0).
		slow(N) :- N > 0, M is N - 1, slow(M).
		top(R) :- bad(60) & bad(5).
		top(7).
	`, "top(R)"},
	{"par-nested-fail", `
		leaf(0).
		deep(0, 1).
		deep(D, N) :- D > 0, D1 is D - 1,
			(deep(D1, A) & deep(D1, B)), N is A + B.
		poison(N) :- deep(3, N), fail.
		run(R) :- poison(_) & deep(4, R).
		run(-1).
	`, "run(R)"},
	{"cge-fallback", `
		len([], 0).
		len([_|T], N) :- len(T, M), N is M + 1.
		two(L, A, B) :- (ground(L) | len(L, A) & len(L, B)).
	`, "two([a,b,c,d,e], A, B)"},
}

// runDispatch executes one case under the given dispatcher, returning
// the captured trace and result.
func runDispatch(t *testing.T, program, query string, pes int, reference bool) (*trace.Buffer, *Result) {
	t.Helper()
	code, err := compile.Compile(program, query, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	layout := mem.Layout{
		Workers: pes,
		Heap:    1 << 16, Local: 1 << 14, Control: 1 << 14,
		Trail: 1 << 13, PDL: 1 << 10, Goal: 1 << 10, Msg: 1 << 8,
	}
	buf := trace.NewBuffer(1 << 16)
	eng, err := New(code, Config{
		PEs: pes, Layout: layout, MaxCycles: 50_000_000,
		Sink: buf, ReferenceDispatch: reference,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf, res
}

func TestDispatcherParity(t *testing.T) {
	for _, tc := range dispatchCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, pes := range []int{1, 2, 4, 8} {
				refTrace, refRes := runDispatch(t, tc.program, tc.query, pes, true)
				quantTrace, quantRes := runDispatch(t, tc.program, tc.query, pes, false)

				if len(quantTrace.Refs) != len(refTrace.Refs) {
					t.Fatalf("%d PEs: quantum emitted %d refs, reference %d",
						pes, len(quantTrace.Refs), len(refTrace.Refs))
				}
				for i := range refTrace.Refs {
					if quantTrace.Refs[i] != refTrace.Refs[i] {
						t.Fatalf("%d PEs: ref %d differs: quantum %v, reference %v",
							pes, i, quantTrace.Refs[i], refTrace.Refs[i])
					}
				}
				if quantRes.Success != refRes.Success {
					t.Errorf("%d PEs: success %v vs %v", pes, quantRes.Success, refRes.Success)
				}
				if !reflect.DeepEqual(quantRes.Bindings, refRes.Bindings) {
					t.Errorf("%d PEs: bindings %v vs %v", pes, quantRes.Bindings, refRes.Bindings)
				}
				if !reflect.DeepEqual(quantRes.Stats, refRes.Stats) {
					t.Errorf("%d PEs: stats differ:\nquantum   %+v\nreference %+v",
						pes, quantRes.Stats, refRes.Stats)
				}
				if *quantRes.Refs != *refRes.Refs {
					t.Errorf("%d PEs: counters differ", pes)
				}
			}
		})
	}
}

// TestEngineRejectsTooManyPEs pins the trace.MaxPEs construction limit:
// beyond it the per-PE reference counter (and the cache simulators'
// snoop directory) would silently drop PEs.
func TestEngineRejectsTooManyPEs(t *testing.T) {
	code, err := compile.Compile("a(1).", "a(X)", compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(code, Config{PEs: trace.MaxPEs + 1}); err == nil {
		t.Fatalf("New with %d PEs succeeded, want error", trace.MaxPEs+1)
	}
	eng, err := New(code, Config{PEs: trace.MaxPEs,
		Layout: mem.Layout{Workers: trace.MaxPEs, Heap: 1 << 10, Local: 1 << 10,
			Control: 1 << 10, Trail: 1 << 9, PDL: 1 << 8, Goal: 1 << 8, Msg: 1 << 6}})
	if err != nil {
		t.Fatalf("New at the %d-PE limit failed: %v", trace.MaxPEs, err)
	}
	eng.Close()
}
