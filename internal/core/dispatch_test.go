package core

// Dispatcher parity: the default dispatcher (quanta that step only the
// running workers, inert-poll elision for waiters and idlers) must be
// observationally identical to the reference one-instruction-per-tick
// round-robin — same trace, same statistics, same answers — for every
// program shape: sequential, parallel with stealing, parallel failure
// (kill messages, remote trail unwinding), CGE fallback and nesting.
// internal/bench's golden suite pins the same property against
// pre-optimization digests; this test localizes a violation to the
// dispatcher when it appears, and FuzzDispatcherParity extends it to
// generated programs.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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
	// The matrix shape: each level hands the rest of the chain to its
	// own goal stack and works on a row; once every PE is busy, the one
	// that holds the chain runs with a non-empty stack while all the
	// others wait, and no idle PE exists to steal from it.
	{"own-stack-runner", `
		slow(0).
		slow(N) :- N > 0, M is N - 1, slow(M).
		rows(0, 0).
		rows(N, S) :- N > 0, M is N - 1, (slow(40) & rows(M, S0)), S is S0 + 1.
	`, "rows(24, S)"},
	// Three arms run at once with idle PEs beside them. At 4+ PEs the
	// middle runner's nested parcall pushes a goal mid-cycle; at 8 and
	// 16 its failing local goal then makes it kill the later runner that
	// stole the sibling, inside one step: the later runners must see
	// both events in the same cycle.
	{"runner-set-events", `
		slow(0).
		slow(N) :- N > 0, M is N - 1, slow(M).
		bad(N) :- slow(N), fail.
		mid(R) :- slow(15), (bad(25) & slow(90)), R = 1.
		mid(2).
		top(R) :- (slow(120) & mid(R) & slow(100)).
	`, "top(R)"},
	// The same kill aimed backwards: at 4 PEs the short arms leave PE 1
	// idle, it steals mid/1's sibling, and the higher PE running mid/1
	// kills it; an earlier runner sees the kill on the next cycle.
	{"runner-set-kill-back", `
		slow(0).
		slow(N) :- N > 0, M is N - 1, slow(M).
		bad(N) :- slow(N), fail.
		mid(R) :- slow(15), (bad(25) & slow(90)), R = 1.
		mid(2).
		top(R) :- (slow(300) & mid(R) & slow(2) & slow(2)).
	`, "top(R)"},
	// The query fails after its parallel part, so the machine halts
	// inside a quantum with every other PE elided: none of them ticks
	// in the halting cycle.
	{"halt-in-quantum", `
		slow(0).
		slow(N) :- N > 0, M is N - 1, slow(M).
		top :- (slow(30) & slow(20) & slow(10)), slow(25), fail.
	`, "top"},
}

// runDispatch executes one case under the given dispatcher, returning
// the captured trace and result.
func runDispatch(t *testing.T, program, query string, pes int, reference bool) (*trace.Buffer, *Result) {
	t.Helper()
	buf, res, err := dispatchRun(t, program, query, pes, reference, 50_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf, res
}

// dispatchRun is runDispatch with a cycle bound, returning the run's
// error rather than failing on it.
func dispatchRun(t *testing.T, program, query string, pes int, reference bool, maxCycles int64) (*trace.Buffer, *Result, error) {
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
		PEs: pes, Layout: layout, MaxCycles: maxCycles,
		Sink: buf, ReferenceDispatch: reference,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	res, err := eng.Run()
	return buf, res, err
}

// sameRun fails the test unless the default dispatcher's run (quant)
// matches the reference's: every reference in order, the answers, the
// statistics and the counters.
func sameRun(t *testing.T, pes int, refTrace, quantTrace *trace.Buffer, refRes, quantRes *Result) {
	t.Helper()
	quant, ref := slices.Concat(quantTrace.Segments()...), slices.Concat(refTrace.Segments()...)
	if len(quant) != len(ref) {
		t.Fatalf("%d PEs: quantum emitted %d refs, reference %d", pes, len(quant), len(ref))
	}
	for i := range ref {
		if quant[i] != ref[i] {
			t.Fatalf("%d PEs: ref %d differs: quantum %v, reference %v", pes, i, quant[i], ref[i])
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

func TestDispatcherParity(t *testing.T) {
	for _, tc := range dispatchCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, pes := range []int{1, 2, 3, 4, 8, 16} {
				refTrace, refRes := runDispatch(t, tc.program, tc.query, pes, true)
				quantTrace, quantRes := runDispatch(t, tc.program, tc.query, pes, false)
				sameRun(t, pes, refTrace, quantTrace, refRes, quantRes)
			}
		})
	}
	t.Run("waiter-own-goals", func(t *testing.T) {
		refTrace, refRes := runWaiterOwnGoals(t, true)
		quantTrace, quantRes := runWaiterOwnGoals(t, false)
		sameRun(t, 2, refTrace, quantTrace, refRes, quantRes)
	})
}

// runWaiterOwnGoals drives a state no program reaches with this
// scheduler — a waiter whose frame still runs while its own goal stack
// holds a goal (a waiter's poll drains its own stack before it can sit
// inert) — to pin that the quantum rule still treats such a waiter as
// active: its next poll pops the goal. PE 0 runs top/0 until it has
// pushed slow(40) and PE 1 has not stolen it (steals are switched off);
// the run stops there, the goal moves to PE 1's stack, PE 1 waits on
// PE 0's frame, and the run resumes under the same dispatcher.
func runWaiterOwnGoals(t *testing.T, reference bool) (*trace.Buffer, *Result) {
	t.Helper()
	code, err := compile.Compile(fuzzSlow+`
		top :- (slow(60) & slow(40)).
	`, "top", compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	layout := mem.Layout{
		Workers: 2,
		Heap:    1 << 12, Local: 1 << 12, Control: 1 << 12,
		Trail: 1 << 10, PDL: 1 << 8, Goal: 1 << 8, Msg: 1 << 6,
	}
	for stopAt := int64(1); stopAt < 200; stopAt++ {
		buf := trace.NewBuffer(1 << 12)
		e, err := New(code, Config{PEs: 2, Layout: layout, MaxCycles: stopAt,
			StealInterval: 1 << 20, Sink: buf, ReferenceDispatch: reference})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err == nil {
			t.Fatal("top/0 finished before PE 0 pushed a goal")
		}
		w0, w1 := e.workers[0], e.workers[1]
		top := int(e.mem.Peek(w0.goalR.Base + gsTop).Int())
		if top == gsBase {
			e.Close()
			continue
		}
		defer e.Close()
		for i := gsBase; i < top; i++ {
			e.mem.Poke(w1.goalR.Base+i, e.mem.Peek(w0.goalR.Base+i))
		}
		e.mem.Poke(w1.goalR.Base+gsTop, mem.MakeInt(int64(top)))
		e.mem.Poke(w0.goalR.Base+gsTop, mem.MakeInt(gsBase))
		w1.pf = w0.pf
		w1.setState(StateWait)
		e.cfg.MaxCycles = 1 << 20
		if reference {
			err = e.runReference()
		} else {
			err = e.runMulti()
		}
		if err != nil {
			t.Fatal(err)
		}
		e.mem.Flush()
		return buf, &Result{Success: e.success, Stats: e.stats(), Refs: e.mem.Counter()}
	}
	t.Fatal("PE 0 never pushed a goal")
	return nil, nil
}

// FuzzDispatcherParity holds the default dispatcher to the reference
// on generated programs. The first byte picks a shape, the next three
// its parameters (fuzzProgram), the last the PE count (1–8). Both runs
// share a cycle bound; a run that exceeds it must fail the same way
// under both dispatchers.
func FuzzDispatcherParity(f *testing.F) {
	for i := range dispatchCases {
		f.Add(uint8(0), uint8(i), uint8(0), uint8(0), uint8(7))
		f.Add(uint8(0), uint8(i), uint8(0), uint8(0), uint8(2))
	}
	f.Add(uint8(1), uint8(6), uint8(1), uint8(3), uint8(7))
	f.Add(uint8(2), uint8(1), uint8(40), uint8(9), uint8(3))
	f.Add(uint8(3), uint8(2), uint8(1), uint8(5), uint8(5))
	f.Add(uint8(4), uint8(9), uint8(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, shape, a, b, c, pes uint8) {
		program, query := fuzzProgram(shape, a, b, c)
		n := 1 + int(pes%8)
		const maxCycles = 2_000_000
		refTrace, refRes, refErr := dispatchRun(t, program, query, n, true, maxCycles)
		quantTrace, quantRes, quantErr := dispatchRun(t, program, query, n, false, maxCycles)
		if refErr != nil || quantErr != nil {
			if fmt.Sprint(refErr) != fmt.Sprint(quantErr) {
				t.Fatalf("%d PEs: errors differ: quantum %v, reference %v", n, quantErr, refErr)
			}
			return
		}
		sameRun(t, n, refTrace, quantTrace, refRes, quantRes)
	})
}

// fuzzSlow is the busy loop the generated programs use for work.
const fuzzSlow = `
	slow(0).
	slow(N) :- N > 0, M is N - 1, slow(M).
`

// fuzzProgram builds one member of the generated family:
//   - 0: dispatchCases[a];
//   - 1: tree recursion with & at depth a%7 and fan-out 2+b%2, each
//     leaf running a loop of c%16;
//   - 2: three arms, the one at position a%3 failing after a loop of
//     b%64 while the others loop 10+c%64 and 5*(c%13), so the parcall
//     fails with its siblings at different points (some killed);
//   - 3: nested parcalls two levels deep (depths a%4 and b%4), the
//     inner one poisoned when c is odd;
//   - 4: CGEs that hold or fail — ground/1 on a list of a%12
//     elements with a variable in it when b is odd, and indep/2 on it
//     and a second list, sharing a variable when c is odd.
func fuzzProgram(shape, a, b, c uint8) (program, query string) {
	switch shape % 5 {
	case 0:
		tc := dispatchCases[int(a)%len(dispatchCases)]
		return tc.program, tc.query
	case 1:
		arms, sum := "tree(D1, A) & tree(D1, B)", "A + B"
		if b%2 == 1 {
			arms, sum = arms+" & tree(D1, C)", sum+" + C"
		}
		return fuzzSlow + fmt.Sprintf(`
			tree(0, 1) :- slow(%d).
			tree(D, N) :- D > 0, D1 is D - 1, (%s), N is %s.
		`, c%16, arms, sum), fmt.Sprintf("tree(%d, N)", a%7)
	case 2:
		arms := []string{fmt.Sprintf("ok(%d)", 10+c%64), fmt.Sprintf("ok(%d)", 5*(c%13)), fmt.Sprintf("ok(%d)", 10+c%64)}
		arms[a%3] = fmt.Sprintf("bad(%d)", b%64)
		return fuzzSlow + fmt.Sprintf(`
			ok(N) :- slow(N).
			bad(N) :- slow(N), fail.
			try(R) :- (%s & %s & %s), R = 1.
			try(0).
		`, arms[0], arms[1], arms[2]), "try(R)"
	case 3:
		inner := fmt.Sprintf("deep(%d, B)", b%4)
		if c%2 == 1 {
			inner = fmt.Sprintf("poison(%d, B)", b%4)
		}
		return fuzzSlow + fmt.Sprintf(`
			deep(0, 1) :- slow(%d).
			deep(D, N) :- D > 0, D1 is D - 1, (deep(D1, A) & deep(D1, B)), N is A + B.
			poison(D, N) :- deep(D, N), fail.
			mid(R) :- (deep(%d, A) & %s), R is A + B.
			run(R) :- (mid(A) & mid(B)), R is A + B.
			run(-1).
		`, c%8, a%4, inner), "run(R)"
	default:
		elems := make([]string, a%12)
		for i := range elems {
			elems[i] = fmt.Sprintf("e%d", i)
		}
		if b%2 == 1 && len(elems) > 0 {
			elems[len(elems)/2] = "X"
		}
		list := "[" + strings.Join(elems, ",") + "]"
		other := "[y,z]"
		if c%2 == 1 {
			other = "[y,Y,z]"
			if len(elems) > 0 {
				elems[0] = "Y"
				list = "[" + strings.Join(elems, ",") + "]"
			}
		}
		return `
			len([], 0).
			len([_|T], N) :- len(T, M), N is M + 1.
			two(L, A, B) :- (ground(L) | len(L, A) & len(L, B)).
			pair(L1, L2, A, B) :- (indep(L1, L2) | len(L1, A) & len(L2, B)).
			both(L1, L2, A, B, C, D) :- two(L1, A, B), pair(L1, L2, C, D).
		`, fmt.Sprintf("both(%s, %s, A, B, C, D)", list, other)
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
