package core

import (
	"regexp"
	"testing"

	"repro/internal/compile"
	"repro/internal/mem"
)

// runQuery compiles and runs a program+query, failing the test on
// compile or machine errors.
func runQuery(t *testing.T, program, query string, pes int, sequential bool) *Result {
	t.Helper()
	code, err := compile.Compile(program, query, compile.Options{Sequential: sequential})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	layout := mem.Layout{
		Workers: pes,
		Heap:    1 << 16, Local: 1 << 14, Control: 1 << 14,
		Trail: 1 << 13, PDL: 1 << 10, Goal: 1 << 10, Msg: 1 << 8,
	}
	eng, err := New(code, Config{PEs: pes, Layout: layout, MaxCycles: 50_000_000})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func wantBinding(t *testing.T, res *Result, name, want string) {
	t.Helper()
	if !res.Success {
		t.Fatalf("query failed, want %s = %s", name, want)
	}
	if got := res.Bindings[name]; got != want {
		t.Errorf("%s = %s, want %s", name, got, want)
	}
}

func TestFacts(t *testing.T) {
	res := runQuery(t, "likes(mary, wine). likes(john, beer).", "likes(mary, X)", 1, true)
	wantBinding(t, res, "X", "wine")
}

func TestFactFailure(t *testing.T) {
	res := runQuery(t, "likes(mary, wine).", "likes(bob, X)", 1, true)
	if res.Success {
		t.Error("query should fail")
	}
}

func TestBacktrackingThroughFacts(t *testing.T) {
	// First clause fails against the test goal; backtracking finds the
	// second.
	res := runQuery(t, `
		p(1). p(2). p(3).
		q(2).
		r(X) :- p(X), q(X).
	`, "r(X)", 1, true)
	wantBinding(t, res, "X", "2")
}

func TestUnificationStructures(t *testing.T) {
	res := runQuery(t, "eq(X, X).", "eq(f(g(1), h(A)), f(B, h(2)))", 1, true)
	wantBinding(t, res, "A", "2")
	wantBinding(t, res, "B", "g(1)")
}

func TestAppend(t *testing.T) {
	prog := `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`
	res := runQuery(t, prog, "app([1,2,3], [4,5], X)", 1, true)
	wantBinding(t, res, "X", "[1,2,3,4,5]")
}

func TestAppendSplit(t *testing.T) {
	// Backtracking through append: find a split of [1,2].
	prog := `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
		first_split(X, Y) :- app(X, Y, [1,2]), X = [_|_].
	`
	res := runQuery(t, prog, "first_split(A, B)", 1, true)
	wantBinding(t, res, "A", "[1]")
	wantBinding(t, res, "B", "[2]")
}

func TestNaiveReverse(t *testing.T) {
	prog := `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
		nrev([], []).
		nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
	`
	res := runQuery(t, prog, "nrev([1,2,3,4,5], X)", 1, true)
	wantBinding(t, res, "X", "[5,4,3,2,1]")
}

func TestArithmetic(t *testing.T) {
	res := runQuery(t, "calc(X, Y) :- Y is X * 3 + (10 - 4) // 2.", "calc(5, R)", 1, true)
	wantBinding(t, res, "R", "18")
}

func TestArithmeticComparisons(t *testing.T) {
	prog := `
		max(X, Y, X) :- X >= Y.
		max(X, Y, Y) :- X < Y.
	`
	res := runQuery(t, prog, "max(3, 7, M)", 1, true)
	wantBinding(t, res, "M", "7")
	res = runQuery(t, prog, "max(9, 2, M)", 1, true)
	wantBinding(t, res, "M", "9")
}

func TestNegativeNumbers(t *testing.T) {
	res := runQuery(t, "neg(X, Y) :- Y is -X + 1.", "neg(5, R)", 1, true)
	wantBinding(t, res, "R", "-4")
}

func TestModAndRem(t *testing.T) {
	res := runQuery(t, "m(A, B) :- A is 7 mod 3, B is -7 rem 3.", "m(A, B)", 1, true)
	wantBinding(t, res, "A", "1")
	wantBinding(t, res, "B", "-1")
}

func TestCut(t *testing.T) {
	prog := `
		f(X, zero) :- X =< 0, !.
		f(_, pos).
	`
	res := runQuery(t, prog, "f(-3, R)", 1, true)
	wantBinding(t, res, "R", "zero")
	res = runQuery(t, prog, "f(3, R)", 1, true)
	wantBinding(t, res, "R", "pos")
}

func TestCutPrunesAlternatives(t *testing.T) {
	prog := `
		p(1). p(2).
		q(X) :- p(X), !, X > 1.
	`
	// Cut commits to p(1); X > 1 then fails and there is no retry.
	res := runQuery(t, prog, "q(_)", 1, true)
	if res.Success {
		t.Error("cut should prevent finding p(2)")
	}
}

func TestFailDrivenFailure(t *testing.T) {
	res := runQuery(t, "p(1).", "p(X), fail", 1, true)
	if res.Success {
		t.Error("fail/0 should fail the query")
	}
}

func TestTypeTests(t *testing.T) {
	res := runQuery(t, "t(X) :- atom(a), integer(3), nonvar(f(X)), var(X), atomic(7).", "t(_)", 1, true)
	if !res.Success {
		t.Error("type test conjunction should succeed")
	}
}

func TestStructuralEquality(t *testing.T) {
	res := runQuery(t, "s :- f(1, g(2)) == f(1, g(2)), f(1) \\== f(2).", "s", 1, true)
	if !res.Success {
		t.Error("==/2 test failed")
	}
}

func TestExplicitUnifyBuiltin(t *testing.T) {
	res := runQuery(t, "u(X, Y) :- X = f(Y), Y = 3.", "u(A, B)", 1, true)
	wantBinding(t, res, "A", "f(3)")
	wantBinding(t, res, "B", "3")
}

func TestWriteOutput(t *testing.T) {
	res := runQuery(t, "hello :- write(hello), nl, write([1,2,3]).", "hello", 1, true)
	if res.Output != "hello\n[1,2,3]" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestDeepRecursion(t *testing.T) {
	prog := `
		count(0) :- !.
		count(N) :- N > 0, M is N - 1, count(M).
	`
	res := runQuery(t, prog, "count(10000)", 1, true)
	if !res.Success {
		t.Error("deep recursion failed")
	}
}

func TestLastCallOptimizationRecoversStack(t *testing.T) {
	// With LCO a deterministic loop must run in constant local stack.
	prog := `
		loop(0).
		loop(N) :- N > 0, M is N - 1, loop(M).
	`
	res := runQuery(t, prog, "loop(5000)", 1, true)
	if !res.Success {
		t.Fatal("loop failed")
	}
	if res.Stats.MaxLocal > 2000 {
		t.Errorf("local stack high water = %d words; LCO should keep it small", res.Stats.MaxLocal)
	}
}

func TestGroundAndIndepBuiltins(t *testing.T) {
	res := runQuery(t, "g :- ground(f(1,2)), indep(X, Y), X = 1, Y = 2.", "g", 1, true)
	if !res.Success {
		t.Error("ground/indep goals failed")
	}
	res = runQuery(t, "g(X) :- ground(f(X)).", "g(_)", 1, true)
	if res.Success {
		t.Error("ground/1 should fail on nonground")
	}
	res = runQuery(t, "i(X) :- indep(f(X), g(X)).", "i(_)", 1, true)
	if res.Success {
		t.Error("indep/2 should fail on shared variable")
	}
}

// --- parallel execution ---

const fibProg = `
	fib(0, 0).
	fib(1, 1).
	fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,
		(fib(N1, F1) & fib(N2, F2)),
		F is F1 + F2.
`

func TestParallelFib(t *testing.T) {
	for _, pes := range []int{1, 2, 4, 8} {
		res := runQuery(t, fibProg, "fib(14, F)", pes, false)
		wantBinding(t, res, "F", "377")
		if pes > 1 && res.Stats.GoalsParallel == 0 {
			t.Errorf("%d PEs: no parallel goals scheduled", pes)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := runQuery(t, fibProg, "fib(12, F)", 1, true)
	for _, pes := range []int{1, 2, 3, 4, 7, 8} {
		par := runQuery(t, fibProg, "fib(12, F)", pes, false)
		if par.Bindings["F"] != seq.Bindings["F"] {
			t.Errorf("%d PEs: F = %s, want %s", pes, par.Bindings["F"], seq.Bindings["F"])
		}
	}
}

func TestParallelSpeedsUp(t *testing.T) {
	seq := runQuery(t, fibProg, "fib(15, F)", 1, false)
	par := runQuery(t, fibProg, "fib(15, F)", 8, false)
	if par.Stats.Cycles >= seq.Stats.Cycles {
		t.Errorf("8 PEs used %d cycles, 1 PE used %d; expected speedup",
			par.Stats.Cycles, seq.Stats.Cycles)
	}
}

func TestCGEConditionsFallBackToSequential(t *testing.T) {
	// X is unbound, so indep(X, X) fails and the goals run sequentially.
	prog := `
		p(1). q(2).
		both(A, B, X) :- (indep(X, X) | p(A) & q(B)).
	`
	res := runQuery(t, prog, "both(A, B, _)", 2, false)
	wantBinding(t, res, "A", "1")
	wantBinding(t, res, "B", "2")
	if res.Stats.Parcalls != 0 {
		t.Errorf("parcalls = %d, want 0 (condition fails)", res.Stats.Parcalls)
	}
}

func TestCGEConditionsHoldRunsParallel(t *testing.T) {
	prog := `
		p(1). q(2).
		both(A, B) :- (ground(7), indep(A, B) | p(A) & q(B)).
	`
	res := runQuery(t, prog, "both(A, B)", 2, false)
	wantBinding(t, res, "A", "1")
	wantBinding(t, res, "B", "2")
	if res.Stats.Parcalls != 1 {
		t.Errorf("parcalls = %d, want 1", res.Stats.Parcalls)
	}
}

func TestParallelGoalSharingGroundStructure(t *testing.T) {
	prog := `
		len([], 0).
		len([_|T], N) :- len(T, M), N is M + 1.
		two(L, A, B) :- (ground(L) | len(L, A) & len(L, B)).
	`
	res := runQuery(t, prog, "two([a,b,c], A, B)", 4, false)
	wantBinding(t, res, "A", "3")
	wantBinding(t, res, "B", "3")
}

func TestParallelFailureInsideArm(t *testing.T) {
	// The second arm always fails; the parcall must fail and the query
	// fall through to the fallback clause.
	prog := `
		ok(1).
		bad(_) :- fail.
		try(X) :- ok(X) & bad(X).
		try(99).
	`
	for _, pes := range []int{1, 2, 4} {
		res := runQuery(t, prog, "try(R)", pes, false)
		wantBinding(t, res, "R", "99")
	}
}

func TestParallelFailureBothArms(t *testing.T) {
	prog := `
		bad(_) :- fail.
		try :- bad(1) & bad(2).
	`
	for _, pes := range []int{1, 2} {
		res := runQuery(t, prog, "try", pes, false)
		if res.Success {
			t.Errorf("%d PEs: parcall with failing arms should fail", pes)
		}
	}
}

func TestNestedParallelism(t *testing.T) {
	prog := `
		leaf(1).
		tree(0, 1).
		tree(D, N) :- D > 0, D1 is D - 1,
			(tree(D1, A) & tree(D1, B)),
			N is A + B.
	`
	for _, pes := range []int{1, 3, 8} {
		res := runQuery(t, prog, "tree(6, N)", pes, false)
		wantBinding(t, res, "N", "64")
	}
}

func TestThreeWayParallelConjunction(t *testing.T) {
	prog := `
		p(1). q(2). r(3).
		all(A, B, C) :- p(A) & q(B) & r(C).
	`
	res := runQuery(t, prog, "all(A, B, C)", 4, false)
	wantBinding(t, res, "A", "1")
	wantBinding(t, res, "B", "2")
	wantBinding(t, res, "C", "3")
	if res.Stats.GoalsParallel != 3 {
		t.Errorf("parallel goals = %d, want 3", res.Stats.GoalsParallel)
	}
}

func TestQsortDifferenceListsParallel(t *testing.T) {
	prog := `
		qsort([], R, R).
		qsort([X|L], R, R0) :-
			partition(L, X, L1, L2),
			(qsort(L1, R, [X|R1]) & qsort(L2, R1, R0)).
		partition([], _, [], []).
		partition([E|R], C, [E|L1], L2) :- E < C, !, partition(R, C, L1, L2).
		partition([E|R], C, L1, [E|L2]) :- partition(R, C, L1, L2).
	`
	for _, pes := range []int{1, 2, 4, 8} {
		res := runQuery(t, prog, "qsort([27,74,17,33,94,18,46,83,65,2,31,53,64,99,68,11], S, [])", pes, false)
		wantBinding(t, res, "S", "[2,11,17,18,27,31,33,46,53,64,65,68,74,83,94,99]")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runQuery(t, fibProg, "fib(12, F)", 4, false)
	b := runQuery(t, fibProg, "fib(12, F)", 4, false)
	if a.Stats.Cycles != b.Stats.Cycles || a.Refs.Total() != b.Refs.Total() {
		t.Errorf("nondeterministic: cycles %d/%d refs %d/%d",
			a.Stats.Cycles, b.Stats.Cycles, a.Refs.Total(), b.Refs.Total())
	}
}

func TestWorkRefsCloseToSequential(t *testing.T) {
	// Figure 2's claim — RAP-WAM work close to WAM work — holds for
	// benchmarks with real per-goal work (deriv; asserted in the bench
	// suite). fib is a deliberate worst case: its body is two
	// arithmetic instructions, so parcall management dominates. Here we
	// only bound the overhead for that extreme.
	seq := runQuery(t, fibProg, "fib(13, F)", 1, true)
	par := runQuery(t, fibProg, "fib(13, F)", 1, false)
	seqRefs := float64(seq.Stats.TotalWorkRefs())
	parRefs := float64(par.Stats.TotalWorkRefs())
	if parRefs < seqRefs {
		t.Fatalf("parallel work %v below sequential %v", parRefs, seqRefs)
	}
	if parRefs/seqRefs > 6 {
		t.Errorf("RAP-WAM/WAM work ratio = %.2f even for zero-granularity goals", parRefs/seqRefs)
	}
}

func TestStolenGoalsOnMultiplePEs(t *testing.T) {
	res := runQuery(t, fibProg, "fib(15, F)", 8, false)
	if res.Stats.GoalsStolen == 0 {
		t.Error("8 PEs ran fib(15) without stealing any goal")
	}
	busy := 0
	for _, r := range res.Stats.WorkRefs {
		if r > 0 {
			busy++
		}
	}
	if busy < 4 {
		t.Errorf("only %d PEs did work", busy)
	}
}

// --- structure inspection and meta-call builtins ---

func TestFunctorDecomposition(t *testing.T) {
	res := runQuery(t, "d(T, F, N) :- functor(T, F, N).", "d(foo(a,b,c), F, N)", 1, true)
	wantBinding(t, res, "F", "foo")
	wantBinding(t, res, "N", "3")
	res = runQuery(t, "d(T, F, N) :- functor(T, F, N).", "d(hello, F, N)", 1, true)
	wantBinding(t, res, "F", "hello")
	wantBinding(t, res, "N", "0")
	res = runQuery(t, "d(T, F, N) :- functor(T, F, N).", "d([a,b], F, N)", 1, true)
	wantBinding(t, res, "N", "2")
}

func TestFunctorConstruction(t *testing.T) {
	res := runQuery(t, "c(T) :- functor(T, foo, 2).", "c(T)", 1, true)
	if !res.Success {
		t.Fatal("construction failed")
	}
	if got := res.Bindings["T"]; len(got) < 6 || got[:4] != "foo(" {
		t.Errorf("T = %s", got)
	}
	res = runQuery(t, "c(T) :- functor(T, 42, 0).", "c(T)", 1, true)
	wantBinding(t, res, "T", "42")
}

func TestArg(t *testing.T) {
	res := runQuery(t, "a(X, Y) :- arg(2, f(1, 2, 3), X), arg(1, [a,b], Y).", "a(X, Y)", 1, true)
	wantBinding(t, res, "X", "2")
	wantBinding(t, res, "Y", "a")
	res = runQuery(t, "a(X) :- arg(9, f(1), X).", "a(_)", 1, true)
	if res.Success {
		t.Error("out-of-range arg should fail")
	}
}

func TestUnivBothDirections(t *testing.T) {
	res := runQuery(t, "u(L) :- f(1, g(2)) =.. L.", "u(L)", 1, true)
	wantBinding(t, res, "L", "[f,1,g(2)]")
	res = runQuery(t, "u(T) :- T =.. [point, 3, 4].", "u(T)", 1, true)
	wantBinding(t, res, "T", "point(3,4)")
	res = runQuery(t, "u(T) :- T =.. [hello].", "u(T)", 1, true)
	wantBinding(t, res, "T", "hello")
}

func TestMetaCall(t *testing.T) {
	prog := `
		p(1). q(2).
		do(G) :- call(G).
		both(X, Y) :- do(p(X)), do(q(Y)).
	`
	res := runQuery(t, prog, "both(X, Y)", 1, true)
	wantBinding(t, res, "X", "1")
	wantBinding(t, res, "Y", "2")
}

func TestMetaCallAtomGoal(t *testing.T) {
	res := runQuery(t, "yes. go :- call(yes).", "go", 1, true)
	if !res.Success {
		t.Error("call(atom) failed")
	}
}

func TestMetaCallBacktracksIntoGoal(t *testing.T) {
	prog := `
		p(1). p(2). p(3).
		pick(X) :- call(p(X)), X > 2.
	`
	res := runQuery(t, prog, "pick(X)", 1, true)
	wantBinding(t, res, "X", "3")
}

func TestMetaCallFailures(t *testing.T) {
	res := runQuery(t, "go(G) :- call(G).", "go(_)", 1, true)
	if res.Success {
		t.Error("call(unbound) should fail")
	}
	res = runQuery(t, "go :- call(77). ", "go", 1, true)
	if res.Success {
		t.Error("call(integer) should fail")
	}
}

func TestLength(t *testing.T) {
	res := runQuery(t, "l(N) :- length([a,b,c,d], N).", "l(N)", 1, true)
	wantBinding(t, res, "N", "4")
	res = runQuery(t, "l(L) :- length(L, 3).", "l(L)", 1, true)
	if !res.Success {
		t.Fatal("length construction failed")
	}
	if got := res.Bindings["L"]; len(got) < 5 {
		t.Errorf("L = %s", got)
	}
	res = runQuery(t, "l :- length([a,b], 3).", "l", 1, true)
	if res.Success {
		t.Error("wrong length should fail")
	}
}

// --- additional semantic coverage ---

func TestIndexingDispatchAllTagClasses(t *testing.T) {
	prog := `
		kind(a, atom_a). kind(b, atom_b).
		kind(7, int_7). kind(42, int_42).
		kind([], nil). kind([_|_], cons).
		kind(f(_), str_f). kind(g(_, _), str_g).
		kind(X, var_clause) :- integer(X), X > 100.
	`
	cases := map[string]string{
		"kind(a, K)":      "atom_a",
		"kind(b, K)":      "atom_b",
		"kind(7, K)":      "int_7",
		"kind(42, K)":     "int_42",
		"kind([], K)":     "nil",
		"kind([1,2], K)":  "cons",
		"kind(f(0), K)":   "str_f",
		"kind(g(1,2), K)": "str_g",
		"kind(999, K)":    "var_clause",
	}
	for q, want := range cases {
		res := runQuery(t, prog, q, 1, true)
		wantBinding(t, res, "K", want)
	}
	// Unknown constant and unknown functor must fail fast.
	for _, q := range []string{"kind(zzz, _)", "kind(h(1), _)"} {
		if res := runQuery(t, prog, q, 1, true); res.Success {
			t.Errorf("%s should fail", q)
		}
	}
}

func TestIndexingWithUnboundFirstArgTriesAllClauses(t *testing.T) {
	prog := `
		v(a). v(7). v([]). v([x]). v(f(1)).
		pick(X, Y) :- v(X), X == Y.
	`
	for _, want := range []string{"a", "7", "[]", "[x]", "f(1)"} {
		res := runQuery(t, prog, "pick(X, "+want+")", 1, true)
		wantBinding(t, res, "X", want)
	}
}

func TestUnsafeVariableGlobalization(t *testing.T) {
	// Y first occurs in the body and is passed to the last call under
	// LCO: put_unsafe_value must globalize it so the reference survives
	// the deallocated environment.
	prog := `
		mk(X) :- helper(_, X).
		helper(_, out(Y)) :- pass(Y).
		pass(v).
	`
	res := runQuery(t, prog, "mk(R)", 1, true)
	wantBinding(t, res, "R", "out(v)")
}

func TestCutInsideParallelArmIsLocal(t *testing.T) {
	// A cut inside a parallel goal's code prunes only that goal's
	// choice points, not the parent's.
	prog := `
		c(1) :- !.
		c(2).
		par(X, Y) :- c(X) & c(Y).
		par(9, 9).
	`
	for _, pes := range []int{1, 2, 4} {
		res := runQuery(t, prog, "par(A, B)", pes, false)
		wantBinding(t, res, "A", "1")
		wantBinding(t, res, "B", "1")
	}
}

func TestFourArmCGE(t *testing.T) {
	prog := `
		w(1). x(2). y(3). z(4).
		all(A, B, C, D) :- w(A) & x(B) & y(C) & z(D).
	`
	for _, pes := range []int{1, 3, 5, 8} {
		res := runQuery(t, prog, "all(A, B, C, D)", pes, false)
		wantBinding(t, res, "A", "1")
		wantBinding(t, res, "B", "2")
		wantBinding(t, res, "C", "3")
		wantBinding(t, res, "D", "4")
		if res.Stats.GoalsParallel != 4 {
			t.Errorf("%d PEs: goals// = %d, want 4", pes, res.Stats.GoalsParallel)
		}
	}
}

func TestTwoSequentialCGEsInOneClause(t *testing.T) {
	prog := `
		p(1). q(2). r(3). s(4).
		two(A, B, C, D) :- (p(A) & q(B)), (r(C) & s(D)).
	`
	res := runQuery(t, prog, "two(A, B, C, D)", 4, false)
	wantBinding(t, res, "A", "1")
	wantBinding(t, res, "D", "4")
	if res.Stats.Parcalls != 2 {
		t.Errorf("parcalls = %d, want 2", res.Stats.Parcalls)
	}
}

func TestHeapTermsSurviveGoalCompletion(t *testing.T) {
	// Results built on a thief's heap must remain valid after the
	// thief's local/control sections are recovered.
	prog := `
		build(0, leaf).
		build(N, node(L, R)) :- N > 0, M is N - 1, (build(M, L) & build(M, R)).
		check(leaf, 1).
		check(node(L, R), N) :- check(L, A), check(R, B), N is A + B.
		go(N) :- build(4, T), check(T, N).
	`
	for _, pes := range []int{1, 2, 4, 8} {
		res := runQuery(t, prog, "go(N)", pes, false)
		wantBinding(t, res, "N", "16")
	}
}

func TestOutputInterleavingIsDeterministic(t *testing.T) {
	prog := `
		say(X) :- write(X), nl.
		go :- say(a) & say(b).
	`
	a := runQuery(t, prog, "go", 2, false)
	b := runQuery(t, prog, "go", 2, false)
	if a.Output != b.Output {
		t.Errorf("nondeterministic output: %q vs %q", a.Output, b.Output)
	}
}

func TestArithmeticOverflowFails(t *testing.T) {
	res := runQuery(t, "big(X) :- X is 1152921504606846975 * 1152921504606846975.", "big(_)", 1, true)
	if res.Success {
		t.Error("overflowing multiplication should fail, not wrap")
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	res := runQuery(t, "d(X) :- X is 1 // 0.", "d(_)", 1, true)
	if res.Success {
		t.Error("division by zero should fail")
	}
	res = runQuery(t, "m(X) :- X is 1 mod 0.", "m(_)", 1, true)
	if res.Success {
		t.Error("mod by zero should fail")
	}
}

func TestEnvironmentTrimmingAcrossCalls(t *testing.T) {
	// Deep conjunctions with permanent variables at every step.
	prog := `
		inc(X, Y) :- Y is X + 1.
		chain(A, F) :- inc(A, B), inc(B, C), inc(C, D), inc(D, E), inc(E, F).
	`
	res := runQuery(t, prog, "chain(0, F)", 1, true)
	wantBinding(t, res, "F", "5")
}

func TestPartialListUnification(t *testing.T) {
	prog := `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`
	// Unify against a partial list: X = [1|Rest].
	res := runQuery(t, prog, "app([1], Y, X), X = [_|R], Y = [2,3], R == [2,3]", 1, true)
	if !res.Success {
		t.Error("partial list unification failed")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	code, err := compile.Compile("loop :- loop.", "loop", compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(code, Config{PEs: 1, MaxCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Run(); err == nil {
		t.Error("infinite loop not aborted")
	}
}

func TestHeapOverflowReported(t *testing.T) {
	code, err := compile.Compile(`
		grow(L) :- grow([x|L]).
	`, "grow([])", compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	layout := mem.Layout{Workers: 1, Heap: 256, Local: 1 << 12, Control: 1 << 10,
		Trail: 1 << 9, PDL: 1 << 8, Goal: 1 << 8, Msg: 1 << 6}
	eng, err := New(code, Config{PEs: 1, Layout: layout, MaxCycles: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Run()
	if err == nil || res != nil {
		t.Fatalf("heap overflow not reported: res = %v, err = %v", res, err)
	}
	if ok, _ := regexp.MatchString(`^cycle \d+ pc \d+: pe0: heap overflow`, err.Error()); !ok {
		t.Errorf("err = %q, want \"cycle N pc M: pe0: heap overflow...\"", err)
	}
}
