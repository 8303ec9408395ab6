// Package bench provides the paper's benchmark programs in &-Prolog
// (Prolog + CGE annotations) together with deterministic input
// generators and runners:
//
//   - deriv:  symbolic differentiation of a large arithmetic expression
//   - tak:    Takeuchi's function with three-way AND-parallelism
//   - qsort:  quicksort with difference lists, parallel recursion
//   - matrix: naive matrix multiplication, parallel over rows
//
// and the "large sequential benchmark" reference set standing in for
// Tick's large Prolog programs in the Table 3 locality-fit study:
//
//   - nrev:   naive reverse of a long list
//   - queens: N-queens first solution (deep backtracking)
//   - primes: sieve of Eratosthenes
//   - zebra:  the five-houses constraint puzzle (heavy backtracking)
//
// The exact 1988 inputs were not published; generators are sized so
// that instruction and reference counts land in the same range as the
// paper's Table 2 (tens of thousands of instructions, ~1e5-5e5
// references at 8 PEs).
package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Benchmark is a runnable Prolog workload.
type Benchmark struct {
	// Name identifies the benchmark ("deriv", "tak", ...).
	Name string
	// Source is the &-Prolog program text.
	Source string
	// Query is the goal to run (without "?-").
	Query string
	// Check validates the result (nil-able).
	Check func(*core.Result) error
	// Parallel reports whether the program contains CGEs.
	Parallel bool
}

// lcg is a small deterministic generator so benchmark inputs are
// reproducible without math/rand (and stable across Go versions).
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 33
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

// Paper returns the four benchmarks of the paper's Table 2, with inputs
// sized to approximate its scale.
func Paper() []Benchmark {
	return []Benchmark{Deriv(), Tak(), Qsort(), Matrix()}
}

// Large returns the sequential locality-reference suite (Table 3's
// "large benchmarks").
func Large() []Benchmark {
	return []Benchmark{NRev(), Queens(), Primes(), Zebra()}
}

// Names returns the name of every fixed benchmark the CLIs can run:
// the paper suite, the large sequential suite, and the checked-CGE
// ablation variant. Parameterized variants resolve through ByName in
// addition to these — "deriv-d<N>" (parallelism depth 0..16) and the
// sized large/paper variants "deriv-<nodes>", "qsort-<len>",
// "matrix-<n>", "nrev-<len>", "queens-<n>" and "primes-<limit>".
func Names() []string {
	var out []string
	for _, b := range append(Paper(), Large()...) {
		out = append(out, b.Name)
	}
	return append(out, DerivChecked().Name)
}

// ByName finds a benchmark by name: every fixed benchmark in Names()
// plus the parameterized variants ("deriv-checked", "deriv-d<N>",
// "nrev-<len>", "queens-<n>", "primes-<limit>", "qsort-<len>",
// "matrix-<n>", "deriv-<nodes>"). The returned Benchmark's Name equals
// the requested name, so parameterized variants key distinctly in the
// trace store.
func ByName(name string) (Benchmark, bool) {
	build, ok := resolve(name)
	if !ok {
		return Benchmark{}, false
	}
	return build(), true
}

// Known reports whether ByName resolves name, without building the
// program text: requests are validated through here on every call,
// cache hits included.
func Known(name string) bool {
	_, ok := resolve(name)
	return ok
}

// resolve parses a benchmark name into the constructor of the
// benchmark it names; ByName calls it, Known only parses.
func resolve(name string) (func() Benchmark, bool) {
	switch name {
	case "deriv":
		return Deriv, true
	case "tak":
		return Tak, true
	case "qsort":
		return Qsort, true
	case "matrix":
		return Matrix, true
	case "nrev":
		return NRev, true
	case "queens":
		return Queens, true
	case "primes":
		return Primes, true
	case "zebra":
		return Zebra, true
	case "deriv-checked":
		return DerivChecked, true
	}
	base, arg, ok := splitSizedName(name)
	if !ok {
		return nil, false
	}
	if base == "deriv" && len(arg) > 1 && arg[0] == 'd' {
		if depth, ok := parseSize(arg[1:], 0, 16); ok {
			return func() Benchmark { return DerivDepth(depth) }, true
		}
		return nil, false
	}
	n, numOK := parseSize(arg, 1, 1<<20)
	if !numOK {
		return nil, false
	}
	var sized func(int) Benchmark
	switch {
	case base == "deriv" && n <= 512:
		sized = DerivSized
	case base == "qsort" && n <= 20000:
		sized = QsortSized
	case base == "matrix" && n <= 32:
		sized = MatrixSized
	case base == "nrev" && n <= 5000:
		sized = NRevSized
	case base == "queens" && n >= 4 && n <= 12:
		sized = QueensSized
	case base == "primes" && n >= 2 && n <= 100000:
		sized = PrimesSized
	default:
		return nil, false
	}
	return func() Benchmark { return sized(n) }, true
}

// splitSizedName splits "nrev-220" into ("nrev", "220"). The parameter
// is everything after the last dash.
func splitSizedName(name string) (base, arg string, ok bool) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

// parseSize parses a strictly numeric benchmark parameter within
// [lo, hi]. Unlike Sscanf it rejects trailing garbage, so "nrev-50x"
// does not silently resolve as nrev-50.
func parseSize(s string, lo, hi int) (int, bool) {
	n, err := strconv.Atoi(s)
	if err != nil || n < lo || n > hi || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	return n, true
}

func expectSuccess(res *core.Result) error {
	if !res.Success {
		return fmt.Errorf("query failed")
	}
	return nil
}

// expectBinding checks one answer binding against want(), which runs
// when a result is checked, not when the benchmark is constructed:
// constructors run on every name lookup, checks once per engine run.
func expectBinding(name string, want func() string) func(*core.Result) error {
	return func(res *core.Result) error {
		if !res.Success {
			return fmt.Errorf("query failed")
		}
		if got, want := res.Bindings[name], want(); got != want {
			return fmt.Errorf("%s = %.60s..., want %.60s...", name, got, want)
		}
		return nil
	}
}

// --- deriv ---

// derivSource parallelizes the top levels of the expression tree only
// (granularity control: pd/4 carries a depth budget and falls back to
// the sequential d/3 below it). The input is ground, so the paper's
// compile-time analysis would remove all run-time independence checks;
// the CGEs are therefore unconditional. derivCheckedSource keeps the
// checks for the ablation study.
const derivSource = `
% Driver: differentiate the same expression N times, as the classical
% deriv benchmarks do to reach measurable run lengths. The expression is
% re-derived (and the result rebuilt) on every iteration.
dloop(0, _).
dloop(N, E) :- N > 0, pd(E, x, _, 2), M is N - 1, dloop(M, E).

% Parallel top levels (depth-bounded AND-parallelism).
pd(U+V, X, DU+DV, N) :- N > 0, !, M is N - 1,
	(pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(U-V, X, DU-DV, N) :- N > 0, !, M is N - 1,
	(pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(U*V, X, DU*V+U*DV, N) :- N > 0, !, M is N - 1,
	(pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(U/V, X, (DU*V-U*DV)/(V*V), N) :- N > 0, !, M is N - 1,
	(pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(E, X, D, _) :- d(E, X, D).

% Sequential symbolic differentiation.
d(U+V, X, DU+DV) :- d(U, X, DU), d(V, X, DV).
d(U-V, X, DU-DV) :- d(U, X, DU), d(V, X, DV).
d(U*V, X, DU*V+U*DV) :- d(U, X, DU), d(V, X, DV).
d(U/V, X, (DU*V-U*DV)/(V*V)) :- d(U, X, DU), d(V, X, DV).
d(-U, X, -DU) :- d(U, X, DU).
d(exp(U), X, exp(U)*DU) :- d(U, X, DU).
d(log(U), X, DU/U) :- d(U, X, DU).
d(X, X, 1) :- !.
d(C, _, 0) :- atomic(C).
`

// derivCheckedSource is the run-time-checked variant: every CGE guards
// with ground/1, as written by a programmer without global analysis.
// Used by the check-overhead ablation.
const derivCheckedSource = `
dloop(0, _).
dloop(N, E) :- N > 0, pd(E, x, _, 2), M is N - 1, dloop(M, E).
pd(U+V, X, DU+DV, N) :- N > 0, !, M is N - 1,
	(ground(U+V) | pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(U-V, X, DU-DV, N) :- N > 0, !, M is N - 1,
	(ground(U-V) | pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(U*V, X, DU*V+U*DV, N) :- N > 0, !, M is N - 1,
	(ground(U*V) | pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(U/V, X, (DU*V-U*DV)/(V*V), N) :- N > 0, !, M is N - 1,
	(ground(U*V) | pd(U, X, DU, M) & pd(V, X, DV, M)).
pd(E, X, D, _) :- d(E, X, D).
d(U+V, X, DU+DV) :- d(U, X, DU), d(V, X, DV).
d(U-V, X, DU-DV) :- d(U, X, DU), d(V, X, DV).
d(U*V, X, DU*V+U*DV) :- d(U, X, DU), d(V, X, DV).
d(U/V, X, (DU*V-U*DV)/(V*V)) :- d(U, X, DU), d(V, X, DV).
d(-U, X, -DU) :- d(U, X, DU).
d(exp(U), X, exp(U)*DU) :- d(U, X, DU).
d(log(U), X, DU/U) :- d(U, X, DU).
d(X, X, 1) :- !.
d(C, _, 0) :- atomic(C).
`

// derivExpr builds a deterministic arithmetic expression with the given
// number of binary nodes.
func derivExpr(binaryNodes int) string {
	rng := &lcg{s: 88172645463325252}
	var build func(n int) string
	build = func(n int) string {
		if n <= 0 {
			if rng.intn(3) == 0 {
				return fmt.Sprintf("%d", 1+rng.intn(9))
			}
			return "x"
		}
		// occasionally wrap in a unary node
		if rng.intn(6) == 0 {
			switch rng.intn(3) {
			case 0:
				return "exp(" + build(n-1) + ")"
			case 1:
				return "log(" + build(n-1) + ")"
			default:
				return "- (" + build(n-1) + ")"
			}
		}
		left := (n - 1) / 2
		right := n - 1 - left
		op := []string{"+", "-", "*", "/"}[rng.intn(4)]
		return "(" + build(left) + " " + op + " " + build(right) + ")"
	}
	return build(binaryNodes)
}

// Deriv returns the deriv benchmark, sized so the sequential run
// executes ~35k instructions (paper Table 2: 33520).
func Deriv() Benchmark {
	return Benchmark{
		Name:     "deriv",
		Source:   derivSource,
		Query:    fmt.Sprintf("D = done, dloop(40, %s)", derivExpr(24)),
		Check:    expectSuccess,
		Parallel: true,
	}
}

// DerivSized returns deriv with a custom expression size — the
// "deriv-<nodes>" variant (Figure 2's processor sweep uses the
// standard size; examples use smaller ones).
func DerivSized(binaryNodes int) Benchmark {
	b := Deriv()
	b.Name = fmt.Sprintf("deriv-%d", binaryNodes)
	b.Query = fmt.Sprintf("pd(%s, x, D, 2)", derivExpr(binaryNodes))
	return b
}

// DerivDepth returns deriv with a custom parallelism depth budget (the
// granularity-control ablation: depth 0 is fully sequential, each
// additional level doubles the available parallelism).
func DerivDepth(depth int) Benchmark {
	b := Deriv()
	b.Name = fmt.Sprintf("deriv-d%d", depth)
	b.Query = fmt.Sprintf("D = done, dloop(40, %s)", derivExpr(24))
	b.Source = strings.Replace(derivSource,
		"dloop(N, E) :- N > 0, pd(E, x, _, 2), M is N - 1, dloop(M, E).",
		fmt.Sprintf("dloop(N, E) :- N > 0, pd(E, x, _, %d), M is N - 1, dloop(M, E).", depth), 1)
	return b
}

// DerivChecked returns deriv with run-time ground/1 checks on every
// CGE — the ablation for the cost of run-time independence checking.
func DerivChecked() Benchmark {
	b := Deriv()
	b.Name = "deriv-checked"
	b.Source = derivCheckedSource
	return b
}

// --- tak ---

const takSource = `
% Takeuchi's function with three-way AND-parallel recursion at the top
% levels (ptak/5 carries a depth budget). Arguments are ground integers,
% so the calls are independent and the CGE needs no run-time checks.
ptak(X, Y, Z, A, _) :- X =< Y, !, A = Z.
ptak(X, Y, Z, A, N) :- N > 0, !, M is N - 1,
	X1 is X - 1, Y1 is Y - 1, Z1 is Z - 1,
	(ptak(X1, Y, Z, A1, M) & ptak(Y1, Z, X, A2, M) & ptak(Z1, X, Y, A3, M)),
	ptak(A1, A2, A3, A, M).
ptak(X, Y, Z, A, _) :- tak(X, Y, Z, A).

tak(X, Y, Z, A) :- X =< Y, !, A = Z.
tak(X, Y, Z, A) :-
	X1 is X - 1, Y1 is Y - 1, Z1 is Z - 1,
	tak(X1, Y, Z, A1), tak(Y1, Z, X, A2), tak(Z1, X, Y, A3),
	tak(A1, A2, A3, A).
`

// takValue computes tak in Go for answer checking.
func takValue(x, y, z int) int {
	if x <= y {
		return z
	}
	return takValue(takValue(x-1, y, z), takValue(y-1, z, x), takValue(z-1, x, y))
}

// Tak returns the tak benchmark, sized so the sequential run executes
// ~73k instructions (paper Table 2: 75254).
func Tak() Benchmark {
	const x, y, z = 13, 8, 4
	return Benchmark{
		Name:     "tak",
		Source:   takSource,
		Query:    fmt.Sprintf("ptak(%d, %d, %d, A, 4)", x, y, z),
		Check:    expectBinding("A", func() string { return strconv.Itoa(takValue(x, y, z)) }),
		Parallel: true,
	}
}

// --- qsort ---

const qsortSource = `
% Quicksort with difference lists (the paper's formulation). The two
% recursive calls construct disjoint parts of the result; they are run
% in AND-parallel unconditionally, as in the paper (this is the classic
% non-strict-independence example: R1 is shared but only consumed by
% one side and constructed by the other).
qsort(L, S) :- pqs(L, S, [], 6).
pqs(L, R, R0, 0) :- !, qs(L, R, R0).
pqs([], R, R, _).
pqs([X|L], R, R0, N) :-
	part(L, X, L1, L2), M is N - 1,
	(pqs(L1, R, [X|R1], M) & pqs(L2, R1, R0, M)).
qs([], R, R).
qs([X|L], R, R0) :-
	part(L, X, L1, L2),
	qs(L1, R, [X|R1]), qs(L2, R1, R0).
part([], _, [], []).
part([E|R], C, [E|L1], L2) :- E < C, !, part(R, C, L1, L2).
part([E|R], C, L1, [E|L2]) :- part(R, C, L1, L2).
`

func qsortInput(n int) []int {
	rng := &lcg{s: 424242}
	out := make([]int, n)
	for i := range out {
		out[i] = rng.intn(10 * n)
	}
	return out
}

func intsToProlog(xs []int) string {
	return string(appendInts(make([]byte, 0, 2+8*len(xs)), xs))
}

// appendInts appends xs as a Prolog list.
func appendInts(buf []byte, xs []int) []byte {
	buf = append(buf, '[')
	for i, v := range xs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']')
}

// Qsort returns the qsort benchmark.
func Qsort() Benchmark {
	b := QsortSized(700) // ~237k instructions (paper Table 2: 237884)
	b.Name = "qsort"
	return b
}

// QsortSized returns qsort over a custom input length — the
// "qsort-<len>" variant.
func QsortSized(n int) Benchmark {
	in := qsortInput(n)
	return Benchmark{
		Name:   "qsort-" + strconv.Itoa(n),
		Source: qsortSource,
		Query:  "qsort(" + intsToProlog(in) + ", S)",
		Check: expectBinding("S", func() string {
			sorted := append([]int(nil), in...)
			sort.Ints(sorted)
			return intsToProlog(sorted)
		}),
		Parallel: true,
	}
}

// --- matrix ---

const matrixSource = `
% Naive matrix multiplication, parallel over result rows (the paper's
% coarse-granularity benchmark). The second matrix is supplied
% transposed so every element is a vector dot product.
mmult([], _, []).
mmult([R|Rs], C, [X|Xs]) :- (mrow(R, C, X) & mmult(Rs, C, Xs)).
mrow(_, [], []).
mrow(R, [C|Cs], [E|Es]) :- vmul(R, C, E), mrow(R, Cs, Es).
vmul([], [], 0).
vmul([A|As], [B|Bs], S) :- vmul(As, Bs, S1), S is S1 + A*B.
`

func matrixInput(n int) ([][]int, [][]int) {
	rng := &lcg{s: 1234567}
	a := make([][]int, n)
	b := make([][]int, n)
	for i := 0; i < n; i++ {
		a[i] = make([]int, n)
		b[i] = make([]int, n)
		for j := 0; j < n; j++ {
			a[i][j] = rng.intn(10)
			b[i][j] = rng.intn(10)
		}
	}
	return a, b
}

func matToProlog(m [][]int) string {
	buf := []byte{'['}
	for i, r := range m {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendInts(buf, r)
	}
	return string(append(buf, ']'))
}

// Matrix returns the matrix multiplication benchmark (12x12 as in the
// paper: 12 row-parcalls = 24 goals in parallel; ~48k instructions vs
// the paper's 95349 — same order, and the same refs/instruction ratio
// of ~1.0).
func Matrix() Benchmark {
	b := MatrixSized(12)
	b.Name = "matrix"
	return b
}

// MatrixSized returns n×n matrix multiplication — the "matrix-<n>"
// variant.
func MatrixSized(n int) Benchmark {
	a, b := matrixInput(n)
	// transpose b
	bt := make([][]int, n)
	for i := range bt {
		bt[i] = make([]int, n)
		for j := range bt[i] {
			bt[i][j] = b[j][i]
		}
	}
	return Benchmark{
		Name:   "matrix-" + strconv.Itoa(n),
		Source: matrixSource,
		Query:  "mmult(" + matToProlog(a) + ", " + matToProlog(bt) + ", P)",
		Check: expectBinding("P", func() string {
			prod := make([][]int, n)
			for i := range prod {
				prod[i] = make([]int, n)
				for j := 0; j < n; j++ {
					s := 0
					for k := 0; k < n; k++ {
						s += a[i][k] * b[k][j]
					}
					prod[i][j] = s
				}
			}
			return matToProlog(prod)
		}),
		Parallel: true,
	}
}

// --- large sequential reference suite ---

const nrevSource = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`

// NRev returns naive reverse of a 220-element list (~24k logical
// inferences, a classic WAM locality workload).
func NRev() Benchmark {
	b := NRevSized(220)
	b.Name = "nrev"
	return b
}

// NRevSized returns naive reverse of an n-element list — the
// "nrev-<len>" variant.
func NRevSized(n int) Benchmark {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return Benchmark{
		Name:   "nrev-" + strconv.Itoa(n),
		Source: nrevSource,
		Query:  "nrev(" + intsToProlog(in) + ", R)",
		Check: expectBinding("R", func() string {
			rev := make([]int, n)
			for i := range rev {
				rev[i] = n - 1 - i
			}
			return intsToProlog(rev)
		}),
	}
}

const queensSource = `
% N-queens, first solution, classic generate and test with heavy
% backtracking (choice-point and trail exercise).
queens(N, Qs) :- range(1, N, Ns), queens3(Ns, [], Qs).
queens3([], Qs, Qs).
queens3(UnplacedQs, SafeQs, Qs) :-
	sel(UnplacedQs, UnplacedQs1, Q),
	not_attack(SafeQs, Q, 1),
	queens3(UnplacedQs1, [Q|SafeQs], Qs).
not_attack([], _, _).
not_attack([Y|Ys], Q, N) :-
	Q =\= Y + N, Q =\= Y - N,
	N1 is N + 1,
	not_attack(Ys, Q, N1).
sel([X|Xs], Xs, X).
sel([Y|Ys], [Y|Zs], X) :- sel(Ys, Zs, X).
range(N, N, [N]) :- !.
range(M, N, [M|Ns]) :- M < N, M1 is M + 1, range(M1, N, Ns).
`

// Queens returns 8-queens (first solution).
func Queens() Benchmark {
	b := QueensSized(8)
	b.Name = "queens"
	return b
}

// QueensSized returns n-queens, first solution — the "queens-<n>"
// variant.
func QueensSized(n int) Benchmark {
	return Benchmark{
		Name:   fmt.Sprintf("queens-%d", n),
		Source: queensSource,
		Query:  fmt.Sprintf("queens(%d, Qs)", n),
		Check:  expectSuccess,
	}
}

const primesSource = `
% Sieve of Eratosthenes over a generated integer list.
primes(N, Ps) :- range2(2, N, Ns), sift(Ns, Ps).
sift([], []).
sift([P|Ns], [P|Ps]) :- filter(Ns, P, Left), sift(Left, Ps).
filter([], _, []).
filter([X|Xs], P, Out) :- M is X mod P, keep(M, X, Xs, P, Out).
keep(0, _, Xs, P, Out) :- filter(Xs, P, Out).
keep(M, X, Xs, P, [X|Out]) :- M > 0, filter(Xs, P, Out).
range2(N, N, [N]) :- !.
range2(M, N, [M|Ns]) :- M < N, M1 is M + 1, range2(M1, N, Ns).
`

// Primes sieves up to 1000.
func Primes() Benchmark {
	b := PrimesSized(1000)
	b.Name = "primes"
	return b
}

// PrimesSized sieves up to n — the "primes-<limit>" variant. The
// expected prime list is recomputed in Go, so the check is exact at
// any size.
func PrimesSized(n int) Benchmark {
	return Benchmark{
		Name:   fmt.Sprintf("primes-%d", n),
		Source: primesSource,
		Query:  fmt.Sprintf("primes(%d, Ps)", n),
		Check: expectBinding("Ps", func() string {
			composite := make([]bool, n+1)
			var primes []int
			for p := 2; p <= n; p++ {
				if composite[p] {
					continue
				}
				primes = append(primes, p)
				for q := p * p; q <= n; q += p {
					composite[q] = true
				}
			}
			return intsToProlog(primes)
		}),
	}
}

const zebraSource = `
% The five-houses ("zebra") puzzle: pure unification and member/select
% backtracking over a constraint network.
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
next_to(A, B, [A,B|_]).
next_to(A, B, [B,A|_]).
next_to(A, B, [_|T]) :- next_to(A, B, T).
right_of(A, B, [B,A|_]).
right_of(A, B, [_|T]) :- right_of(A, B, T).
first(X, [X|_]).
middle(X, [_,_,X,_,_]).

zebra(Owner) :-
	Houses = [h(_,_,_,_,_), h(_,_,_,_,_), h(_,_,_,_,_), h(_,_,_,_,_), h(_,_,_,_,_)],
	member(h(england, red, _, _, _), Houses),
	member(h(spain, _, dog, _, _), Houses),
	member(h(_, green, _, coffee, _), Houses),
	member(h(ukraine, _, _, tea, _), Houses),
	right_of(h(_, green, _, _, _), h(_, ivory, _, _, _), Houses),
	member(h(_, _, snails, _, oldgold), Houses),
	member(h(_, yellow, _, _, kools), Houses),
	middle(h(_, _, _, milk, _), Houses),
	first(h(norway, _, _, _, _), Houses),
	next_to(h(_, _, _, _, chesterfield), h(_, _, fox, _, _), Houses),
	next_to(h(_, _, _, _, kools), h(_, _, horse, _, _), Houses),
	member(h(_, _, _, juice, luckystrike), Houses),
	member(h(japan, _, _, _, parliament), Houses),
	next_to(h(norway, _, _, _, _), h(_, blue, _, _, _), Houses),
	member(h(Owner, _, zebra, _, _), Houses).
`

// Zebra returns the five-houses puzzle.
func Zebra() Benchmark {
	return Benchmark{
		Name:   "zebra",
		Source: zebraSource,
		Query:  "zebra(Owner)",
		Check:  expectBinding("Owner", func() string { return "japan" }),
	}
}
