package parse

import (
	"testing"
	"testing/quick"
)

// ListSlice flattens a proper list term into a slice; ok is false if the
// term is not a proper list.
func ListSlice(t Term) (items []Term, ok bool) {
	for {
		switch tt := t.(type) {
		case Atom:
			if tt == "[]" {
				return items, true
			}
			return nil, false
		case *Compound:
			if tt.Functor == "." && len(tt.Args) == 2 {
				items = append(items, tt.Args[0])
				t = tt.Args[1]
				continue
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

func mustTerm(t *testing.T, src string) Term {
	t.Helper()
	tm, err := OneTerm(src)
	if err != nil {
		t.Fatalf("OneTerm(%q): %v", src, err)
	}
	return tm
}

func TestAtomsAndIntegers(t *testing.T) {
	cases := map[string]string{
		"foo":           "foo",
		"42":            "42",
		"-7":            "-7",
		"'hello world'": "'hello world'",
		"[]":            "[]",
	}
	for src, want := range cases {
		if got := mustTerm(t, src).String(); got != want {
			t.Errorf("%q parsed to %q, want %q", src, got, want)
		}
	}
}

func TestCompoundTerms(t *testing.T) {
	tm := mustTerm(t, "f(a, g(X, 1), [b,c])")
	c, ok := tm.(*Compound)
	if !ok || c.Functor != "f" || c.Arity() != 3 {
		t.Fatalf("got %v", tm)
	}
	if got := c.String(); got != "f(a,g(X,1),[b,c])" {
		t.Errorf("String = %q", got)
	}
}

func TestVariableInterningPerClause(t *testing.T) {
	tm := mustTerm(t, "f(X, X, Y, _, _)")
	c := tm.(*Compound)
	if c.Args[0] != c.Args[1] {
		t.Error("two X occurrences are different variables")
	}
	if c.Args[0] == c.Args[2] {
		t.Error("X and Y are the same variable")
	}
	if c.Args[3] == c.Args[4] {
		t.Error("two _ occurrences were interned together")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	cases := map[string]string{
		"1+2*3":    "1+2*3", // * binds tighter
		"(1+2)*3":  "(1+2)*3",
		"1-2-3":    "1-2-3", // yfx: (1-2)-3
		"X is Y+1": "X is Y+1",
		"a:-b,c":   "a:-b,c",
		"a,b,c":    "a,b,c", // xfy
		"2^3^4":    "2^3^4", // xfy
	}
	for src, want := range cases {
		if got := mustTerm(t, src).String(); got != want {
			t.Errorf("%q parsed to %q, want %q", src, got, want)
		}
	}
}

func TestPrecedenceShapes(t *testing.T) {
	// (1-2)-3 : left nested
	tm := mustTerm(t, "1-2-3").(*Compound)
	if _, ok := tm.Args[0].(*Compound); !ok {
		t.Error("1-2-3 should nest left")
	}
	// 2^3^4 : right nested
	tm = mustTerm(t, "2^3^4").(*Compound)
	if _, ok := tm.Args[1].(*Compound); !ok {
		t.Error("2^3^4 should nest right")
	}
	// a,b,c : right nested
	tm = mustTerm(t, "a,b,c").(*Compound)
	if tm.Functor != "," {
		t.Fatalf("got %v", tm)
	}
	if inner, ok := tm.Args[1].(*Compound); !ok || inner.Functor != "," {
		t.Error("conjunction should nest right")
	}
}

func TestLists(t *testing.T) {
	tm := mustTerm(t, "[1,2|T]")
	c := tm.(*Compound)
	if c.Functor != "." {
		t.Fatalf("got %v", tm)
	}
	if got := tm.String(); got != "[1,2|T]" {
		t.Errorf("String = %q", got)
	}
	items, ok := ListSlice(mustTerm(t, "[a,b,c]"))
	if !ok || len(items) != 3 {
		t.Errorf("ListSlice: %v %v", items, ok)
	}
	if _, ok := ListSlice(mustTerm(t, "[a|X]")); ok {
		t.Error("partial list reported as proper")
	}
}

func TestCGESyntax(t *testing.T) {
	// The paper's own example clause.
	tm := mustTerm(t, "(indep(X,Z), ground(Y) | g(X,Y) & h(Y,Z))")
	c, ok := tm.(*Compound)
	if !ok || c.Functor != "|" || c.Arity() != 2 {
		t.Fatalf("CGE parsed to %v", tm)
	}
	cond := c.Args[0].(*Compound)
	if cond.Functor != "," {
		t.Errorf("condition part: %v", cond)
	}
	par := c.Args[1].(*Compound)
	if par.Functor != "&" {
		t.Errorf("parallel part: %v", par)
	}
}

func TestUnconditionalParallelConjunction(t *testing.T) {
	tm := mustTerm(t, "p(X) & q(Y) & r(Z)")
	c := tm.(*Compound)
	if c.Functor != "&" {
		t.Fatalf("got %v", tm)
	}
	// & is xfy: p & (q & r)
	if inner, ok := c.Args[1].(*Compound); !ok || inner.Functor != "&" {
		t.Error("& should nest right")
	}
}

func TestAmpersandBindsTighterThanComma(t *testing.T) {
	tm := mustTerm(t, "a & b, c")
	c := tm.(*Compound)
	if c.Functor != "," {
		t.Fatalf("got %v, want ',' at top", tm)
	}
	if inner, ok := c.Args[0].(*Compound); !ok || inner.Functor != "&" {
		t.Errorf("left of ',' should be a&b, got %v", c.Args[0])
	}
}

func TestProgramClauses(t *testing.T) {
	src := `
		% list concatenation
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`
	clauses, err := Program(src)
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	if len(clauses) != 2 {
		t.Fatalf("got %d clauses", len(clauses))
	}
	rule := clauses[1].(*Compound)
	if rule.Functor != ":-" {
		t.Errorf("second clause: %v", rule)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "a. /* block\ncomment */ b. % line\nc."
	clauses, err := Program(src)
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	if len(clauses) != 3 {
		t.Errorf("got %d clauses, want 3", len(clauses))
	}
}

func TestCutAndControlAtoms(t *testing.T) {
	tm := mustTerm(t, "f(X) :- X > 0, !, g(X)")
	if tm.(*Compound).Functor != ":-" {
		t.Fatalf("got %v", tm)
	}
}

func TestErrorCases(t *testing.T) {
	bad := []string{
		"f(a",       // unclosed args
		"[1,2",      // unclosed list
		"'oops",     // unterminated quote
		"f(a) g(b)", // no operator between terms (trailing)
		"/* nope",   // unterminated comment
	}
	for _, src := range bad {
		if _, err := OneTerm(src); err == nil {
			t.Errorf("OneTerm(%q) succeeded", src)
		}
	}
	if _, err := Program("f(a) :- ."); err == nil {
		t.Error("empty body accepted")
	}
}

func TestMissingClauseDot(t *testing.T) {
	if _, err := Program("a :- b"); err == nil {
		t.Error("clause without '.' accepted")
	}
}

func TestQuotedAtomEscapes(t *testing.T) {
	tm := mustTerm(t, `'a\'b\nc'`)
	a, ok := tm.(Atom)
	if !ok || string(a) != "a'b\nc" {
		t.Errorf("got %q", a)
	}
}

func TestVarsCollector(t *testing.T) {
	tm := mustTerm(t, "f(X, g(Y, X), Z)")
	vs := Vars(tm)
	if len(vs) != 3 {
		t.Fatalf("got %d vars", len(vs))
	}
	if vs[0].Name != "X" || vs[1].Name != "Y" || vs[2].Name != "Z" {
		t.Errorf("order: %v %v %v", vs[0], vs[1], vs[2])
	}
}

func TestPrintParseRoundTripProperty(t *testing.T) {
	// Property: printing a generated ground term and reparsing yields
	// the same printed form.
	gen := func(depth int, seed int64) Term {
		s := seed
		next := func(n int64) int64 {
			s = s*6364136223846793005 + 1442695040888963407
			r := s % n
			if r < 0 {
				r = -r
			}
			return r
		}
		var build func(d int) Term
		build = func(d int) Term {
			if d <= 0 || next(3) == 0 {
				if next(2) == 0 {
					return Int(next(1000) - 500)
				}
				return Atom([]string{"a", "foo", "bar_baz", "x1"}[next(4)])
			}
			n := int(next(3)) + 1
			args := make([]Term, n)
			for i := range args {
				args[i] = build(d - 1)
			}
			return Comp([]string{"f", "g", "h"}[next(3)], args...)
		}
		return build(depth)
	}
	f := func(seed int64) bool {
		t1 := gen(4, seed)
		s1 := t1.String()
		t2, err := OneTerm(s1)
		if err != nil {
			return false
		}
		return t2.String() == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestArithmeticComparisonOperators(t *testing.T) {
	for _, src := range []string{"X =:= Y", "X =\\= Y", "X =< Y", "X >= Y", "X \\== Y", "X == Y"} {
		tm := mustTerm(t, src)
		if _, ok := tm.(*Compound); !ok {
			t.Errorf("%q: got %v", src, tm)
		}
	}
}

func TestNegativeNumberInList(t *testing.T) {
	items, ok := ListSlice(mustTerm(t, "[-1, -2, 3]"))
	if !ok || len(items) != 3 {
		t.Fatalf("got %v", items)
	}
	if items[0].(Int) != -1 {
		t.Errorf("first = %v", items[0])
	}
}
