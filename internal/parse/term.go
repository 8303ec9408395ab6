// Package parse implements the Prolog reader used by the reproduction:
// a tokenizer and operator-precedence parser for the subset of Prolog
// needed by the paper's benchmarks, including the &-Prolog Conditional
// Graph Expression (CGE) syntax:
//
//	f(X,Y,Z) :- (indep(X,Z), ground(Y) | g(X,Y) & h(Y,Z)).
//
// where "&" separates goals to run in AND-parallel and "|" separates the
// independence/groundness conditions from the parallel conjunction.
package parse

import (
	"fmt"
	"strings"
)

// Term is a parsed Prolog term: Atom, Int, *Var or *Compound.
type Term interface {
	String() string
}

// Atom is a Prolog atom (constant).
type Atom string

// String renders the atom, quoting when necessary.
func (a Atom) String() string {
	s := string(a)
	if s == "" {
		return "''"
	}
	if s == "[]" || s == "!" || s == ";" || s == "," {
		return s
	}
	plain := s[0] >= 'a' && s[0] <= 'z'
	if plain {
		for _, c := range s {
			if !isAlnum(byte(c)) {
				plain = false
				break
			}
		}
	}
	if plain || isAllSymbolic(s) {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
}

// Int is a Prolog integer.
type Int int64

// String renders the integer.
func (i Int) String() string { return fmt.Sprintf("%d", int64(i)) }

// Var is a Prolog variable. Pointer identity defines variable identity:
// the reader interns named variables per clause.
type Var struct {
	Name string
}

// String returns the variable name.
func (v *Var) String() string { return v.Name }

// Compound is a compound term.
type Compound struct {
	Functor string
	Args    []Term
}

// Comp builds a compound term.
func Comp(functor string, args ...Term) *Compound {
	return &Compound{Functor: functor, Args: args}
}

// Arity returns the number of arguments.
func (c *Compound) Arity() int { return len(c.Args) }

// String renders the term with minimal operator awareness (lists and a
// few infix operators print naturally; everything else is canonical).
func (c *Compound) String() string {
	if c.Functor == "." && len(c.Args) == 2 {
		return c.listString()
	}
	if len(c.Args) == 2 {
		if op, ok := printOps[c.Functor]; ok {
			leftMax, rightMax := op.prec-1, op.prec-1
			switch op.typ {
			case "xfy":
				rightMax = op.prec
			case "yfx":
				leftMax = op.prec
			}
			name := c.Functor
			if isAlnumOp(name) {
				name = " " + name + " "
			}
			return fmt.Sprintf("%s%s%s", paren(c.Args[0], leftMax), name, paren(c.Args[1], rightMax))
		}
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return Atom(c.Functor).String() + "(" + strings.Join(parts, ",") + ")"
}

func isAlnumOp(s string) bool {
	return s != "" && isLower(s[0])
}

// paren wraps t in parentheses when its operator priority exceeds what
// the surrounding context allows.
func paren(t Term, maxPrec int) string {
	if c, ok := t.(*Compound); ok && len(c.Args) == 2 {
		if op, ok := printOps[c.Functor]; ok && op.prec > maxPrec {
			return "(" + c.String() + ")"
		}
	}
	return t.String()
}

func (c *Compound) listString() string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(c.Args[0].String())
	t := c.Args[1]
	for {
		switch tt := t.(type) {
		case Atom:
			if tt == "[]" {
				b.WriteByte(']')
				return b.String()
			}
		case *Compound:
			if tt.Functor == "." && len(tt.Args) == 2 {
				b.WriteByte(',')
				b.WriteString(tt.Args[0].String())
				t = tt.Args[1]
				continue
			}
		}
		b.WriteByte('|')
		b.WriteString(t.String())
		b.WriteByte(']')
		return b.String()
	}
}

// MkList builds a proper list term from items with the given tail
// (Atom("[]") for a proper list).
func MkList(items []Term, tail Term) Term {
	out := tail
	for i := len(items) - 1; i >= 0; i-- {
		out = Comp(".", items[i], out)
	}
	return out
}

// Nil is the empty list atom.
var Nil = Atom("[]")

// IsNil reports whether t is the empty list.
func IsNil(t Term) bool { a, ok := t.(Atom); return ok && a == "[]" }

// Vars returns the distinct variables of t in first-occurrence order.
func Vars(t Term) []*Var {
	var out []*Var
	seen := map[*Var]bool{}
	var walk func(Term)
	walk = func(t Term) {
		switch tt := t.(type) {
		case *Var:
			if !seen[tt] {
				seen[tt] = true
				out = append(out, tt)
			}
		case *Compound:
			for _, a := range tt.Args {
				walk(a)
			}
		}
	}
	walk(t)
	return out
}

// printOps lists the infix operators recognized by the printer, mirroring
// the parser's operator table so printing and reparsing agree.
type printOp struct {
	prec int
	typ  string
}

var printOps = map[string]printOp{
	":-": {1200, "xfx"}, ";": {1100, "xfy"}, "|": {1100, "xfy"},
	"->": {1050, "xfy"}, ",": {1000, "xfy"}, "&": {950, "xfy"},
	"=": {700, "xfx"}, "\\=": {700, "xfx"}, "==": {700, "xfx"},
	"\\==": {700, "xfx"}, "is": {700, "xfx"}, "=..": {700, "xfx"},
	"=:=": {700, "xfx"}, "=\\=": {700, "xfx"}, "<": {700, "xfx"},
	">": {700, "xfx"}, "=<": {700, "xfx"}, ">=": {700, "xfx"},
	"+": {500, "yfx"}, "-": {500, "yfx"}, "*": {400, "yfx"},
	"/": {400, "yfx"}, "//": {400, "yfx"}, "mod": {400, "yfx"},
	"rem": {400, "yfx"}, "^": {200, "xfy"},
}
