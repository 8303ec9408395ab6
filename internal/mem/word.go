// Package mem implements the RAP-WAM storage model: a tagged-word term
// representation and a single flat shared address space partitioned into
// per-worker Stack Sets (Heap, Local Stack, Control Stack, Trail, PDL,
// Goal Stack and Message Buffer). Every access goes through an
// instrumented Memory which emits trace references.
//
// All simulated storage lives in one preallocated []Word arena, so the
// measured memory behaviour is entirely determined by the abstract
// machine and never by the Go runtime or garbage collector.
package mem

import "fmt"

// Word is one tagged machine word. The low 3 bits hold the tag and the
// remaining 61 bits hold the value (an address, a symbol index or a
// signed small integer).
type Word uint64

// wordBytes is the size of a Word in a slab.
const wordBytes = 8

// Tag identifies the kind of value a Word holds.
type Tag uint8

const (
	// TagRef is a variable reference; an unbound variable is a TagRef
	// word pointing at itself.
	TagRef Tag = iota
	// TagStr points at a functor cell followed by the arguments.
	TagStr
	// TagLis points at a cons cell (two consecutive words: head, tail).
	TagLis
	// TagCon is an atomic constant; the value is an atom-table index.
	TagCon
	// TagInt is a small signed integer stored in the value bits.
	TagInt
	// TagFun is a functor cell; the value is a functor-table index
	// (which determines both name and arity).
	TagFun
)

var tagNames = [...]string{"ref", "str", "lis", "con", "int", "fun"}

// String returns the lowercase tag name.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

const tagBits = 3

// MaxInt and MinInt bound the representable small integers.
const (
	MaxInt = int64(1)<<60 - 1
	MinInt = -(int64(1) << 60)
)

// MakeRef builds a reference word pointing at word address addr.
func MakeRef(addr int) Word { return Word(uint64(addr)<<tagBits) | Word(TagRef) }

// MakeStr builds a structure word pointing at the functor cell at addr.
func MakeStr(addr int) Word { return Word(uint64(addr)<<tagBits) | Word(TagStr) }

// MakeLis builds a list word pointing at the cons cell at addr.
func MakeLis(addr int) Word { return Word(uint64(addr)<<tagBits) | Word(TagLis) }

// MakeCon builds a constant word for atom-table index idx.
func MakeCon(idx int) Word { return Word(uint64(idx)<<tagBits) | Word(TagCon) }

// MakeInt builds an integer word. The value must fit in 61 bits; the
// engine's arithmetic builtins range-check before constructing.
func MakeInt(v int64) Word { return Word(uint64(v)<<tagBits) | Word(TagInt) }

// MakeFun builds a functor cell for functor-table index idx.
func MakeFun(idx int) Word { return Word(uint64(idx)<<tagBits) | Word(TagFun) }

// Tag extracts the word's tag.
func (w Word) Tag() Tag { return Tag(w & (1<<tagBits - 1)) }

// Addr extracts the address value of a ref, str or lis word.
func (w Word) Addr() int { return int(w >> tagBits) }

// Index extracts the symbol-table index of a con or fun word.
func (w Word) Index() int { return int(w >> tagBits) }

// Int extracts the signed integer value of an int word.
func (w Word) Int() int64 { return int64(w) >> tagBits }

// IsRef reports whether the word is a variable reference.
func (w Word) IsRef() bool { return w.Tag() == TagRef }

// IsAtomic reports whether the word is a constant or integer.
func (w Word) IsAtomic() bool { t := w.Tag(); return t == TagCon || t == TagInt }

// String formats the word for debugging, e.g. "ref@42", "int(7)".
func (w Word) String() string {
	switch w.Tag() {
	case TagRef:
		return fmt.Sprintf("ref@%d", w.Addr())
	case TagStr:
		return fmt.Sprintf("str@%d", w.Addr())
	case TagLis:
		return fmt.Sprintf("lis@%d", w.Addr())
	case TagCon:
		return fmt.Sprintf("con(%d)", w.Index())
	case TagInt:
		return fmt.Sprintf("int(%d)", w.Int())
	case TagFun:
		return fmt.Sprintf("fun(%d)", w.Index())
	}
	return fmt.Sprintf("word(%#x)", uint64(w))
}
