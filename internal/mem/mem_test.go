package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// newTestMemory builds a Memory that is released when the test ends.
func newTestMemory(tb testing.TB, l Layout, sink trace.Sink) *Memory {
	tb.Helper()
	m, err := NewMemory(l, sink)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.Release)
	return m
}

func TestWordTagsRoundTrip(t *testing.T) {
	cases := []struct {
		w    Word
		tag  Tag
		addr int
	}{
		{MakeRef(1234), TagRef, 1234},
		{MakeStr(99), TagStr, 99},
		{MakeLis(7), TagLis, 7},
	}
	for _, c := range cases {
		if c.w.Tag() != c.tag {
			t.Errorf("%v: tag = %v, want %v", c.w, c.w.Tag(), c.tag)
		}
		if c.w.Addr() != c.addr {
			t.Errorf("%v: addr = %d, want %d", c.w, c.w.Addr(), c.addr)
		}
	}
	if w := MakeCon(42); w.Tag() != TagCon || w.Index() != 42 {
		t.Errorf("MakeCon: %v", w)
	}
	if w := MakeFun(17); w.Tag() != TagFun || w.Index() != 17 {
		t.Errorf("MakeFun: %v", w)
	}
}

func TestIntWordsPreserveSign(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1000000, -1000000, MaxInt, MinInt} {
		w := MakeInt(v)
		if w.Tag() != TagInt {
			t.Errorf("MakeInt(%d): tag %v", v, w.Tag())
		}
		if got := w.Int(); got != v {
			t.Errorf("MakeInt(%d).Int() = %d", v, got)
		}
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		if v > MaxInt || v < MinInt {
			v %= MaxInt
		}
		return MakeInt(v).Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayoutRegionsDisjointAndAligned(t *testing.T) {
	l := Layout{Workers: 3, Heap: 1000, Local: 500, Control: 300, Trail: 100, PDL: 50, Goal: 60, Msg: 10}
	m := newTestMemory(t, l, nil)
	areas := []trace.Area{
		trace.AreaHeap, trace.AreaLocal, trace.AreaControl,
		trace.AreaTrail, trace.AreaPDL, trace.AreaGoal, trace.AreaMsg,
	}
	seen := map[int]bool{}
	for pe := 0; pe < 3; pe++ {
		for _, a := range areas {
			r := m.Region(pe, a)
			if r.Base%Align != 0 {
				t.Errorf("pe %d %v: base %d not aligned", pe, a, r.Base)
			}
			if r.Size() <= 0 {
				t.Errorf("pe %d %v: empty region", pe, a)
			}
			for addr := r.Base; addr < r.Limit; addr++ {
				if seen[addr] {
					t.Fatalf("address %d in two regions", addr)
				}
				seen[addr] = true
			}
		}
	}
	if len(seen) != m.Size() {
		t.Errorf("regions cover %d words, address space is %d", len(seen), m.Size())
	}
}

func TestClassifyInvertsRegion(t *testing.T) {
	m := newTestMemory(t, Layout{Workers: 4, Heap: 256, Local: 128, Control: 128, Trail: 64, PDL: 64, Goal: 64, Msg: 64}, nil)
	areas := []trace.Area{
		trace.AreaHeap, trace.AreaLocal, trace.AreaControl,
		trace.AreaTrail, trace.AreaPDL, trace.AreaGoal, trace.AreaMsg,
	}
	for pe := 0; pe < 4; pe++ {
		for _, a := range areas {
			r := m.Region(pe, a)
			for _, addr := range []int{r.Base, r.Base + r.Size()/2, r.Limit - 1} {
				gotPE, gotArea := m.Classify(addr)
				if gotPE != pe || gotArea != a {
					t.Errorf("Classify(%d) = (%d,%v), want (%d,%v)", addr, gotPE, gotArea, pe, a)
				}
			}
		}
	}
	if pe, a := m.Classify(-1); pe != -1 || a != trace.AreaNone {
		t.Errorf("Classify(-1) = (%d,%v)", pe, a)
	}
	if pe, a := m.Classify(m.Size()); pe != -1 || a != trace.AreaNone {
		t.Errorf("Classify(size) = (%d,%v)", pe, a)
	}
}

func TestReadWriteEmitRefs(t *testing.T) {
	buf := trace.NewBuffer(16)
	m := newTestMemory(t, Layout{Workers: 2, Heap: 128, Local: 64, Control: 64, Trail: 64, PDL: 64, Goal: 64, Msg: 64}, buf)
	heap := m.Region(1, trace.AreaHeap)
	m.Write(1, heap.Base, MakeInt(5), trace.ObjHeap)
	got := m.Read(0, heap.Base, trace.ObjHeap) // cross-PE read attributed to reader
	if got.Int() != 5 {
		t.Errorf("read back %v", got)
	}
	m.Flush() // references are staged until flushed
	if buf.Len() != 2 {
		t.Fatalf("emitted %d refs, want 2", buf.Len())
	}
	w, r := buf.Segments()[0][0], buf.Segments()[0][1]
	if w.Op != trace.OpWrite || w.PE != 1 || int(w.Addr) != heap.Base {
		t.Errorf("write ref = %v", w)
	}
	if r.Op != trace.OpRead || r.PE != 0 {
		t.Errorf("read ref = %v", r)
	}
	if m.Counter().Total() != 2 {
		t.Errorf("counter total = %d", m.Counter().Total())
	}
}

func TestPeekPokeAreUntraced(t *testing.T) {
	m := newTestMemory(t, Layout{Workers: 1, Heap: 64, Local: 64, Control: 64, Trail: 64, PDL: 64, Goal: 64, Msg: 64}, nil)
	m.Poke(3, MakeInt(9))
	if m.Peek(3).Int() != 9 {
		t.Error("peek/poke failed")
	}
	if m.Counter().Total() != 0 {
		t.Error("peek/poke emitted references")
	}
}

func TestDefaultLayoutSane(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 40} {
		l := DefaultLayout(workers)
		if l.Workers != workers {
			t.Errorf("workers = %d", l.Workers)
		}
		if l.TotalWords() <= 0 || l.TotalWords() != l.SpanWords()*workers {
			t.Errorf("inconsistent total for %d workers", workers)
		}
	}
}
