package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/compile"
	"repro/internal/mem"
	"repro/internal/trace"
)

// idleSink counts the references it is handed and the calls running
// in it, so a test can see what still reaches it after Run returns.
type idleSink struct{ refs, inCall atomic.Int64 }

func (s *idleSink) Add(trace.Ref) { s.refs.Add(1) }

func (s *idleSink) AddBatch(refs []trace.Ref) {
	s.inCall.Add(1)
	s.refs.Add(int64(len(refs)))
	s.inCall.Add(-1)
}

// TestFaultedRunLeavesTheSinkIdle: a run that dies of a machine fault,
// after its memory has handed several staging halves to drain
// goroutines, has delivered every reference it staged and has no drain
// running when Run returns; Close delivers nothing more.
func TestFaultedRunLeavesTheSinkIdle(t *testing.T) {
	code, err := compile.Compile("grow(L) :- grow([x|L]).", "grow([])", compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	layout := mem.Layout{Workers: 1, Heap: 1 << 16, Local: 1 << 14, Control: 1 << 14, Trail: 1 << 13, PDL: 1 << 10, Goal: 1 << 10, Msg: 1 << 8}
	sink := &idleSink{}
	eng, err := New(code, Config{PEs: 1, Layout: layout, Sink: sink})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "heap overflow") {
		t.Fatalf("Run returned %v, want a heap overflow", err)
	}
	n := sink.refs.Load()
	if n <= 2*32768 {
		t.Fatalf("the run emitted %d references before its fault: too few to hand off two halves", n)
	}
	if sink.inCall.Load() != 0 {
		t.Error("a sink call is running after Run returned")
	}
	eng.Close()
	if got := sink.refs.Load(); got != n {
		t.Errorf("Close delivered %d references after Run returned", got-n)
	}
}
