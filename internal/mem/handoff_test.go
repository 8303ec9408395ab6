package mem

// Tests for the hand-off of full staging halves to drain goroutines:
// every reference reaches the sink once and in order whatever the run's
// length, the engine's goroutine never returns from Flush or Release
// with a drain running, a sink panic surfaces on the caller's goroutine
// with its own value, and no drain goroutine outlives its batch.

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// recordSink keeps a copy of every batch it is handed and fails the
// test if two of its calls ever overlap.
type recordSink struct {
	t       *testing.T
	refs    []trace.Ref
	batches []int
	inCall  atomic.Int32
}

func (s *recordSink) enter() {
	if s.inCall.Add(1) != 1 {
		s.t.Error("two sink calls overlap")
	}
}

func (s *recordSink) Add(r trace.Ref) {
	s.enter()
	defer s.inCall.Add(-1)
	s.refs = append(s.refs, r)
	s.batches = append(s.batches, 1)
}

func (s *recordSink) AddBatch(refs []trace.Ref) {
	s.enter()
	defer s.inCall.Add(-1)
	s.refs = append(s.refs, refs...)
	s.batches = append(s.batches, len(refs))
}

// perRefSink hides recordSink's AddBatch, so Memory calls Add once per
// reference.
type perRefSink struct{ s *recordSink }

func (p perRefSink) Add(r trace.Ref) { p.s.Add(r) }

// emit stages n references of a fixed pseudo-random pattern through
// Read and Write and returns them in emission order.
func emit(m *Memory, n int) []trace.Ref {
	objs := []trace.ObjType{trace.ObjHeap, trace.ObjEnvPVar, trace.ObjTrail, trace.ObjGoalFrame}
	want := make([]trace.Ref, 0, n)
	rng := uint64(n)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pe := int(rng>>33) % refLayout.Workers
		heap := m.Region(pe, trace.AreaHeap)
		addr := heap.Base + int(rng>>40)%heap.Size()
		obj := objs[int(rng>>20)%len(objs)]
		if rng&1 == 0 {
			m.Write(pe, addr, MakeInt(int64(i)), obj)
			want = append(want, trace.Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpWrite, Obj: obj})
		} else {
			m.Read(pe, addr, obj)
			want = append(want, trace.Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpRead, Obj: obj})
		}
	}
	return want
}

// TestHandOffDeliversEachRefOnceInOrder: around one half (N−1, N,
// N+1) and across several (3N+5), a batch sink and a per-reference
// sink see every reference once, in emission order, in whole halves
// and then the Flush's tail; Counter() counts what the sink saw.
func TestHandOffDeliversEachRefOnceInOrder(t *testing.T) {
	const N = stageRefs
	for _, n := range []int{N - 1, N, N + 1, 3*N + 5} {
		for _, perRef := range []bool{false, true} {
			rec := &recordSink{t: t}
			var sink trace.Sink = rec
			if perRef {
				sink = perRefSink{rec}
			}
			m := newTestMemory(t, refLayout, sink)
			want := emit(m, n)
			// A half is handed off by the write after the one that fills it.
			if got, handed := m.Counter().Total(), int64((n-1)/N*N); got != handed {
				t.Errorf("n=%d perRef=%v: Counter() before Flush counts %d refs, want the %d handed off", n, perRef, got, handed)
			}
			m.Flush()
			if !slices.Equal(rec.refs, want) {
				t.Fatalf("n=%d perRef=%v: sink saw %d refs, not the %d emitted in order", n, perRef, len(rec.refs), len(want))
			}
			if !perRef {
				var wantBatches []int
				for left := n; left > 0; left -= N {
					wantBatches = append(wantBatches, min(left, N))
				}
				if !slices.Equal(rec.batches, wantBatches) {
					t.Errorf("n=%d: batches %v, want %v", n, rec.batches, wantBatches)
				}
			}
			var counted trace.Counter
			counted.AddBatch(rec.refs)
			if got := m.Counter(); *got != counted {
				t.Errorf("n=%d perRef=%v: Counter() = %+v, the sink counted %+v", n, perRef, *got, counted)
			}
			m.Flush()
			if len(rec.refs) != n {
				t.Errorf("n=%d perRef=%v: a second Flush delivered %d more refs", n, perRef, len(rec.refs)-n)
			}
		}
	}
}

// gateSink holds its first batch until the gate opens, then records
// it like every later one.
type gateSink struct {
	recordSink
	entered chan struct{}
	gate    chan struct{}
	first   bool
}

func (s *gateSink) AddBatch(refs []trace.Ref) {
	if !s.first {
		s.first = true
		close(s.entered)
		<-s.gate
	}
	s.recordSink.AddBatch(refs)
}

// TestFlushWaitsForTheInFlightHalf: Flush with a drain still in the
// sink returns only after that drain, and delivers its own tail after
// it, in emission order. The in-flight drain is held until a timer
// opens its gate, so a Flush that did not wait would record its tail
// first.
func TestFlushWaitsForTheInFlightHalf(t *testing.T) {
	sink := &gateSink{recordSink: recordSink{t: t}, entered: make(chan struct{}), gate: make(chan struct{})}
	m := newTestMemory(t, refLayout, sink)
	want := emit(m, stageRefs+10)
	<-sink.entered // the first half is in the sink, held
	time.AfterFunc(50*time.Millisecond, func() { close(sink.gate) })
	m.Flush()
	if !slices.Equal(sink.refs, want) {
		t.Fatalf("after Flush the sink holds %d refs, not the %d emitted in order", len(sink.refs), len(want))
	}
	if !slices.Equal(sink.batches, []int{stageRefs, 10}) {
		t.Errorf("batches %v, want [%d 10]", sink.batches, stageRefs)
	}
}

// panicSink panics with its value on the given batch (1-based) and
// takes every other batch.
type panicSink struct {
	on      int
	value   any
	batches int
}

func (s *panicSink) Add(trace.Ref) {}

func (s *panicSink) AddBatch([]trace.Ref) {
	s.batches++
	if s.batches == s.on {
		panic(s.value)
	}
}

// recovered runs f and returns what it panicked with, nil if nothing.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestSinkPanicReachesTheCaller: a sink that panics on its second
// batch — on a drain goroutine — panics the caller's goroutine with
// that very value, at the next hand-off or at Flush, and only once;
// the Memory still releases its slab afterwards.
func TestSinkPanicReachesTheCaller(t *testing.T) {
	value := errors.New("sink bug")
	for _, at := range []string{"hand-off", "Flush"} {
		before := LiveBytes()
		sink := &panicSink{on: 2, value: value}
		m, err := NewMemory(refLayout, sink)
		if err != nil {
			t.Fatal(err)
		}
		emit(m, 2*stageRefs+1) // the second half is handed off
		got := recovered(func() {
			if at == "Flush" {
				m.Flush()
				return
			}
			emit(m, stageRefs) // the third hand-off waits for the second
		})
		if got != value {
			t.Fatalf("%s: recovered %v, want the sink's own value %v", at, got, value)
		}
		if again := recovered(m.Flush); again != nil {
			t.Errorf("%s: a later Flush panicked again with %v", at, again)
		}
		m.Release()
		if LiveBytes() != before {
			t.Errorf("%s: live bytes = %d after Release, want %d", at, LiveBytes(), before)
		}
	}
}

// TestNoDrainGoroutineOutlivesRelease: once Release returns, every
// drain goroutine the Memory started has ended.
func TestNoDrainGoroutineOutlivesRelease(t *testing.T) {
	start := runtime.NumGoroutine()
	m, err := NewMemory(refLayout, trace.Discard)
	if err != nil {
		t.Fatal(err)
	}
	emit(m, 3*stageRefs+5)
	m.Release()
	// A drain's send on drained is its last statement, but the
	// goroutine is counted until it has exited. The count may also
	// fall below the start, as goroutines of earlier tests end.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Release, %d before NewMemory", runtime.NumGoroutine(), start)
		}
		runtime.Gosched()
	}
}
