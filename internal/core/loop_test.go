package core

// The instruction loop's edges. A sole runner executes whole stretches
// of its quantum inside worker.run, which advances the cycle before each
// instruction and stops at the budget the quantum hands it (the cycle
// limit or the next cancellation poll). These tests pin what must not
// move with that: the cycle a machine error reports, the cycle a
// runaway stops at, and the prefix a cancelled run emits — each against
// the reference round-robin, which steps one instruction per tick.

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/mem"
	"repro/internal/trace"
)

// repNrev is reference-heavy straight-line work: rep(N) reverses a
// 16-element list N times.
const repNrev = `
	app([], L, L).
	app([H|T], L, [H|R]) :- app(T, L, R).
	nrev([], []).
	nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
	rep(0).
	rep(N) :- N > 0, nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16], _), M is N - 1, rep(M).
`

// loopRun runs program/query at pes PEs with the given heap size, cycle
// bound, dispatcher, sink and cancel channel.
func loopRun(t *testing.T, program, query string, pes, heap int, maxCycles int64, reference bool, sink trace.Sink, cancel <-chan struct{}) (*Result, error) {
	t.Helper()
	code, err := compile.Compile(program, query, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	layout := mem.Layout{
		Workers: pes,
		Heap:    heap, Local: 1 << 14, Control: 1 << 14,
		Trail: 1 << 13, PDL: 1 << 10, Goal: 1 << 10, Msg: 1 << 8,
	}
	eng, err := New(code, Config{
		PEs: pes, Layout: layout, MaxCycles: maxCycles,
		Sink: sink, ReferenceDispatch: reference, Cancel: cancel,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	return eng.Run()
}

// TestMachineErrorContextMatchesReference: a heap overflow raised inside
// a sole-runner quantum — the whole run at 1 PE, the growing arm of a
// parcall once its sibling is done at 2 and 4 PEs — reports the same
// cycle and pc as under the reference scheduler.
func TestMachineErrorContextMatchesReference(t *testing.T) {
	const program = fuzzSlow + `
		grow(L) :- grow([x|L]).
		top :- (slow(30) & grow([])).
	`
	shape := regexp.MustCompile(`^cycle \d+ pc \d+: pe\d: heap overflow$`)
	for _, tc := range []struct {
		query string
		pes   int
	}{{"grow([])", 1}, {"top", 2}, {"top", 4}} {
		_, ref := loopRun(t, program, tc.query, tc.pes, 1<<10, 1e6, true, nil, nil)
		_, got := loopRun(t, program, tc.query, tc.pes, 1<<10, 1e6, false, nil, nil)
		if ref == nil || !shape.MatchString(ref.Error()) {
			t.Fatalf("%s@%d: reference error %v, want a heap overflow", tc.query, tc.pes, ref)
		}
		if got == nil || got.Error() != ref.Error() {
			t.Errorf("%s@%d: error %q, reference %q", tc.query, tc.pes, got, ref)
		}
	}
}

// TestCycleLimitMatchesReference sweeps MaxCycles across a whole run: at
// every limit both dispatchers must stop with the runaway error after
// emitting the same references, a prefix of the unbounded run's.
func TestCycleLimitMatchesReference(t *testing.T) {
	const program = repNrev + `
		top :- (rep(6) & rep(3)), rep(8).
	`
	for _, pes := range []int{1, 2} {
		full := trace.NewBuffer(1 << 16)
		res, err := loopRun(t, program, "top", pes, 1<<16, 1e7, true, full, nil)
		if err != nil {
			t.Fatalf("%d PEs: unbounded run: %v", pes, err)
		}
		fullRefs := slices.Concat(full.Segments()...)
		const limits = 50
		for i := int64(1); i <= limits; i++ {
			// The offsets move the limits off any common stride, across
			// the cancellation-poll windows as well as the run.
			limit := i*res.Stats.Cycles/(limits+1) + i%97
			ref, got := trace.NewBuffer(1<<12), trace.NewBuffer(1<<12)
			_, refErr := loopRun(t, program, "top", pes, 1<<16, limit, true, ref, nil)
			_, gotErr := loopRun(t, program, "top", pes, 1<<16, limit, false, got, nil)
			want := fmt.Sprintf("core: exceeded %d cycles (livelock or runaway program)", limit)
			if refErr == nil || refErr.Error() != want {
				t.Fatalf("%d PEs, limit %d: reference returned %v, want the runaway error", pes, limit, refErr)
			}
			if gotErr == nil || gotErr.Error() != refErr.Error() {
				t.Fatalf("%d PEs, limit %d: error %v, reference %v", pes, limit, gotErr, refErr)
			}
			gotRefs, refRefs := slices.Concat(got.Segments()...), slices.Concat(ref.Segments()...)
			if len(gotRefs) != len(refRefs) {
				t.Fatalf("%d PEs, limit %d: emitted %d refs, reference %d", pes, limit, len(gotRefs), len(refRefs))
			}
			for j := range refRefs {
				if gotRefs[j] != refRefs[j] || refRefs[j] != fullRefs[j] {
					t.Fatalf("%d PEs, limit %d: ref %d differs: got %v, reference %v, unbounded %v",
						pes, limit, j, gotRefs[j], refRefs[j], fullRefs[j])
				}
			}
		}
	}
}

// TestSoleRunnerCancelPrefix: a Cancel fired part-way through a long
// 1-PE run — one sole-runner quantum — surfaces context.Canceled, and
// the references emitted before it are a prefix of the full run's.
func TestSoleRunnerCancelPrefix(t *testing.T) {
	checkCancelPrefix(t, repNrev, "rep(1000)", 1, 1<<20, 1)
}

// TestMultiPECancelPrefix is the same contract at 8 PEs, where the cut
// falls among round-robin cycles and multi-runner quanta, and where it
// is also deterministic run to run (see cancelSink).
func TestMultiPECancelPrefix(t *testing.T) {
	checkCancelPrefix(t, dispatchCases[1].program, "tree(13, N)", 8, 1<<16, 2)
}

// checkCancelPrefix runs program/query in full, then runs more times
// with a Cancel fired a third of the way through the full run's
// references. Each cancelled run must surface context.Canceled and emit
// a prefix of the full run's references, and all must stop at the same
// length.
func checkCancelPrefix(t *testing.T, program, query string, pes, heap, runs int) {
	t.Helper()
	full := trace.NewBuffer(1 << 20)
	if _, err := loopRun(t, program, query, pes, heap, 1e8, false, full, nil); err != nil {
		t.Fatalf("full run: %v", err)
	}
	fullRefs := slices.Concat(full.Segments()...)
	cut := len(fullRefs) / 3
	if cut < 4*65536 {
		t.Fatalf("run too short for a mid-run cancel: %d refs", len(fullRefs))
	}
	prev := -1
	for range runs {
		sink := newCancelSink(cut)
		_, err := loopRun(t, program, query, pes, heap, 1e8, false, sink, sink.stop)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		got := slices.Concat(sink.Buffer.Segments()...)
		if len(got) < cut || len(got) >= len(fullRefs) {
			t.Fatalf("cancelled run emitted %d refs (cut %d, full %d)", len(got), cut, len(fullRefs))
		}
		for i := range got {
			if got[i] != fullRefs[i] {
				t.Fatalf("ref %d diverges from the full run", i)
			}
		}
		if prev >= 0 && len(got) != prev {
			t.Fatalf("cancelled length varies run to run: %d vs %d", len(got), prev)
		}
		prev = len(got)
	}
}

// cancelSink cancels the engine once n references have been emitted:
// a deterministic point in the reference stream, independent of
// wall-clock. The sink closes the channel on a drain goroutine of the
// engine's memory, and the engine polls it on its own goroutine once
// every cancelMask+1 cycles. At 8 PEs that is ~127 k references, so
// between the hand-off of the half that crosses n and the next poll
// lies at least one more hand-off, which waits for the drain that
// closed the channel: the cut lands at a deterministic cycle. At 1 PE
// a poll can come first, so only the prefix holds.
type cancelSink struct {
	trace.Buffer
	after int
	once  sync.Once
	stop  chan struct{}
}

func newCancelSink(after int) *cancelSink {
	return &cancelSink{after: after, stop: make(chan struct{})}
}

func (c *cancelSink) check() {
	if c.Len() >= c.after {
		c.once.Do(func() { close(c.stop) })
	}
}

func (c *cancelSink) Add(r trace.Ref)           { c.Buffer.Add(r); c.check() }
func (c *cancelSink) AddBatch(refs []trace.Ref) { c.Buffer.AddBatch(refs); c.check() }
