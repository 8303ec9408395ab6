package core

// Sharded-execution parity: per-PE speculative epochs (Config.ExecShards
// > 1) must be observationally identical to the reference
// one-instruction-per-tick round-robin — same references in the same
// order, same statistics, same answers — at every shard count, for every
// program shape the dispatcher suite covers. The failure cases matter
// most here: they exercise kill delivery into speculated cycles and the
// snapshot-replay rollback.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/mem"
	"repro/internal/trace"
)

// runDispatchShards executes one dispatch case with the sharded
// dispatcher at the given host-shard count.
func runDispatchShards(t *testing.T, program, query string, pes, shards int) (*trace.Buffer, *Result) {
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
		PEs: pes, Layout: layout, MaxCycles: 50_000_000,
		Sink: buf, ExecShards: shards,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf, res
}

func shardCounts() []int {
	counts := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	// Oversubscribed: more host shards than PEs exist (clamped in New).
	counts = append(counts, 16)
	return counts
}

func TestShardedParity(t *testing.T) {
	for _, tc := range dispatchCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, pes := range []int{1, 2, 4, 8} {
				refTrace, refRes := runDispatch(t, tc.program, tc.query, pes, true)
				for _, shards := range shardCounts() {
					shTrace, shRes := runDispatchShards(t, tc.program, tc.query, pes, shards)

					sh, ref := slices.Concat(shTrace.Segments()...), slices.Concat(refTrace.Segments()...)
					if len(sh) != len(ref) {
						t.Fatalf("%d PEs, %d shards: sharded emitted %d refs, reference %d",
							pes, shards, len(sh), len(ref))
					}
					for i := range ref {
						if sh[i] != ref[i] {
							t.Fatalf("%d PEs, %d shards: ref %d differs: sharded %v, reference %v",
								pes, shards, i, sh[i], ref[i])
						}
					}
					if shRes.Success != refRes.Success {
						t.Errorf("%d PEs, %d shards: success %v vs %v",
							pes, shards, shRes.Success, refRes.Success)
					}
					if !reflect.DeepEqual(shRes.Bindings, refRes.Bindings) {
						t.Errorf("%d PEs, %d shards: bindings %v vs %v",
							pes, shards, shRes.Bindings, refRes.Bindings)
					}
					if !reflect.DeepEqual(shRes.Stats, refRes.Stats) {
						t.Errorf("%d PEs, %d shards: stats differ:\nsharded   %+v\nreference %+v",
							pes, shards, shRes.Stats, refRes.Stats)
					}
					if *shRes.Refs != *refRes.Refs {
						t.Errorf("%d PEs, %d shards: counters differ", pes, shards)
					}
				}
			}
		})
	}
}

// cancelSink cancels the engine once n references have been emitted:
// a deterministic point in the canonical reference stream, independent
// of wall-clock. The sink closes the channel on a drain goroutine of
// the engine's memory, and the engine polls it on its own goroutine
// once every cancelMask+1 cycles. In TestShardedCancelPrefix that is
// ~127 k references, so between the hand-off of the half that crosses
// n and the next poll lies at least one more hand-off, which waits for
// the drain that closed the channel: the cut lands at a deterministic
// cycle for a given shard count.
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

// TestShardedCancelPrefix pins the cancellation contract in sharded
// mode: a mid-run cancel — fired while speculated cycles are in flight
// — must surface context.Canceled, emit a prefix of the canonical
// stream (speculation beyond the cut is rolled back, never traced),
// and be deterministic run-to-run at a fixed shard count.
func TestShardedCancelPrefix(t *testing.T) {
	// The par-tree shape, deep enough that the run spans several staging
	// flushes: the sink observes the canonical count only at flush
	// boundaries, and detection costs up to cancelMask+1 further cycles.
	tc := struct{ program, query string }{dispatchCases[1].program, "tree(11, N)"}
	const pes = 8
	fullTrace, _ := runDispatch(t, tc.program, tc.query, pes, true)
	full := slices.Concat(fullTrace.Segments()...)
	if len(full) < 250_000 {
		t.Fatalf("case too small for a mid-run cancel: %d refs", len(full))
	}
	cut := len(full) / 3

	for _, shards := range []int{1, 2} {
		var prev int = -1
		for run := 0; run < 2; run++ {
			code, err := compile.Compile(tc.program, tc.query, compile.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			layout := mem.Layout{
				Workers: pes,
				Heap:    1 << 16, Local: 1 << 14, Control: 1 << 14,
				Trail: 1 << 13, PDL: 1 << 10, Goal: 1 << 10, Msg: 1 << 8,
			}
			sink := newCancelSink(cut)
			eng, err := New(code, Config{
				PEs: pes, Layout: layout, MaxCycles: 50_000_000,
				Sink: sink, ExecShards: shards, Cancel: sink.stop,
			})
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			_, err = eng.Run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%d shards: Run returned %v, want context.Canceled", shards, err)
			}
			eng.Close()

			got := slices.Concat(sink.Buffer.Segments()...)
			if len(got) < cut || len(got) >= len(full) {
				t.Fatalf("%d shards: canceled run emitted %d refs (cut %d, full %d)",
					shards, len(got), cut, len(full))
			}
			for i := range got {
				if got[i] != full[i] {
					t.Fatalf("%d shards: ref %d diverges from the canonical stream", shards, i)
				}
			}
			if prev >= 0 && len(got) != prev {
				t.Fatalf("%d shards: canceled length varies run-to-run: %d vs %d",
					shards, len(got), prev)
			}
			prev = len(got)
		}
	}
}
