package bench

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// cancelAfter is a trace sink that cancels a context once it has seen
// n references — a deterministic way to interrupt the engine mid-run
// (the engine polls the context every few thousand cycles).
type cancelAfter struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Add(trace.Ref) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

func TestRunHonorsPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var r Runner
	if _, err := r.Run(ctx, Deriv(), RunConfig{PEs: 1, Sequential: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if got := r.EngineRuns(); got != 0 {
		t.Fatalf("cancelled-before-start Run still counted %d engine runs", got)
	}
}

func TestRunCancelsMidRun(t *testing.T) {
	live := mem.LiveBytes()
	for _, pes := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelAfter{n: 5000, cancel: cancel}
		_, err := new(Runner).Run(ctx, Qsort(), RunConfig{PEs: pes, Sequential: pes == 1, Sink: sink})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("PEs=%d: err = %v, want context.Canceled", pes, err)
		}
		if got := mem.LiveBytes(); got != live {
			t.Fatalf("PEs=%d: cancelled run left %d bytes of engine memory mapped", pes, got-live)
		}
		// The abort must be prompt: the engine polls every ~4096 cycles,
		// so only a bounded sliver of the trace is emitted after the
		// cancellation point.
		if sink.seen > sink.n+64*4096 {
			t.Fatalf("PEs=%d: %d refs emitted after cancellation at %d — abort not prompt", pes, sink.seen-sink.n, sink.n)
		}
	}
}

// TestRunGivesMemoryBackOnFault: a run that dies of a machine fault (a
// layout too small for the program) unmaps its address space on the way
// out, like a successful one — not at some later cleanup.
func TestRunGivesMemoryBackOnFault(t *testing.T) {
	live := mem.LiveBytes()
	var r Runner
	if _, err := r.Run(context.Background(), Qsort(), RunConfig{PEs: 4}); err != nil {
		t.Fatal(err)
	}
	if got := mem.LiveBytes(); got != live {
		t.Fatalf("successful run left %d bytes of engine memory mapped", got-live)
	}
	small := mem.DefaultLayout(4)
	small.Heap = 256
	_, err := r.Run(context.Background(), Qsort(), RunConfig{PEs: 4, Layout: small})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want a heap overflow", err)
	}
	if got := mem.LiveBytes(); got != live {
		t.Fatalf("faulting run left %d bytes of engine memory mapped", got-live)
	}
}

func TestEnsureStoredCancellationNotMemoized(t *testing.T) {
	dir := t.TempDir()
	store, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Store: store}

	b := QsortSized(300) // distinct cell, cheap regeneration
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.EnsureStored(ctx, b, 2, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnsureStored with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// The cancelled flight must not poison the cell: a caller with a
	// live context regenerates it.
	if _, err := r.EnsureStored(context.Background(), b, 2, false); err != nil {
		t.Fatalf("EnsureStored after cancelled attempt: %v", err)
	}
	if !store.Has(StoreKey(b.Name, 2, false)) {
		t.Fatal("cell missing from store after successful retry")
	}
	// A cancelled generation must leave no temp droppings behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stranded temp file %s", filepath.Join(dir, e.Name()))
		}
	}
}

func TestEnsureStoredMidRunCancellationCleansUp(t *testing.T) {
	dir := t.TempDir()
	store, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Store: store}

	b := QsortSized(400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// EnsureStored drives its own sink (the store's encoder), so the
	// cancellation comes from outside: cancel as soon as the engine
	// run has started (detected by the EngineRuns counter moving).
	done := make(chan error, 1)
	go func() {
		_, err := r.EnsureStored(ctx, b, 4, false)
		done <- err
	}()
	for r.EngineRuns() == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		// The run may legitimately win the race and complete; only a
		// non-context error is a failure.
		if err != nil {
			t.Fatalf("EnsureStored: %v", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stranded temp file after mid-run cancellation: %s", e.Name())
		}
	}
}
