package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
)

func TestRunGridReturnsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := runGrid(ctx, new(bench.Runner), 10, func(i int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runGrid with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("cancelled-before-start grid still ran %d cells", calls.Load())
	}
}

func TestRunGridStopsAtCellBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	err := runGrid(ctx, &bench.Runner{Par: 2}, 1000, func(i int) error {
		if calls.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cells already in flight complete; everything else is skipped.
	if n := calls.Load(); n > 10 {
		t.Fatalf("grid ran %d cells after cancellation — should stop at the next cell boundary", n)
	}
}

func TestDriverCancellationDoesNotPoisonMemo(t *testing.T) {
	name := "qsort-150"
	r := new(bench.Runner)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLineSizeSweep(ctx, r, name, 2, 256, []int{2, 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
	}
	// The cancelled cell must not be memoized as failed: the same
	// driver with a live context succeeds.
	l, err := RunLineSizeSweep(context.Background(), r, name, 2, 256, []int{2, 4})
	if err != nil {
		t.Fatalf("sweep after cancelled attempt: %v", err)
	}
	if len(l.Ratio) != 2 {
		t.Fatalf("got %d ratios, want 2", len(l.Ratio))
	}
}

func TestStorelessCancelledGenerationNotRemembered(t *testing.T) {
	b, _ := bench.ByName("deriv-12")
	r := new(bench.Runner)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.EnsureStored(ctx, b, 2, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnsureStored with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if buf := cellBuffer(t, r, b, 2, false); buf.Len() == 0 {
		t.Fatal("retried trace is empty")
	}
}

func TestGenerateTracesCancellation(t *testing.T) {
	r := storeRunner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	targets := []TraceTarget{{Benchmark: bench.Qsort(), PEs: 2}}
	if err := GenerateTraces(ctx, r, targets); !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerateTraces with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if err := GenerateTraces(context.Background(), r, targets); err != nil {
		t.Fatalf("GenerateTraces retry: %v", err)
	}
}
