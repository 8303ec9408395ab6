package bench_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
)

// acquireNow takes a token that must be free: waiting for it means the
// budget is smaller than the test expects.
func acquireNow(t *testing.T, r *bench.Runner) func() {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	release, err := r.AcquireCell(ctx)
	if err != nil {
		t.Fatalf("a free token was not granted: %v", err)
	}
	return release
}

// assertFull checks that the budget has no token left: a wait with a
// deadline runs out.
func assertFull(t *testing.T, r *bench.Runner) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if release, err := r.AcquireCell(ctx); err == nil {
		release()
		t.Fatalf("a token was granted beyond Workers() = %d", r.Workers())
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full budget: %v, want the deadline", err)
	}
}

// TestBudgetFollowsPar: the budget holds exactly Workers() tokens,
// GOMAXPROCS at Par 0, and is resized when Par changes between runs; a
// token taken before the change goes back to the budget it came from.
func TestBudgetFollowsPar(t *testing.T) {
	r := new(bench.Runner)
	var held []func()
	for range runtime.GOMAXPROCS(0) {
		held = append(held, acquireNow(t, r))
	}
	assertFull(t, r)
	for _, release := range held {
		release()
	}

	r.Par = 1
	old := acquireNow(t, r)
	assertFull(t, r)
	r.Par = 3
	held = held[:0]
	for range 3 {
		held = append(held, acquireNow(t, r))
	}
	assertFull(t, r)
	old()
	assertFull(t, r)
	for _, release := range held {
		release()
	}
	release := acquireNow(t, r)
	release()
}

// TestBudgetCancelledWaitHoldsNothing: a wait that is cancelled, or
// that starts cancelled with tokens free, returns ctx.Err() and leaves
// the budget as it was.
func TestBudgetCancelledWaitHoldsNothing(t *testing.T) {
	r := &bench.Runner{Par: 1}
	release := acquireNow(t, r)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.AcquireCell(ctx)
		errc <- err
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: %v, want context.Canceled", err)
	}
	release()
	if _, err := r.AcquireCell(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context with a token free: %v, want context.Canceled", err)
	}
	acquireNow(t, r)()
}

// TestBudgetBoundsCellsInFlight: however many callers contend, no more
// than Par hold a token at once.
func TestBudgetBoundsCellsInFlight(t *testing.T) {
	const par = 3
	r := &bench.Runner{Par: par}
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for range 50 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := r.AcquireCell(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			defer release()
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched()
			inFlight.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > par {
		t.Fatalf("%d cells in flight, Par is %d", p, par)
	}
}
