package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// errShed reports a request refused at admission: the in-flight
// compute limit is reached and the queue is full. The handler maps it
// to 429 with Retry-After — the client did nothing wrong, the server
// is protecting its latency.
var errShed = errors.New("service: compute capacity exhausted, request shed")

// errComputeTimeout reports a computation that exceeded the
// per-request compute budget (Config.ComputeTimeout). The handler maps
// it to 504 — distinguishable from client disconnects and shutdown,
// which map to 503.
var errComputeTimeout = errors.New("service: computation deadline exceeded")

// admission bounds how many flight computations run at once and how
// many may queue for a slot. Cache hits and flight joins never pass
// through admission — only the caller that would START a computation
// acquires a slot, so N identical cold requests still cost one slot
// (single-flight) while N distinct cold requests are throttled to the
// compute limit, and everything beyond limit+queue sheds immediately
// instead of building an unbounded convoy.
type admission struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
	sheds    atomic.Int64
}

// newAdmission builds an admission gate for maxComputes concurrent
// computations and maxQueue waiters (maxQueue <= 0 defaults to
// 4×maxComputes). maxComputes <= 0 returns nil: unlimited.
func newAdmission(maxComputes, maxQueue int) *admission {
	if maxComputes <= 0 {
		return nil
	}
	if maxQueue <= 0 {
		maxQueue = 4 * maxComputes
	}
	return &admission{slots: make(chan struct{}, maxComputes), maxQueue: int64(maxQueue)}
}

// Sheds returns how many requests were refused at admission.
func (a *admission) Sheds() int64 {
	if a == nil {
		return 0
	}
	return a.sheds.Load()
}

// acquire takes a compute slot, queueing (bounded) when none is free.
// Returns errShed when the queue is full, ctx.Err() if the caller goes
// away while queued.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.sheds.Add(1)
		return errShed
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot.
func (a *admission) release() {
	if a != nil {
		<-a.slots
	}
}

// flightResult is what a completed flight hands every waiter.
type flightResult struct {
	// ent holds the envelope (and, once rendered, its csv and text
	// forms); src reports where it came from ("computed", "proxied", or
	// a cache layer when the in-flight double-check hit).
	ent *memEntry
	src string
	// degraded lists storage components the computation had to bypass
	// (compute-without-caching); the handler surfaces them in the
	// X-Degraded header for every waiter.
	degraded []string
}

// flightGroup deduplicates concurrent computations of the same result
// cache key: N simultaneous cold requests for one cell perform exactly
// one grid run, everyone shares the body. It is also where the
// server's two compute-protection mechanisms live, because both are
// per-computation, not per-request:
//
//   - admission (adm): the flight-creating caller must win a compute
//     slot first; joiners ride free. See admission.
//   - compute timeout (timeout): each flight's context carries an
//     optional deadline whose expiry surfaces as errComputeTimeout
//     (504), distinct from client-cancellation 503s.
//
// Cancellation semantics are reference-counted: the computation runs
// on its own goroutine under a context detached from any single
// request, and that context is cancelled only when every caller
// waiting on the flight has gone away (each waiter's own ctx.Done
// decrements the count). One impatient client disconnecting therefore
// cannot abort a computation other clients still want — but when the
// last waiter leaves (or the server's base context cancels every
// request at shutdown), the in-flight grid work is cancelled promptly
// rather than stranded.
//
// Flights are removed from the group on completion, success or
// failure: a successful body lives on in the result cache, and errors
// are deliberately never memoized — the next request retries.
type flightGroup struct {
	adm     *admission
	timeout time.Duration

	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	waiters int
	cancel  context.CancelFunc
	done    chan struct{}
	res     flightResult
	err     error
}

// do returns fn's result for key, joining an in-flight computation if
// one exists and starting one (through admission) otherwise. If ctx is
// cancelled while waiting, do returns ctx.Err() immediately; the
// computation itself keeps running until its last waiter leaves.
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) (flightResult, error)) (flightResult, error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	f, ok := g.flights[key]
	if !ok {
		// No flight to join: this caller would start a computation, so
		// it is the one that pays admission. Drop the lock while
		// queueing — joiners and other keys must not block behind us.
		g.mu.Unlock()
		if err := g.adm.acquire(ctx); err != nil {
			return flightResult{}, err
		}
		g.mu.Lock()
		if f, ok = g.flights[key]; ok {
			// Lost the race: an identical request started the flight
			// while we queued. Join it and give the slot back.
			g.adm.release()
		} else {
			f = g.launch(ctx, key, fn)
		}
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		g.mu.Unlock()
		if last {
			f.cancel()
		}
		return flightResult{}, ctx.Err()
	}
}

// launch starts the flight goroutine for key (g.mu must be held). The
// goroutine owns the admission slot and releases it when the
// computation finishes.
func (g *flightGroup) launch(ctx context.Context, key string, fn func(context.Context) (flightResult, error)) *flight {
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	stopTimer := context.CancelFunc(func() {})
	if g.timeout > 0 {
		cctx, stopTimer = context.WithTimeoutCause(cctx, g.timeout, errComputeTimeout)
	}
	f := &flight{cancel: cancel, done: make(chan struct{})}
	g.flights[key] = f
	go func() {
		f.res, f.err = fn(cctx)
		if f.err != nil && context.Cause(cctx) == errComputeTimeout {
			// The budget expired: whatever shape the context error
			// bubbled up in, report the timeout — and NOT as a plain
			// DeadlineExceeded, which the caller's cancellation-retry
			// path would treat as collateral damage and loop on.
			f.err = fmt.Errorf("%w (budget %v)", errComputeTimeout, g.timeout)
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		g.adm.release()
		close(f.done)
		stopTimer()
		cancel()
	}()
	return f
}
