package bench

// Trace-store integration: the one data path of a grid cell. Every
// benchmark cell — one (benchmark, PEs, sequential) engine run — is
// generated at most once per emulator version and store: the run
// streams its reference trace straight into the store's compact
// encoder (never buffering it) and records its engine statistics in a
// run sidecar, and every consumer replays from the store. The store
// is Runner.Store, or the Runner's private in-memory one when none is
// configured; UseCell owns the heal/degrade rule for both.

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/objcodec"
	"repro/internal/storage/blob"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// cellFlight is one in-progress generation of a store cell
// (Runner.flights).
type cellFlight struct {
	done chan struct{}
	err  error
}

// flightKey names one cell of one store: the configured store and the
// private one generate the same cell independently.
type flightKey struct {
	s *tracestore.Store
	k tracestore.Key
}

// cellLock is one cell's lock (Runner.locks); refs counts its holder
// and waiters so the entry can go when the last one leaves.
type cellLock struct {
	mu   sync.Mutex
	refs int
}

// LockCell serializes work on one stored cell of s: it blocks until no
// other caller of this Runner holds the same (s, k), and returns the
// function that releases it. It exists for the cell's result object,
// which is read, extended and written back as a whole — held across
// lookup, replay and write-back it is also the single-flight of the
// simulation: a second consumer of the same cell waits, then finds the
// first one's results stored. Generation has its own flight (ensure);
// plain readers of the trace or sidecar need no lock.
func (r *Runner) LockCell(s *tracestore.Store, k tracestore.Key) (unlock func()) {
	fk := flightKey{s, k}
	r.locksMu.Lock()
	l := r.locks[fk]
	if l == nil {
		if r.locks == nil {
			r.locks = make(map[flightKey]*cellLock)
		}
		l = new(cellLock)
		r.locks[fk] = l
	}
	l.refs++
	r.locksMu.Unlock()

	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		r.locksMu.Lock()
		if l.refs--; l.refs == 0 {
			delete(r.locks, fk)
		}
		r.locksMu.Unlock()
	}
}

// StoreKey returns the trace-store key for a benchmark cell under the
// current emulator version.
func StoreKey(benchmark string, pes int, sequential bool) tracestore.Key {
	return tracestore.Key{
		Benchmark:       benchmark,
		PEs:             pes,
		Sequential:      sequential,
		EmulatorVersion: core.EmulatorVersion,
	}
}

// RunRecord is the store sidecar written alongside each generated
// trace: the generating run's outcome and instrumentation, so drivers
// that need only statistics (Figure 2, Table 2, MLIPS, lock share)
// skip the emulator exactly like trace consumers do.
type RunRecord struct {
	// Success reports whether the query succeeded (it always has for a
	// stored benchmark cell: generation validates the answer).
	Success bool
	// Stats is the engine instrumentation of the generating run.
	Stats core.Stats
	// Refs is the Table 1 reference counter of the generating run.
	Refs trace.Counter
}

// Encode writes the record in the trace store's object format: every
// field of RunRecord, core.Stats and trace.Counter in declaration order.
// A field added to any of the three goes here and into Decode, and moves
// the pinned bytes of tracestore's TestObjectGoldenBytes (bump
// tracestore.ObjectVersion); TestObjectFieldCoverage fails until then.
func (r RunRecord) Encode(e *objcodec.Encoder) {
	e.Bool(r.Success)
	s := &r.Stats
	e.Int(s.Cycles)
	e.Ints(s.Instructions)
	e.Ints(s.WorkRefs)
	e.Ints(s.RunCycles)
	e.Ints(s.WaitCycles)
	e.Ints(s.IdleCycles)
	e.Int(s.Inferences)
	e.Int(s.Parcalls)
	e.Int(s.GoalsParallel)
	e.Int(s.GoalsStolen)
	e.Int(s.StealProbes)
	e.Int(s.Kills)
	e.Int(s.CheckFails)
	e.Int(int64(s.MaxHeap))
	e.Int(int64(s.MaxLocal))
	e.Int(int64(s.MaxControl))
	e.Int(int64(s.MaxTrail))
	for i := range r.Refs.ByObj {
		e.Ints(r.Refs.ByObj[i][:])
	}
	e.Ints(r.Refs.ByPE[:])
}

// Decode reads what Encode wrote.
func (r *RunRecord) Decode(d *objcodec.Decoder) {
	r.Success = d.Bool()
	s := &r.Stats
	s.Cycles = d.Int()
	s.Instructions = d.Ints()
	s.WorkRefs = d.Ints()
	s.RunCycles = d.Ints()
	s.WaitCycles = d.Ints()
	s.IdleCycles = d.Ints()
	s.Inferences = d.Int()
	s.Parcalls = d.Int()
	s.GoalsParallel = d.Int()
	s.GoalsStolen = d.Int()
	s.StealProbes = d.Int()
	s.Kills = d.Int()
	s.CheckFails = d.Int()
	s.MaxHeap = int(d.Int())
	s.MaxLocal = int(d.Int())
	s.MaxControl = int(d.Int())
	s.MaxTrail = int(d.Int())
	for i := range r.Refs.ByObj {
		d.IntsInto(r.Refs.ByObj[i][:])
	}
	d.IntsInto(r.Refs.ByPE[:])
}

// store returns the store this Runner's cells live in: Store, or the
// private in-memory one.
func (r *Runner) store() *tracestore.Store {
	if r.Store != nil {
		return r.Store
	}
	return r.memStore()
}

// EnsureStored makes sure the Runner's store (Store, or the private
// in-memory one without it) holds the trace and run sidecar for
// (b, pes, sequential), generating them with one engine run if absent,
// and returns the cell's key. It does not heal a failing store; UseCell
// does.
func (r *Runner) EnsureStored(ctx context.Context, b Benchmark, pes int, sequential bool) (tracestore.Key, error) {
	return r.ensure(ctx, r.store(), b, pes, sequential)
}

// ensure is EnsureStored on s. Generation is streaming (the trace
// never materializes in memory) and single-flighted: concurrent
// callers for the same cell block until the one generation completes —
// the generating caller's ctx governs the engine run, so every waiter
// on a cancelled flight observes the context error.
//
// Failures are not memoized: the next call re-checks the store and
// regenerates, which is how a cell quarantined by a corrupt read comes
// back.
func (r *Runner) ensure(ctx context.Context, s *tracestore.Store, b Benchmark, pes int, sequential bool) (tracestore.Key, error) {
	k := StoreKey(b.Name, pes, sequential)
	fk := flightKey{s, k}
	for {
		f := &cellFlight{done: make(chan struct{})}
		if v, loaded := r.flights.LoadOrStore(fk, f); loaded {
			// Someone else is generating this cell; wait them out,
			// then re-check the store (their failure is not ours to
			// inherit — a cancelled or faulted generation must not
			// poison callers with live contexts). The re-check is this
			// caller's one counted lookup: with it every caller of a
			// stored cell counts one Hit, whoever generated it, so the
			// store's counters do not depend on who overlapped whom.
			other := v.(*cellFlight)
			//rapwam:allow determinism flight-wait select: both outcomes converge (re-check store / ctx.Err()), and nothing is emitted here
			select {
			case <-other.done:
				if other.err == nil && s.Has(k) {
					return k, nil
				}
				if ctx.Err() != nil {
					return k, ctx.Err()
				}
				// Their generation failed, or the cell is gone again;
				// loop and try ourselves.
				continue
			case <-ctx.Done():
				return k, ctx.Err()
			}
		}
		f.err = r.generateCell(ctx, s, k, b, pes, sequential)
		r.flights.Delete(fk)
		close(f.done)
		return k, f.err
	}
}

// generateCell performs one store-check + generation for a cell.
func (r *Runner) generateCell(ctx context.Context, s *tracestore.Store, k tracestore.Key, b Benchmark, pes int, sequential bool) error {
	if s.Has(k) {
		return nil
	}
	var res *core.Result
	err := s.Put(k, func(sink trace.Sink) (err error) {
		res, err = r.Run(ctx, b, RunConfig{PEs: pes, Sequential: sequential, Sink: sink})
		return err
	})
	if err != nil {
		return err
	}
	return s.PutSidecar(k, &RunRecord{Success: res.Success, Stats: res.Stats, Refs: *res.Refs})
}

// storeHealAttempts bounds how many times UseCell retries a cell whose
// store keeps failing before degrading to the in-memory store.
const storeHealAttempts = 3

// storeHealable reports whether a store-path failure is worth
// retrying/degrading around: quarantined corruption (the retry
// regenerates the cell) or a backend-side storage failure (the
// in-memory store bypasses it). Everything else — a failing benchmark,
// cancellation — propagates.
func storeHealable(err error) bool {
	return tracestore.IsCorrupt(err) || blob.AsBackendError(err)
}

// UseCell is how a cell's stored trace and sidecar are consumed, and
// the one place storage trouble is handled: it makes sure the cell is
// stored, then calls use with the store that holds it and its key.
//
// A corrupt stored object is quarantined by the failing read (it reads
// as a miss), so the retry regenerates it; transient backend errors
// retry too; and if Store still fails after storeHealAttempts, the
// cell goes through the private in-memory store instead (marking the
// context's degraded flag, X-Degraded at the serving layer) — storage
// trouble costs latency, never an answer, and the result is identical
// because a cell is a pure function of its key. Cells generated during
// an outage stay in the in-memory store, apart from the recovered
// Store's.
//
// A failed attempt may have fed use's consumers a partial stream:
// use must build its consumer state afresh on every call.
func (r *Runner) UseCell(ctx context.Context, b Benchmark, pes int, sequential bool, use func(s *tracestore.Store, k tracestore.Key) error) error {
	try := func(s *tracestore.Store) error {
		k, err := r.ensure(ctx, s, b, pes, sequential)
		if err != nil {
			return err
		}
		return use(s, k)
	}
	s := r.store()
	var err error
	for attempt := 0; attempt < storeHealAttempts && ctx.Err() == nil; attempt++ {
		if err = try(s); err == nil || !storeHealable(err) {
			return err
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	blob.MarkDegraded(ctx, "trace-store")
	r.Progressf("%s @ %d PEs: trace store keeps failing, using the in-memory store: %v", b.Name, pes, err)
	return try(r.memStore())
}

// Trace returns the benchmark's full memory-reference trace as a
// Buffer. Without a Store that is one emulator run capturing into the
// buffer; with one the cell goes through the store like every grid
// cell (UseCell) and is decoded from it. Callers that want to stream
// references instead of buffering them pass their own Sink via
// RunConfig.
func (r *Runner) Trace(ctx context.Context, b Benchmark, pes int, sequential bool) (*trace.Buffer, error) {
	if r.Store == nil {
		buf := new(trace.Buffer)
		if _, err := r.Run(ctx, b, RunConfig{PEs: pes, Sequential: sequential, Sink: buf}); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var buf *trace.Buffer
	err := r.UseCell(ctx, b, pes, sequential, func(s *tracestore.Store, k tracestore.Key) (err error) {
		buf, _, err = s.Load(k)
		return err
	})
	return buf, err
}
