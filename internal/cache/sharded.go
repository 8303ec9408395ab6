package cache

import (
	"fmt"

	"repro/internal/trace"
)

// Set-sharded parallel replay.
//
// A set-associative simulation decomposes exactly by cache set: the
// state a reference touches — the per-PE set lists, the snoop
// directory entries for lines mapping to that set, the victim it may
// evict — is a function of set(addr) alone, and every statistic the
// simulator accumulates is attributable to exactly one processed
// reference. So K workers, each running the unmodified replay loop
// (batch.go) over only the references whose set falls in its range,
// together perform precisely the state transitions and stat increments
// of a single sequential simulator, just partitioned. The deterministic
// reduction is then trivial: field-wise int64 sums (commutative and
// exact — no floats), merged in shard-index order, bit-identical to
// K=1 for every protocol. The golden-parity suite (parity_test.go)
// pins the sequential loop to the seed refsim; sharded_test.go pins
// the sharded path to the sequential loop across the full protocol
// matrix, closing the loop.
//
// The fully associative model (Assoc = 0, the paper's default) is one
// global LRU pool — a victim can come from anywhere, so there is no
// disjoint decomposition and EffectiveShards clamps to 1. Sharding
// pays off on the set-associative configurations (the assoc ablation
// and any Assoc > 0 sweep), and on those the shard count is further
// clamped to the set count.
//
// Routing is broadcast-and-filter rather than producer-side routing:
// every shard worker receives the full stream (via trace.FanOut) and
// filters it down to its own set range into a reusable scratch buffer.
// This keeps the producer single-goroutine and allocation-free, moves
// the filtering cost itself onto the parallel workers, and reuses the
// fan-out's ordering guarantee: each worker sees its subsequence in
// exact emission order, which the replay loop requires.

// EffectiveShards returns the shard count actually usable for cfg when
// k workers are requested: k clamped to the number of cache sets
// (fully associative caches have a single global replacement pool and
// always yield 1). k <= 0 is treated as 1. The cachesim CLI reports
// this so a user asking for 8 shards on a fully associative run sees
// why they got a sequential replay.
func EffectiveShards(cfg Config, k int) int {
	if k < 1 {
		k = 1
	}
	if cfg.Assoc <= 0 {
		return 1
	}
	sets := cfg.SizeWords / cfg.LineWords / cfg.Assoc
	if sets < 1 {
		sets = 1
	}
	if k > sets {
		k = sets
	}
	return k
}

// shardWorker filters the full reference stream down to one contiguous
// range of cache sets and feeds the survivors to an unmodified
// sequential simulator. It is driven by exactly one fan-out goroutine,
// so the scratch buffer is reused without synchronization.
type shardWorker struct {
	sim       *Sim
	lineShift uint
	setMask   int32
	lo, hi    int32 // owned set range [lo, hi)
	scratch   []trace.Ref
}

// Add implements trace.Sink for the single-reference path.
func (w *shardWorker) Add(r trace.Ref) {
	set := int32(r.Addr>>w.lineShift) & w.setMask
	if set >= w.lo && set < w.hi {
		w.sim.Add(r)
	}
}

// AddBatch implements trace.BatchSink: filter into the scratch buffer,
// then replay the survivors. Sim.AddBatch treats the slice as
// read-only and does not retain it, so scratch is safely reused across
// batches (steady state allocates nothing).
func (w *shardWorker) AddBatch(refs []trace.Ref) {
	scratch := w.scratch[:0]
	for _, r := range refs {
		set := int32(r.Addr>>w.lineShift) & w.setMask
		if set >= w.lo && set < w.hi {
			scratch = append(scratch, r)
		}
	}
	w.scratch = scratch
	if len(scratch) > 0 {
		w.sim.AddBatch(scratch)
	}
}

// AddBatchStable implements trace.StableBatchSink; the filter copies
// into scratch either way, so the stable path is the same.
func (w *shardWorker) AddBatchStable(refs []trace.Ref) { w.AddBatch(refs) }

// Sharded is a set-sharded parallel cache simulation. It implements
// trace.Sink, trace.BatchSink and trace.StableBatchSink, so it drops in
// anywhere a *Sim does on the replay side: attach it to a trace source,
// feed the stream, Close, then read merged statistics.
//
// The producer side (Add/AddBatch/Close) is single-goroutine, like any
// Sink. Close flushes the internal fan-out, waits for every shard
// worker to drain, and performs the deterministic reduction; reading
// stats before Close is a programming error and panics.
type Sharded struct {
	cfg       Config
	fan       *trace.FanOut
	workers   []*shardWorker
	stats     Stats
	perPEBus  []int64
	perPERefs []int64
	closed    bool
}

// NewSharded builds a set-sharded simulator with k shard workers
// (clamped per EffectiveShards; k = 1 still works and is just a fan-out
// wrapped sequential Sim). Like New it panics on invalid configuration.
func NewSharded(cfg Config, k int) *Sharded {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k = EffectiveShards(cfg, k)
	sets := int32(1)
	if cfg.Assoc > 0 {
		sets = int32(cfg.SizeWords / cfg.LineWords / cfg.Assoc)
	}
	s := &Sharded{
		cfg:       cfg,
		workers:   make([]*shardWorker, k),
		perPEBus:  make([]int64, cfg.PEs),
		perPERefs: make([]int64, cfg.PEs),
	}
	sinks := make([]trace.Sink, k)
	for i := range s.workers {
		sim := New(cfg)
		w := &shardWorker{
			sim:       sim,
			lineShift: sim.lineShift,
			setMask:   sets - 1,
			lo:        int32(i) * sets / int32(k),
			hi:        int32(i+1) * sets / int32(k),
		}
		s.workers[i] = w
		sinks[i] = w
	}
	s.fan = trace.NewFanOut(trace.FanOutConfig{}, sinks...)
	return s
}

// Config returns the simulated configuration.
func (s *Sharded) Config() Config { return s.cfg }

// Add implements trace.Sink.
func (s *Sharded) Add(r trace.Ref) { s.fan.Add(r) }

// AddBatch implements trace.BatchSink (the batch is copied into the
// fan-out's own chunks, so the caller's slice is reusable on return).
func (s *Sharded) AddBatch(refs []trace.Ref) { s.fan.AddBatch(refs) }

// AddBatchStable implements trace.StableBatchSink (full chunks are
// dispatched to the shard workers without copying).
func (s *Sharded) AddBatchStable(refs []trace.Ref) { s.fan.AddBatchStable(refs) }

// Close drains the shard workers and merges their statistics in shard
// index order. Every merged quantity is an int64 event count
// attributable to exactly one shard, so the reduction is an exact sum
// and the result is bit-identical to a sequential replay. Close is
// idempotent.
func (s *Sharded) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.fan.Close()
	for _, w := range s.workers {
		s.stats.add(w.sim.Stats())
		for pe, n := range w.sim.PerPEBusWords() {
			s.perPEBus[pe] += n
		}
		for pe, n := range w.sim.PerPERefs() {
			s.perPERefs[pe] += n
		}
	}
}

// Stats returns the merged statistics; Close first.
func (s *Sharded) Stats() Stats {
	s.mustBeClosed("Stats")
	return s.stats
}

// PerPEBusWords returns merged bus words attributed to each PE.
func (s *Sharded) PerPEBusWords() []int64 {
	s.mustBeClosed("PerPEBusWords")
	return s.perPEBus
}

// PerPERefs returns merged references issued by each PE.
func (s *Sharded) PerPERefs() []int64 {
	s.mustBeClosed("PerPERefs")
	return s.perPERefs
}

func (s *Sharded) mustBeClosed(what string) {
	if !s.closed {
		panic(fmt.Sprintf("cache: Sharded.%s before Close (worker stats are racy until drained)", what))
	}
}

// add folds b into a field by field. Every Stats field is an int64
// event count, so the fold is exact and order-independent; the
// sharded-vs-sequential equality tests catch any field added here
// without a matching line.
func (a *Stats) add(b Stats) {
	a.Refs += b.Refs
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.ReadMisses += b.ReadMisses
	a.WriteMisses += b.WriteMisses
	a.BusWords += b.BusWords
	a.LineFills += b.LineFills
	a.WriteBacks += b.WriteBacks
	a.WriteThroughs += b.WriteThroughs
	a.Updates += b.Updates
	a.Invalidations += b.Invalidations
}
