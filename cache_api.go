package rapwam

import (
	"context"
	"io"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Trace is a captured memory-reference trace: the interchange format
// between the abstract machine and the cache simulators (the paper's
// Figure 1 pipeline).
type Trace struct {
	buf *trace.Buffer
}

// Len returns the number of references.
func (t *Trace) Len() int { return t.buf.Len() }

// Replay streams the trace into sink in emission order.
func (t *Trace) Replay(sink Sink) { t.buf.Replay(sink) }

// ReplayAll replays the trace through every cache configuration in a
// single concurrent pass: one simulator per residency class (a
// write-through configuration shares its write-in broadcast twin's and
// has its statistics derived; fully associative configurations that
// differ only in size share one multi-size structure), each driven on
// its own goroutine while the trace is walked once (the streaming
// fan-out pipeline).
// Per-configuration statistics are bit-identical to
// calling SimulateCache once per configuration — only the wall-clock
// cost changes.
func (t *Trace) ReplayAll(cfgs []CacheConfig) ([]CacheStats, error) {
	return cache.SimulateAll(t.buf, cfgs)
}

// WriteCompact serializes the trace in the compact chunked format
// ("RWT2": delta/varint encoded, CRC-protected chunks, self-describing
// header — see docs/TRACE_FORMAT.md). meta carries the run parameters
// recorded in the header; its counts and object table are filled in by
// the encoder.
func (t *Trace) WriteCompact(w io.Writer, meta TraceMeta) error {
	return t.buf.WriteCompact(w, meta)
}

// ReadTrace parses a compact trace file ("RWT2"), as WriteCompact
// writes it.
func ReadTrace(r io.Reader) (*Trace, error) {
	buf, _, err := trace.ReadCompact(r)
	if err != nil {
		return nil, err
	}
	return &Trace{buf: buf}, nil
}

// TraceMeta re-exports the compact trace metadata: the self-describing
// header (benchmark, PEs, sequential, emulator version, object-type
// table) plus footer-verified reference counts.
type TraceMeta = trace.Meta

// TraceStore re-exports the persistent, content-addressed trace store.
// A store is a directory of compact traces keyed by (benchmark, PEs,
// sequential, emulator version); a Runner built over one consults it
// before re-running the emulator, and replay from it
// streams chunk by chunk without materializing the trace. See
// internal/tracestore for the full contract.
type TraceStore = tracestore.Store

// TraceKey re-exports the store cell key.
type TraceKey = tracestore.Key

// OpenTraceStore creates (if needed) and opens a trace store directory.
// Hand it to NewRunner (or SetTraceStore, for the default Runner).
func OpenTraceStore(dir string) (*TraceStore, error) { return tracestore.Open(dir) }

// TraceStoreKey returns the store key for a benchmark cell under the
// current emulator version.
func TraceStoreKey(benchmark string, pes int, sequential bool) TraceKey {
	return bench.StoreKey(benchmark, pes, sequential)
}

// EnsureTraceStored makes sure the Runner's trace store (its private
// in-memory one if it was built without a store) holds the trace and
// run record for the benchmark cell, generating them with one
// streaming emulator run if absent.
// Generation of distinct cells may proceed concurrently; concurrent
// calls for the same cell run the emulator once. Cancelling ctx aborts
// an in-flight generation (the partial write is cleaned up) and
// returns ctx.Err().
func (r *Runner) EnsureTraceStored(ctx context.Context, b Benchmark, pes int, sequential bool) (TraceKey, error) {
	return r.r.EnsureStored(ctx, b, pes, sequential)
}

// EnsureTraceStored is Runner.EnsureTraceStored on the default Runner.
func EnsureTraceStored(ctx context.Context, b Benchmark, pes int, sequential bool) (TraceKey, error) {
	return defaultRunner.EnsureTraceStored(ctx, b, pes, sequential)
}

// TraceStoreEntry re-exports one stored trace found by TraceStore.List.
type TraceStoreEntry = tracestore.Entry

// ReadTraceFileMeta decodes the self-describing header of a compact
// trace file (without decoding the reference stream), returning the
// metadata and the file size.
func ReadTraceFileMeta(path string) (TraceMeta, int64, error) {
	return tracestore.ReadFileMeta(path)
}

// ReadTraceFileFull fully decodes a compact trace file — verifying
// every chunk CRC and the footer — and returns its metadata with
// authoritative totals (Refs, PerPE).
func ReadTraceFileFull(path string) (TraceMeta, error) {
	return tracestore.ReadFileFull(path)
}

// VerifyTraceFile fully decodes a compact trace file, reporting the
// first corruption (nil if the file is intact).
func VerifyTraceFile(path string) error { return tracestore.VerifyFile(path) }

// Protocol re-exports the coherency protocol selector.
type Protocol = cache.Protocol

// Coherency protocols (see the cache package for semantics).
const (
	// WriteThrough is the conventional write-through invalidate cache.
	WriteThrough = cache.WriteThrough
	// WriteInBroadcast is the invalidation-based broadcast (copyback)
	// cache.
	WriteInBroadcast = cache.WriteInBroadcast
	// WriteThroughBroadcast is the update-based broadcast cache.
	WriteThroughBroadcast = cache.WriteThroughBroadcast
	// Hybrid is the paper's tag-driven write-through-global /
	// copyback-local scheme.
	Hybrid = cache.Hybrid
	// Copyback is a plain write-back cache (single PE only).
	Copyback = cache.Copyback
)

// CacheConfig re-exports the cache simulator configuration.
type CacheConfig = cache.Config

// CacheStats re-exports the simulator's statistics.
type CacheStats = cache.Stats

// CacheSim re-exports the multiprocessor cache simulator. It implements
// Sink, so it can be attached directly to a running Program (see
// RunConfig.Sink) or fed from a Trace.
type CacheSim = cache.Sim

// NewCacheSim validates cfg and builds a cache simulator ready to
// consume a reference stream.
func NewCacheSim(cfg CacheConfig) (*CacheSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cache.New(cfg), nil
}

// PaperWriteAllocate returns the allocation policy the paper selected
// for each protocol and cache size.
func PaperWriteAllocate(p Protocol, sizeWords int) bool {
	return cache.PaperWriteAllocate(p, sizeWords)
}

// SimulateCache replays a trace through one cache configuration.
func SimulateCache(t *Trace, cfg CacheConfig) (CacheStats, error) {
	if err := cfg.Validate(); err != nil {
		return CacheStats{}, err
	}
	sim := cache.New(cfg)
	t.buf.Replay(sim)
	return sim.Stats(), nil
}
