package trace

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// BatchSink is an optional extension of Sink for consumers that can
// process whole batches of references at once. The engine's staging
// buffer and the fan-out dispatcher use it to amortize the
// per-reference interface call. The batch slice is only valid for the
// duration of the call and is read-only: implementations must not
// mutate it, and must copy anything they need after AddBatch returns
// (producers such as mem.Memory reuse the slice for the next batch).
type BatchSink interface {
	Sink
	AddBatch(refs []Ref)
}

// RunSink is an optional extension of BatchSink for consumers that can
// take a run of references in one step. A run is a maximal sequence of
// back-to-back references that share a run key: the PE, the operation,
// the Global/Local class of the object (ObjType.Global) and the
// RunWords-word block of the address (Addr >> 2, the paper's four-word
// line). Within a run nothing but the run's own PE touches the block,
// so a cache simulator can take the first reference in full and the
// rest in closed form.
//
// AddRuns receives a batch with its runs as LineRuns returns them:
// runs[j] is the index of run j's first reference and the last entry
// is len(refs). runs == nil means every reference is a run of its own,
// so AddBatch(refs) is AddRuns(refs, nil). Both slices are read-only
// and valid only for the call, as for AddBatch.
type RunSink interface {
	BatchSink
	AddRuns(refs []Ref, runs []int32)
}

// RunWords is the run granularity in words: a run's references fall in
// one aligned block of RunWords words. A consumer whose lines are
// shorter must ignore the runs.
const RunWords = 4

// runKey packs the fields that define a run: the block, PE, operation
// and Global class. Two references share a key iff they may share a
// run.
func runKey(r *Ref) uint64 {
	return uint64(r.Addr>>2) | uint64(r.PE)<<32 | uint64(r.Op)<<40 | runClass[r.Obj]
}

// runClass is the run key's Global bit, bit 48, by object type: one
// table load costs LineRuns less than ObjType.Global's variable shift
// and its guard for types past 63.
var runClass = func() (t [256]uint64) {
	for o := range t {
		if ObjType(o).Global() {
			t[o] = 1 << 48
		}
	}
	return t
}()

// LineRuns returns the runs of refs (see RunSink) in starts' storage:
// the index of every run's first reference, then len(refs). starts is
// reused when it has room for len(refs)+1 entries and reallocated
// otherwise, so a caller that keeps the result allocates once.
func LineRuns(refs []Ref, starts []int32) []int32 {
	if cap(starts) < len(refs)+1 {
		starts = make([]int32, len(refs)+1)
	}
	starts = starts[:len(refs)+1]
	// Every index is written and the count advances only at a key
	// change, so the loop has no branch on the run boundaries, which
	// are too irregular on a real trace to predict.
	n := 0
	prev := ^uint64(0) // no reference has this key
	for i := range refs {
		k := runKey(&refs[i])
		starts[n] = int32(i)
		if k != prev {
			n++
		}
		prev = k
	}
	starts[n] = int32(len(refs))
	return starts[:n+1]
}

// FanOutConfig tunes the concurrent dispatcher. The zero value selects
// sensible defaults.
type FanOutConfig struct {
	// ChunkRefs is the number of references per dispatch batch
	// (default 8192). Larger chunks amortize channel operations;
	// smaller ones reduce consumer latency.
	ChunkRefs int
	// Depth is the per-consumer channel buffer in chunks (default 4):
	// how far a fast producer may run ahead of the slowest consumer.
	Depth int
}

const (
	defaultChunkRefs = 8192
	defaultDepth     = 4
)

// FanOut is the concurrent fan-out dispatcher: it accepts a single
// ordered reference stream (it implements Sink and BatchSink) and
// delivers it to every consumer sink on a dedicated goroutine, in
// chunks, over a buffered channel per consumer.
//
// Ordering: every consumer receives every reference exactly once, in
// exactly the emission order — chunks are sent to each consumer channel
// in order and each consumer processes its chunks sequentially, so a
// deterministic consumer (e.g. a cache simulator) produces results
// bit-identical to a sequential replay.
//
// Runs: when any consumer is a RunSink, every RunSink receives each
// chunk's runs beside it; the other consumers get the chunk alone. The
// runs are found once per chunk, not once per consumer, on the
// producer: a chunk ChunkReader.Replay decodes comes with the runs the
// decoder marked, and any other chunk is scanned by LineRuns.
//
// Buffers: chunks and their run starts live in a ring of Depth+2
// buffers of each kind, each made on first use, once per FanOut. The
// FanOut copies Add and AddBatch input into them, and ChunkReader.Replay
// decodes each chunk straight into its slot, runs beside it, when no
// partial chunk is waiting and the chunk fits. Chunk c takes slot c mod
// (Depth+2), which last held chunk c−Depth−2, and every consumer has
// finished that one: the send of chunk c−1 completed on every channel,
// a channel of Depth slots that holds c−1 holds nothing older than
// c−Depth, so each consumer had taken c−Depth−1 and, processing in
// order, finished c−Depth−2.
//
// The producer side (Add, AddBatch, Close) is single-goroutine, like
// any other Sink. Consumers never see concurrent calls either: each
// sink is driven by exactly one goroutine. The chunks handed to
// consumers may be shared between them, so consumers must treat them
// as read-only.
//
// Close flushes the partial chunk, closes the channels and waits for
// all consumers to drain. A FanOut must be Closed before the consumer
// sinks' results are read; reading earlier is a data race.
//
// A consumer sink that panics does not end the process from its own
// goroutine, where no caller could recover: its consumer keeps draining
// its channel, so the producer never blocks on it, and Close panics on
// the producer's goroutine with the first such panic's value and stack
// once every consumer has finished.
type FanOut struct {
	chans     []chan chunkMsg
	wg        sync.WaitGroup
	chunk     []Ref // the partial chunk, in the next send's ring slot
	chunkRefs int
	closed    bool
	sent      int       // chunks sent; chunk c takes ring slot c mod len(bufs)
	bufs      [][]Ref   // the chunk ring; a slot is made on first use
	runs      [][]int32 // the run-start ring; nil when no consumer is a RunSink

	panicked atomic.Pointer[consumerPanic] // the first consumer panic, for Close
}

// consumerPanic is what Close panics with when a consumer sink
// panicked: the sink's panic value and the stack it panicked on.
type consumerPanic struct {
	value any
	stack []byte
}

func (p *consumerPanic) Error() string {
	return fmt.Sprintf("trace: fan-out consumer panicked: %v\n\n%s", p.value, p.stack)
}

// chunkMsg is one dispatched chunk and, for RunSinks, its runs.
type chunkMsg struct {
	refs []Ref
	runs []int32
}

// NewFanOut starts one consumer goroutine per sink and returns the
// dispatcher. A FanOut with no sinks is valid and discards everything.
func NewFanOut(cfg FanOutConfig, sinks ...Sink) *FanOut {
	if cfg.ChunkRefs <= 0 {
		cfg.ChunkRefs = defaultChunkRefs
	}
	if cfg.Depth <= 0 {
		cfg.Depth = defaultDepth
	}
	ring := cfg.Depth + 2
	f := &FanOut{
		chans:     make([]chan chunkMsg, len(sinks)),
		chunkRefs: cfg.ChunkRefs,
		bufs:      make([][]Ref, ring),
	}
	for i, s := range sinks {
		if _, ok := s.(RunSink); ok && f.runs == nil {
			f.runs = make([][]int32, ring)
		}
		ch := make(chan chunkMsg, cfg.Depth)
		f.chans[i] = ch
		f.wg.Add(1)
		go f.consume(ch, s)
	}
	return f
}

// consume drains one consumer's chunk channel into its sink. After the
// sink panics, it keeps the panic for Close and drains the rest of the
// channel unread.
func (f *FanOut) consume(ch <-chan chunkMsg, s Sink) {
	defer f.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			f.panicked.CompareAndSwap(nil, &consumerPanic{value: v, stack: debug.Stack()})
			for range ch {
			}
		}
	}()
	switch s := s.(type) {
	case RunSink:
		for c := range ch {
			s.AddRuns(c.refs, c.runs)
		}
	case BatchSink:
		for c := range ch {
			s.AddBatch(c.refs)
		}
	default:
		for c := range ch {
			for _, r := range c.refs {
				s.Add(r)
			}
		}
	}
}

// buffer returns the next send's ring slot as an empty chunk.
func (f *FanOut) buffer() []Ref {
	slot := f.sent % len(f.bufs)
	if f.bufs[slot] == nil {
		f.bufs[slot] = make([]Ref, 0, f.chunkRefs)
	}
	return f.bufs[slot][:0]
}

// slot hands a decoder the next send's ring slot to fill in place with
// a chunk of n references, and, when some consumer takes runs, the
// run-start slot beside it with room for n+1 starts; dispatch then
// sends them as they are. ok is false while a partial chunk waits,
// whose references go first, and when n exceeds the chunk size: the
// decoder then copies in through AddBatch. Like AddBatch, slot panics
// after Close.
func (f *FanOut) slot(n int) (refs []Ref, runs []int32, ok bool) {
	if f.closed {
		panic("trace: ChunkReader.Replay into a FanOut after Close")
	}
	if f.chunk != nil || n > f.chunkRefs {
		return nil, nil, false
	}
	refs = f.buffer()[:n]
	if f.runs != nil {
		slot := f.sent % len(f.runs)
		if cap(f.runs[slot]) <= f.chunkRefs {
			f.runs[slot] = make([]int32, f.chunkRefs+1)
		}
		runs = f.runs[slot][:n+1]
	}
	return refs, runs, true
}

// send dispatches one ready chunk to every consumer, finding its runs
// when some consumer takes them.
func (f *FanOut) send(chunk []Ref) {
	if len(chunk) == 0 {
		return
	}
	var runs []int32
	if f.runs != nil {
		slot := f.sent % len(f.runs)
		f.runs[slot] = LineRuns(chunk, f.runs[slot])
		runs = f.runs[slot]
	}
	f.dispatch(chunk, runs)
}

// dispatch sends one chunk and its runs, if any, to every consumer. The
// chunk is shared between consumers and must not be written after this
// point; runs is nil exactly when no consumer takes them.
func (f *FanOut) dispatch(chunk []Ref, runs []int32) {
	msg := chunkMsg{refs: chunk, runs: runs}
	for _, ch := range f.chans {
		ch <- msg
	}
	f.sent++
}

// Add implements Sink: the reference is appended to the current chunk,
// which is dispatched when full. A FanOut is dead after Close; Add
// panics rather than silently dropping or deadlocking.
func (f *FanOut) Add(r Ref) {
	if f.closed {
		panic("trace: FanOut.Add after Close")
	}
	if f.chunk == nil {
		f.chunk = f.buffer()
	}
	f.chunk = append(f.chunk, r)
	if len(f.chunk) == f.chunkRefs {
		f.send(f.chunk)
		f.chunk = nil
	}
}

// AddBatch implements BatchSink: the batch is copied into the
// dispatcher's own chunk buffers, so per the BatchSink contract the
// caller's slice is free for reuse the moment AddBatch returns. Like
// Add, AddBatch panics after Close.
func (f *FanOut) AddBatch(refs []Ref) {
	if f.closed {
		panic("trace: FanOut.AddBatch after Close")
	}
	f.fill(refs)
}

// fill copies refs into the partial chunk, dispatching each chunk as
// it fills.
func (f *FanOut) fill(refs []Ref) {
	for len(refs) > 0 {
		if f.chunk == nil {
			f.chunk = f.buffer()
		}
		n := min(f.chunkRefs-len(f.chunk), len(refs))
		f.chunk = append(f.chunk, refs[:n]...)
		refs = refs[n:]
		if len(f.chunk) == f.chunkRefs {
			f.send(f.chunk)
			f.chunk = nil
		}
	}
}

// AddBatchStable is AddBatch without the copy: full chunks are
// dispatched to the consumers as sub-slices of refs. The caller
// promises never to mutate refs while a consumer can still read it,
// that is until Close returns. Buffer.ReplayAll is the producer that
// qualifies (a segment never moves or changes); a reused staging
// buffer does not and must use AddBatch, and ChunkReader.Replay
// decodes into the fan-out's own ring instead.
func (f *FanOut) AddBatchStable(refs []Ref) {
	if f.closed {
		panic("trace: FanOut.AddBatchStable after Close")
	}
	// Top up a partial chunk first so ordering is preserved.
	if len(f.chunk) > 0 {
		n := min(f.chunkRefs-len(f.chunk), len(refs))
		f.fill(refs[:n])
		refs = refs[n:]
	}
	// Dispatch full chunks directly from the caller's slice.
	for len(refs) >= f.chunkRefs {
		f.send(refs[:f.chunkRefs:f.chunkRefs])
		refs = refs[f.chunkRefs:]
	}
	// Buffer the tail.
	f.fill(refs)
}

// Close flushes the partial chunk and blocks until every consumer has
// processed its entire stream. After Close returns the consumer sinks
// are quiescent and safe to read. Close is idempotent. If a consumer
// sink panicked, Close panics with its value and stack (an error) once
// the other consumers have finished.
func (f *FanOut) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.send(f.chunk)
	f.chunk = nil
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
	if p := f.panicked.Load(); p != nil {
		panic(p)
	}
}

// ReplayAll feeds the buffered trace to all sinks concurrently in a
// single pass, returning once every sink has consumed the full trace.
// Each segment is chunked by reference (no copying: segment boundaries
// are chunk boundaries); sinks receive the
// references in buffer order, so deterministic sinks produce results
// identical to sequential Replay.
func (b *Buffer) ReplayAll(sinks ...Sink) {
	if len(sinks) == 1 {
		// A single consumer gains nothing from the goroutine hop;
		// Replay hands the whole buffer to a BatchSink in one call.
		b.Replay(sinks[0])
		return
	}
	f := NewFanOut(FanOutConfig{}, sinks...)
	for _, seg := range b.Segments() {
		f.AddBatchStable(seg) // a segment never moves or changes
	}
	f.Close()
}
