package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/osmem"
	"repro/internal/trace"
)

// Layout describes the per-worker Stack Set sizes in words. All regions
// of worker i are laid out consecutively starting at i*SpanWords():
// Heap, Local, Control, Trail, PDL, Goal, Msg. Region sizes are rounded
// up to Align words so that no cache line ever spans two regions.
type Layout struct {
	Workers int // number of workers (PEs)
	Heap    int // heap words per worker
	Local   int // local stack (environments, parcall frames)
	Control int // control stack (choice points, markers)
	Trail   int // trail entries
	PDL     int // unification push-down list
	Goal    int // goal stack
	Msg     int // message buffer
}

// Align is the region alignment in words; it is a multiple of every cache
// line size the simulators use, so lines never straddle areas with
// different locality classes across workers.
const Align = 64

func alignUp(n int) int { return (n + Align - 1) &^ (Align - 1) }

// DefaultLayout returns a layout comfortably sized for the paper's
// benchmarks: roughly half a megaword per worker.
func DefaultLayout(workers int) Layout {
	return Layout{
		Workers: workers,
		Heap:    1 << 19, // 512K words
		Local:   1 << 17,
		Control: 1 << 17,
		Trail:   1 << 16,
		PDL:     1 << 12,
		Goal:    1 << 12,
		Msg:     1 << 8,
	}
}

// normalized returns a copy with every region size aligned.
func (l Layout) normalized() Layout {
	l.Heap = alignUp(l.Heap)
	l.Local = alignUp(l.Local)
	l.Control = alignUp(l.Control)
	l.Trail = alignUp(l.Trail)
	l.PDL = alignUp(l.PDL)
	l.Goal = alignUp(l.Goal)
	l.Msg = alignUp(l.Msg)
	return l
}

// SpanWords returns the number of words occupied by one worker's regions.
func (l Layout) SpanWords() int {
	n := l.normalized()
	return n.Heap + n.Local + n.Control + n.Trail + n.PDL + n.Goal + n.Msg
}

// TotalWords returns the size of the whole shared address space.
func (l Layout) TotalWords() int { return l.SpanWords() * l.Workers }

// Region describes one storage area instance of one worker.
type Region struct {
	PE    int
	Area  trace.Area
	Base  int // first word address
	Limit int // one past the last word address
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr int) bool { return addr >= r.Base && addr < r.Limit }

// Size returns the region size in words.
func (r Region) Size() int { return r.Limit - r.Base }

// stageRefs is the staging-buffer capacity in references — a multiple
// of the compact codec's chunk size, so a flush into a ChunkWriter
// encodes whole chunks straight from the staging slice with no
// intermediate copy. The size (512 KiB of references) is tuned so the
// flush pipeline (fold + encode) amortizes its cache warm-up across
// several chunks without evicting the emulator's working set; both
// smaller (8K) and larger (128K) measurably lose on the qsort@4PE
// cold-generation benchmark.
const stageRefs = 65536

// alignShift is log2(Align); every Align-word block lies entirely
// inside one (worker, area) region, which is what makes the
// block-granular classification table exact.
const alignShift = 6

// Memory is the instrumented flat shared address space. All engine
// accesses go through Read/Write (traced) or Peek/Poke (untraced
// host-side inspection, used only for extracting final answers and
// debugging — never on the measured path).
//
// # The staged reference path
//
// Read and Write do not call the sink per reference: they append the
// reference to a flat staging buffer — a bounds-checked slice append,
// no allocation, no interface dispatch — which Flush drains as one
// batch into the sink (trace.BatchSink when implemented) while folding
// the counter tallies into the same flat loop. The engine is a
// single-goroutine deterministic simulation, so one staging buffer per
// address space preserves the interleaved emission order exactly;
// per-worker buffers would reorder the stream and break the trace
// store's byte-identity contract. Flush runs automatically when the
// buffer fills; anything that hands the stream downstream (end of run,
// Release) flushes first.
type Memory struct {
	// stage is the pending-reference staging buffer (a fixed-size
	// array; nStage is the fill level). A fixed array plus index
	// stores one reference and one integer per Read/Write — an append
	// would also write the slice header back every call — and lets the
	// compiler drop the store's bounds check. It is first in the
	// struct because Read/Write touch it on every reference.
	stage  *[stageRefs]Ref
	nStage int
	// words views the slab osmem.Map handed out: anonymous, lazily
	// zero-filled OS pages on unix (a run pays only for the pages it
	// touches), the Go heap under -race and elsewhere. nil after
	// Release, so a late access is an index panic, never a fault.
	words []Word
	// tally folds the Flush loop's two counter updates into one:
	// entry (obj<<1|op)<<6|pe counts references of that object type,
	// operation and PE. Counter() unfolds it into the public
	// trace.Counter shape on demand.
	tally   []int64
	counter *trace.Counter
	sink    trace.Sink
	batch   trace.BatchSink // non-nil when sink implements BatchSink

	// shards routes references into per-PE staging buffers while the
	// sharded execution mode runs an epoch (core.Config.ExecShards):
	// each speculating worker appends to its own ShardStage from its
	// own goroutine, and the engine later merges the per-PE batches
	// into the shared staging buffer in canonical (cycle, PE) order via
	// StageMerged. Outside epochs shards is nil, so the normal path
	// pays one predictable not-taken branch per reference. shardsBuf
	// retains the backing slice between epochs.
	shards    []*ShardStage
	shardsBuf []*ShardStage

	// classTab maps addr>>alignShift to pe<<3|area. It is shared,
	// read-only, and cached per layout (engines of the same shape are
	// constructed constantly during parallel trace generation).
	classTab []uint16

	layout Layout
	// region offsets within a worker span, indexed by area
	areaOff  [trace.NumAreas]int
	areaSize [trace.NumAreas]int
	span     int

	// cleanup frees words if the Memory is dropped without Release;
	// Release stops it before it unmaps. Last: the reference path
	// never reads it.
	cleanup runtime.Cleanup
}

// Ref is re-exported locally to keep the hot-path append monomorphic.
type Ref = trace.Ref

// classTabs caches the classification table per (normalized) layout.
var classTabs sync.Map // Layout -> []uint16

// liveBytes is the total size of the slabs NewMemory mapped and not
// yet given back.
var liveBytes atomic.Int64

// LiveBytes reports the bytes of address space held by Memory values
// that have been neither Released nor collected.
func LiveBytes() int64 { return liveBytes.Load() }

// NewMemory allocates the all-zero address space for the given layout;
// the only error is the operating system refusing the mapping. Release
// gives the space back at once; a Memory dropped without Release is
// reclaimed by a cleanup some collector cycles later. The counter is
// always attached (cheap array increments); sink may be trace.Discard.
// Layouts are limited to trace.MaxPEs workers — the counter, the trace
// tooling and the cache simulators all size their per-PE state to that
// bound.
func NewMemory(l Layout, sink trace.Sink) (*Memory, error) {
	if l.Workers <= 0 {
		panic("mem: layout needs at least one worker")
	}
	if l.Workers > trace.MaxPEs {
		panic(fmt.Sprintf("mem: layout has %d workers, limit %d", l.Workers, trace.MaxPEs))
	}
	n := l.normalized()
	b, err := osmem.Map(n.TotalWords() * wordBytes)
	if err != nil {
		return nil, fmt.Errorf("mem: %d-word address space: %w", n.TotalWords(), err)
	}
	words := unsafe.Slice((*Word)(unsafe.Pointer(&b[0])), n.TotalWords())
	liveBytes.Add(int64(len(words)) * wordBytes)
	m := &Memory{
		stage:   new([stageRefs]Ref),
		words:   words,
		tally:   make([]int64, trace.NumObjTypes*2*trace.MaxPEs),
		layout:  n,
		span:    n.SpanWords(),
		sink:    sink,
		counter: &trace.Counter{},
	}
	m.cleanup = runtime.AddCleanup(m, freeWords, words)
	if m.sink == nil {
		m.sink = trace.Discard
	}
	m.batch, _ = m.sink.(trace.BatchSink)
	off := 0
	for _, ar := range []struct {
		area trace.Area
		size int
	}{
		{trace.AreaHeap, n.Heap},
		{trace.AreaLocal, n.Local},
		{trace.AreaControl, n.Control},
		{trace.AreaTrail, n.Trail},
		{trace.AreaPDL, n.PDL},
		{trace.AreaGoal, n.Goal},
		{trace.AreaMsg, n.Msg},
	} {
		m.areaOff[ar.area] = off
		m.areaSize[ar.area] = ar.size
		off += ar.size
	}
	m.classTab = classTabFor(n, m.areaOff, m.areaSize)
	return m, nil
}

// classTabFor returns the layout's shared block-classification table,
// building it on first use: entry addr>>alignShift holds pe<<3|area.
func classTabFor(l Layout, areaOff, areaSize [trace.NumAreas]int) []uint16 {
	if tab, ok := classTabs.Load(l); ok {
		return tab.([]uint16)
	}
	span := l.SpanWords()
	tab := make([]uint16, l.TotalWords()>>alignShift)
	for pe := 0; pe < l.Workers; pe++ {
		base := pe * span
		for a := trace.AreaHeap; a <= trace.AreaMsg; a++ {
			entry := uint16(pe)<<3 | uint16(a)
			lo := (base + areaOff[a]) >> alignShift
			hi := (base + areaOff[a] + areaSize[a]) >> alignShift
			for b := lo; b < hi; b++ {
				tab[b] = entry
			}
		}
	}
	actual, _ := classTabs.LoadOrStore(l, tab)
	return actual.([]uint16)
}

// Layout returns the (normalized) layout in use.
func (m *Memory) Layout() Layout { return m.layout }

// Counter returns the always-on reference counter, materialized from
// the flat flush tally. Totals include staged references only after a
// Flush (the engine flushes before it reports results).
func (m *Memory) Counter() *trace.Counter {
	c := m.counter
	*c = trace.Counter{}
	for idx, n := range m.tally {
		if n == 0 {
			continue
		}
		pe := idx & (trace.MaxPEs - 1)
		op := idx >> 6 & 1
		obj := idx >> 7
		c.ByObj[obj][op] += n
		c.ByPE[pe] += n
	}
	return c
}

// Region returns the region of the given worker and area.
func (m *Memory) Region(pe int, area trace.Area) Region {
	if pe < 0 || pe >= m.layout.Workers {
		panic(fmt.Sprintf("mem: pe %d out of range", pe))
	}
	base := pe*m.span + m.areaOff[area]
	return Region{PE: pe, Area: area, Base: base, Limit: base + m.areaSize[area]}
}

// Classify maps an address to its owning worker and area in O(1): one
// load from the layout's block-classification table. Regions are
// Align-aligned, so every Align-word block belongs to exactly one
// (worker, area) pair.
//
//rapwam:hotpath
func (m *Memory) Classify(addr int) (pe int, area trace.Area) {
	if uint(addr) >= uint(len(m.words)) {
		return -1, trace.AreaNone
	}
	e := m.classTab[addr>>alignShift]
	return int(e >> 3), trace.Area(e & 7)
}

// Read returns the word at addr, emitting a read reference attributed
// to the accessing PE with the given object classification. pe must be
// a valid worker index (< Layout.Workers).
//
//rapwam:hotpath
func (m *Memory) Read(pe int, addr int, obj trace.ObjType) Word {
	if m.shards != nil {
		if s := m.shards[pe]; s != nil {
			//rapwam:allow hotpath shard staging buffers are reused across epochs, so append amortizes to an indexed store
			s.Refs = append(s.Refs, Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpRead, Obj: obj})
			// Atomic load: another shard may be writing this word
			// concurrently (a cross-shard conflict). The engine detects
			// the overlap afterwards and discards the epoch, but the
			// racing access itself must stay untorn and race-clean.
			return Word(atomic.LoadUint64((*uint64)(&m.words[addr])))
		}
	}
	n := uint(m.nStage)
	if n >= stageRefs {
		m.Flush()
		n = 0
	}
	m.stage[n] = Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpRead, Obj: obj}
	m.nStage = int(n) + 1
	return m.words[addr]
}

// Write stores w at addr, emitting a write reference. pe must be a
// valid worker index (< Layout.Workers).
//
//rapwam:hotpath
func (m *Memory) Write(pe int, addr int, w Word, obj trace.ObjType) {
	if m.shards != nil {
		if s := m.shards[pe]; s != nil {
			//rapwam:allow hotpath shard staging buffers are reused across epochs, so append amortizes to an indexed store
			s.Refs = append(s.Refs, Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpWrite, Obj: obj})
			// The atomic swap both publishes the write race-cleanly and
			// captures exactly the word it displaced: even when several
			// shards race on one address, the captured Old values chain
			// (each one is some other write's New, except the pre-epoch
			// word), which is what lets a conflicted epoch's rollback
			// recover the base value of a multi-writer word.
			old := Word(atomic.SwapUint64((*uint64)(&m.words[addr]), uint64(w)))
			//rapwam:allow hotpath the undo log is a reused per-epoch buffer; append amortizes to an indexed store
			s.Undo = append(s.Undo, UndoEntry{Addr: uint32(addr), Old: old, New: w})
			return
		}
	}
	n := uint(m.nStage)
	if n >= stageRefs {
		m.Flush()
		n = 0
	}
	m.stage[n] = Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpWrite, Obj: obj}
	m.nStage = int(n) + 1
	m.words[addr] = w
}

// Flush drains the staging buffer: counter tallies are folded in one
// flat pass, then the batch is handed to the sink (one AddBatch call
// when the sink supports batches) and the buffer is reset for reuse.
// Flush is idempotent and cheap when the buffer is empty.
func (m *Memory) Flush() {
	refs := m.stage[:m.nStage]
	if len(refs) == 0 {
		return
	}
	tally := m.tally
	for _, r := range refs {
		// One read-modify-write tallies (obj, op, PE) at once; the
		// public counter shape is unfolded lazily in Counter().
		tally[(uint(r.Obj)<<1|uint(r.Op))<<6|uint(r.PE)&(trace.MaxPEs-1)]++
	}
	if m.batch != nil {
		m.batch.AddBatch(refs)
	} else {
		for _, r := range refs {
			m.sink.Add(r)
		}
	}
	m.nStage = 0
}

// ShardStage is a per-PE reference staging buffer for the sharded
// execution mode. While a shard is installed with SetShard, that PE's
// Read/Write references append here (a growable slice owned by one
// speculating goroutine) instead of the shared staging buffer; the
// engine merges completed cycles back into the canonical stream with
// StageMerged and discards abandoned speculation by truncating Refs.
//
// Undo is the value log of every speculated Write (address, the word
// it displaced and the word it stored, in write order). Speculation is
// rolled back by applying the log backward — a complete restore of the
// epoch's memory effects, sound even where a trail unwind is not (pop-
// and-repush sequences overwrite stack words no trail entry covers).
// The Old/New pair also makes a cross-shard write conflict recoverable:
// the displaced values of all writes to one address chain through each
// other, so the pre-epoch word is the one Old no conflicting write
// produced (see core's discarded-epoch rollback).
type ShardStage struct {
	Refs []Ref
	Undo []UndoEntry
}

// UndoEntry records one speculated write: the word it displaced (via
// atomic swap, so Old is exact even under a write/write race) and the
// word it stored.
type UndoEntry struct {
	Addr uint32
	Old  Word
	New  Word
}

// SetShard installs a per-PE staging buffer (nil detaches that PE).
// Must not be called while speculating goroutines are running.
func (m *Memory) SetShard(pe int, s *ShardStage) {
	if m.shardsBuf == nil {
		m.shardsBuf = make([]*ShardStage, m.layout.Workers)
	}
	m.shardsBuf[pe] = s
	m.shards = m.shardsBuf
}

// ClearShards detaches every per-PE staging buffer, restoring the
// single-branch normal reference path.
func (m *Memory) ClearShards() {
	if m.shardsBuf != nil {
		clear(m.shardsBuf)
	}
	m.shards = nil
}

// StageMerged appends already-ordered references to the shared staging
// buffer, flushing at the usual capacity boundaries. Because RWT2
// encoding is independent of AddBatch granularity, the resulting byte
// stream is identical to the same references arriving one Read/Write
// at a time — this is how the sharded execution mode re-serializes
// per-PE speculation into the canonical trace.
func (m *Memory) StageMerged(refs []Ref) {
	for len(refs) > 0 {
		n := copy(m.stage[m.nStage:], refs)
		m.nStage += n
		refs = refs[n:]
		if m.nStage == stageRefs {
			m.Flush()
		}
	}
}

// UndoWrites rolls back every write the shard speculated, newest
// first, restoring the exact pre-speculation words, and resets the
// log.
func (m *Memory) UndoWrites(s *ShardStage) {
	for i := len(s.Undo) - 1; i >= 0; i-- {
		u := s.Undo[i]
		m.Poke(int(u.Addr), u.Old)
	}
	s.Undo = s.Undo[:0]
}

// Peek reads addr without instrumentation. Host-side use only (answer
// extraction, tests, debuggers).
func (m *Memory) Peek(addr int) Word { return m.words[addr] }

// Poke writes addr without instrumentation. Host-side use only.
func (m *Memory) Poke(addr int, w Word) { m.words[addr] = w }

// Size returns the total address-space size in words.
func (m *Memory) Size() int { return len(m.words) }

// Release flushes the staging buffer and gives the address space back
// to the operating system. The Memory must not be used after Release
// (any access panics); calling Release again is harmless.
func (m *Memory) Release() {
	if m.words == nil {
		return
	}
	m.Flush()
	// Stop first: a cleanup left armed would unmap this range again
	// after a later mapping (another engine's, a blob.Mem page) reuses
	// it.
	m.cleanup.Stop()
	freeWords(m.words)
	m.words = nil
}

// freeWords gives a slab back; it is also the cleanup of a Memory that
// was dropped without Release. A cleanup gets the slab, not the
// Memory, and runs on the runtime's own goroutine, so it does not
// flush: the sink belongs to someone else.
func freeWords(words []Word) {
	liveBytes.Add(-int64(len(words)) * wordBytes)
	osmem.Unmap(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*wordBytes))
}
