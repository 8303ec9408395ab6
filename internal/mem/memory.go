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

// stageRefs is the capacity of each of the two staging halves, in
// references: a multiple of the compact codec's chunk size, so a drain
// into a ChunkWriter encodes whole chunks straight from the half with
// no intermediate copy. The two halves together hold what the single
// buffer held before the drain left the engine's goroutine, so no
// run's resident memory moves. Re-measured with the drain on its own
// goroutine (harness emulate-large, seed 5, three 10-s runs per size,
// 2-vCPU Xeon; medians of 8-PE stream / capture Mrefs/s): halves of
// 8K read 60.7 / 54.6, 16K 56.4 / 55.5, 32K 60.7 / 58.6, 64K 64.7 /
// 63.7, one 64K buffer with the drain inline 53.6 / 51.5. Halves of
// 64K win a further few percent but double the staging memory.
const stageRefs = 32768

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
// reference to a staging half — an indexed store, no allocation, no
// interface dispatch. The engine is a single-goroutine deterministic
// simulation, and one staging stream per address space preserves the
// interleaved emission order exactly; per-worker buffers would reorder
// the stream and break the trace store's byte-identity contract.
//
// There are two halves. When Read or Write fills one, it hands that
// half to a goroutine of its own, which folds the counter tallies in
// one flat loop and passes the half to the sink as one batch
// (trace.BatchSink when implemented), and the engine stages into the
// other half meanwhile. It waits only when that half fills too before
// the drain has ended, so at most one drain is in flight, and each
// drain goroutine ends with its batch. The sink is therefore called
// from goroutines other than the engine's, one call at a time, each
// ordered after the one before it. Flush, Counter and Release first
// wait for the in-flight half, so every batch reaches the sink once,
// in emission order, before they return. A sink that panics on a
// drain goroutine panics the engine's goroutine with the same value at
// the next hand-off, Flush, Counter or Release.
type Memory struct {
	// stage is the staging half being filled (a fixed-size array;
	// nStage is the fill level). A fixed array plus index stores one
	// reference and one integer per Read/Write — an append would also
	// write the slice header back every call — and lets the compiler
	// drop the store's bounds check. It is first in the struct because
	// Read/Write touch it on every reference.
	stage  *[stageRefs]Ref
	nStage int
	// words views the slab osmem.Map handed out: anonymous, lazily
	// zero-filled OS pages on unix (a run pays only for the pages it
	// touches), the Go heap under -race and elsewhere. nil after
	// Release, so a late access is an index panic, never a fault.
	words []Word
	// tally folds the drain loop's two counter updates into one:
	// entry (obj<<1|op)<<6|pe counts references of that object type,
	// operation and PE. Counter() unfolds it into the public
	// trace.Counter shape on demand.
	tally   []int64
	counter *trace.Counter
	sink    trace.Sink
	batch   trace.BatchSink // non-nil when sink implements BatchSink

	// spare is the other staging half: the one in flight while
	// draining is set, idle otherwise. drained receives the in-flight
	// drain's end — the value its sink panicked with, or nil — and
	// holds one, so a drain never blocks on a Memory nobody waits on.
	spare    *[stageRefs]Ref
	draining bool
	drained  chan any

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
		spare:   new([stageRefs]Ref),
		drained: make(chan any, 1),
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
// the flat drain tally once the in-flight half, if any, is drained.
// Totals include the half being staged only after a Flush (the engine
// flushes before it reports results).
func (m *Memory) Counter() *trace.Counter {
	m.wait()
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
	n := uint(m.nStage)
	if n >= stageRefs {
		m.handOff()
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
	n := uint(m.nStage)
	if n >= stageRefs {
		m.handOff()
		n = 0
	}
	m.stage[n] = Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpWrite, Obj: obj}
	m.nStage = int(n) + 1
	m.words[addr] = w
}

// handOff starts the full staging half's drain on a goroutine of its
// own and swaps in the other half, first waiting for that half's
// drain, so at most one is ever in flight.
func (m *Memory) handOff() {
	m.wait()
	full := m.stage[:]
	m.stage, m.spare = m.spare, m.stage
	m.nStage = 0
	m.draining = true
	go m.drain(full)
}

// drain delivers one half on the goroutine handOff started for it and
// reports its end, and a sink panic's value, on drained.
func (m *Memory) drain(refs []Ref) {
	defer func() { m.drained <- recover() }()
	m.deliver(refs)
}

// wait returns once no drain is in flight. A sink panic on the drain
// goroutine panics the caller with the same value.
func (m *Memory) wait() {
	if !m.draining {
		return
	}
	m.draining = false
	if v := <-m.drained; v != nil {
		panic(v)
	}
}

// deliver folds the counter tallies of refs in one flat pass, then
// hands them to the sink: one AddBatch call when the sink supports
// batches.
func (m *Memory) deliver(refs []Ref) {
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
}

// Flush waits for the in-flight half, then delivers the half being
// staged on the caller's goroutine, so when Flush returns the sink has
// every reference staged so far and no drain is running. Flush is
// idempotent and cheap when nothing is staged.
func (m *Memory) Flush() {
	m.wait()
	refs := m.stage[:m.nStage]
	if len(refs) == 0 {
		return
	}
	m.nStage = 0
	m.deliver(refs)
}

// Peek reads addr without instrumentation. Host-side use only (answer
// extraction, tests, debuggers).
func (m *Memory) Peek(addr int) Word { return m.words[addr] }

// Poke writes addr without instrumentation. Host-side use only.
func (m *Memory) Poke(addr int, w Word) { m.words[addr] = w }

// Release flushes the staged references and gives the address space
// back to the operating system. The Memory must not be used after
// Release (any access panics); calling Release again is harmless.
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
