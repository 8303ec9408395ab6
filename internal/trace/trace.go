// Package trace defines the memory-reference trace model used throughout
// the reproduction: every read or write performed by a RAP-WAM worker is
// recorded as a Ref carrying the accessing PE, the address, a read/write
// flag and the storage-object classification of Table 1 of the paper
// ("Characteristics of RAP-WAM Storage Objects").
//
// The object classification is what the paper's hybrid cache protocol
// consumes: each object type maps to a storage area, a locality class
// (Local or Global) and whether accesses to it are performed under a lock.
//
// # The trace stream and the Sink contract
//
// A trace is an ordered stream of Refs. Producers (the engine, Buffer
// replay, ChunkReader.Replay) deliver the stream to a Sink by calling Add once
// per reference, in emission order, from a single goroutine. A Sink
// implementation may therefore be entirely unsynchronized; it only has
// to tolerate one caller. Sinks that can consume whole batches more
// efficiently additionally implement BatchSink; batch slices are shared
// and read-only.
//
// Fan-out: Tee duplicates the stream to several sinks synchronously
// (every sink sees each reference before the next is emitted). FanOut
// is the concurrent counterpart — a chunked dispatcher that drives each
// sink on its own goroutine while preserving, per sink, the exact
// emission order, so deterministic consumers such as cache simulators
// produce results bit-identical to a sequential replay. With FanOut the
// stream must be terminated with Close, which flushes buffered chunks
// and blocks until every consumer has drained; consumer state may only
// be read after Close returns. If a consumer sink panics, Close panics
// with its value and stack on the producer's goroutine. Buffer.ReplayAll
// packages the common case: one buffered trace, many concurrent
// consumers, one pass. A Buffer holds its references in segments that
// never move once made, so it grows without copying, and every read
// path walks the segments in place. A consumer that is a RunSink also
// gets each chunk's same-line runs, found once for every such consumer:
// by the decoder as it decodes a stored chunk (ChunkReader.Replay,
// which hands them to a lone RunSink as well), and by LineRuns for any
// other chunk.
//
// # On-disk form
//
// One binary format exists: the compact chunked codec ("RWT2",
// codec.go — delta/varint encoded, CRC-protected, streaming in both
// directions; specified in docs/TRACE_FORMAT.md). ChunkWriter encodes
// a live stream without knowing its length; ChunkReader.Replay
// decodes chunk by chunk into any Sink, so traces larger than memory
// replay in constant space, and ReadCompact materializes a Buffer. The persistent trace store built on the
// compact codec lives in internal/tracestore.
package trace

import "fmt"

// Op distinguishes reads from writes.
type Op uint8

const (
	// OpRead is a data read.
	OpRead Op = iota
	// OpWrite is a data write.
	OpWrite
)

// String returns "R" or "W".
func (o Op) String() string {
	if o == OpRead {
		return "R"
	}
	return "W"
}

// Area identifies a RAP-WAM storage area. Each worker (abstract machine)
// owns one instance of every area; together they form its Stack Set.
type Area uint8

const (
	// AreaNone marks an unclassified address (never emitted by the engine).
	AreaNone Area = iota
	// AreaHeap is the global structure heap (terms).
	AreaHeap
	// AreaLocal is the local stack: environments and parcall frames.
	AreaLocal
	// AreaControl is the control stack: choice points and markers.
	// The paper notes the stack is split into Control and Local stacks
	// "for reasons of locality and locking".
	AreaControl
	// AreaTrail records conditional bindings for backtracking.
	AreaTrail
	// AreaPDL is the unification push-down list.
	AreaPDL
	// AreaGoal is the goal stack used for on-demand scheduling.
	AreaGoal
	// AreaMsg is the inter-worker message buffer.
	AreaMsg

	numAreas = int(AreaMsg) + 1
)

var areaNames = [...]string{
	AreaNone:    "none",
	AreaHeap:    "heap",
	AreaLocal:   "local",
	AreaControl: "control",
	AreaTrail:   "trail",
	AreaPDL:     "pdl",
	AreaGoal:    "goal",
	AreaMsg:     "msg",
}

// NumAreas is the number of distinct storage areas (including AreaNone).
const NumAreas = numAreas

// String returns the lowercase area name.
func (a Area) String() string {
	if int(a) < len(areaNames) {
		return areaNames[a]
	}
	return fmt.Sprintf("area(%d)", uint8(a))
}

// ObjType is a storage-object classification, one per row of Table 1 of
// the paper. It determines the storage area the object lives in, whether
// the object is Local (only its owning worker references it) or Global
// (other workers may reference it), and whether accesses are locked.
type ObjType uint8

const (
	// ObjNone marks an unclassified reference.
	ObjNone ObjType = iota
	// ObjEnvControl is an environment's control words (continuation
	// environment and continuation code pointer). Stack, local, no lock.
	ObjEnvControl
	// ObjEnvPVar is an environment's permanent variables. Stack, global
	// (parallel goals may dereference into the parent's environment).
	ObjEnvPVar
	// ObjChoicePoint is a choice point frame. Stack (control), local.
	ObjChoicePoint
	// ObjHeap is a heap cell. Heap, global.
	ObjHeap
	// ObjTrail is a trail entry. Trail, local.
	ObjTrail
	// ObjPDL is a unification push-down-list entry. PDL, local.
	ObjPDL
	// ObjParcallLocal is the local section of a parcall frame
	// (previous-frame link, continuation, saved environment). Local.
	ObjParcallLocal
	// ObjParcallGlobal is the global section of a parcall frame (goal
	// slot status words read and written by remote workers). Global.
	ObjParcallGlobal
	// ObjParcallCount is a parcall frame's completion/pending counter,
	// accessed under a lock by every worker executing one of its goals.
	ObjParcallCount
	// ObjMarker is a marker frame delimiting a stack section. Local.
	ObjMarker
	// ObjGoalFrame is a goal frame on the goal stack, pushed by the
	// spawning worker and popped (possibly by a remote worker) under the
	// goal-stack lock. Global, locked.
	ObjGoalFrame
	// ObjMessage is a message-buffer entry (kill/redo/unwind signals).
	// Global, locked.
	ObjMessage

	numObjTypes = int(ObjMessage) + 1
)

// NumObjTypes is the number of distinct object classifications
// (including ObjNone).
const NumObjTypes = numObjTypes

// objInfo is one row of Table 1.
type objInfo struct {
	name   string
	area   Area
	wam    bool // present in the sequential WAM?
	lock   bool // accessed under a lock?
	global bool // Global locality (shared) vs Local
}

var objTable = [...]objInfo{
	ObjNone:          {"none", AreaNone, false, false, false},
	ObjEnvControl:    {"envt/control", AreaLocal, true, false, false},
	ObjEnvPVar:       {"envt/pvars", AreaLocal, true, false, true},
	ObjChoicePoint:   {"choicepoint", AreaControl, true, false, false},
	ObjHeap:          {"heap", AreaHeap, true, false, true},
	ObjTrail:         {"trail", AreaTrail, true, false, false},
	ObjPDL:           {"pdl", AreaPDL, true, false, false},
	ObjParcallLocal:  {"parcall/local", AreaLocal, false, false, false},
	ObjParcallGlobal: {"parcall/global", AreaLocal, false, false, true},
	ObjParcallCount:  {"parcall/counts", AreaLocal, false, true, true},
	ObjMarker:        {"marker", AreaControl, false, false, false},
	ObjGoalFrame:     {"goalframe", AreaGoal, false, true, true},
	ObjMessage:       {"message", AreaMsg, false, true, true},
}

// String returns the Table 1 row name.
func (t ObjType) String() string {
	if int(t) < len(objTable) {
		return objTable[t].name
	}
	return fmt.Sprintf("obj(%d)", uint8(t))
}

// Area returns the storage area this object type lives in.
func (t ObjType) Area() Area { return objTable[t].area }

// WAM reports whether this object type exists in the sequential WAM
// (as opposed to being a RAP-WAM extension).
func (t ObjType) WAM() bool { return objTable[t].wam }

// Locked reports whether accesses to this object type occur under a lock.
func (t ObjType) Locked() bool { return objTable[t].lock }

// globalObjMask has bit t set when ObjType t is Global per Table 1; it
// mirrors objTable (TestGlobalMaskMatchesTable) so that Global — called
// per write on the hybrid cache simulator's hot path — compiles to a
// constant shift instead of a table load.
const globalObjMask uint64 = 1<<ObjEnvPVar | 1<<ObjHeap | 1<<ObjParcallGlobal |
	1<<ObjParcallCount | 1<<ObjGoalFrame | 1<<ObjMessage

// Global reports whether the object is potentially shared between workers
// (the paper's "Global" locality class). The hybrid cache protocol
// write-throughs Global writes and copies back Local ones.
func (t ObjType) Global() bool { return globalObjMask>>t&1 != 0 }

// ObjTypes returns all real object classifications (excluding ObjNone)
// in Table 1 order.
func ObjTypes() []ObjType {
	out := make([]ObjType, 0, numObjTypes-1)
	for t := ObjType(1); int(t) < numObjTypes; t++ {
		out = append(out, t)
	}
	return out
}

// Ref is a single memory reference: one word read or written by one PE.
// It is deliberately small (8 bytes) so that multi-hundred-thousand
// reference traces stay cheap to buffer and replay.
type Ref struct {
	// Addr is the word address in the flat shared address space.
	Addr uint32
	// PE is the identifier of the accessing processing element.
	PE uint8
	// Op is OpRead or OpWrite.
	Op Op
	// Obj is the storage-object classification of the referenced word.
	Obj ObjType
	_   uint8 // padding, keeps struct size stable at 8 bytes
}

// String formats the reference as e.g. "pe2 W 0x001234 heap".
func (r Ref) String() string {
	return fmt.Sprintf("pe%d %s 0x%06x %s", r.PE, r.Op, r.Addr, r.Obj)
}

// Sink consumes references as they are generated by the engine.
// Implementations include Buffer, Counter, cache simulators and file
// writers. A sink's calls never overlap, so it needs no locking: the
// engine's memory delivers each full staging half from a goroutine
// started for that batch, one at a time and each ordered after the one
// before it, and the FanOut dispatcher drives each sink from exactly
// one goroutine.
type Sink interface {
	Add(r Ref)
}

// The nil sink: discards everything.
type nullSink struct{}

func (nullSink) Add(Ref)        {}
func (nullSink) AddBatch([]Ref) {}

// Discard is a Sink that drops all references. It implements BatchSink,
// so batch producers (the engine's staging buffer, Buffer.Replay) pay
// nothing per reference when tracing is off.
var Discard Sink = nullSink{}

// Tee duplicates references to several sinks in order.
type Tee []Sink

// Add forwards r to every sink in the tee.
func (t Tee) Add(r Ref) {
	for _, s := range t {
		s.Add(r)
	}
}

// AddBatch forwards a batch to every sink in the tee (BatchSink),
// preserving per-sink order; sinks without batch support receive the
// references one at a time.
func (t Tee) AddBatch(refs []Ref) {
	for _, s := range t {
		if bs, ok := s.(BatchSink); ok {
			bs.AddBatch(refs)
		} else {
			for _, r := range refs {
				s.Add(r)
			}
		}
	}
}

// Buffer accumulates references in memory for later replay (the paper's
// trace-file stage: the emulator writes a trace which the cache
// simulators then consume repeatedly with different parameters).
//
// The references live in a list of segments, and only the last one,
// the tail, takes new references: a segment is never copied, moved or
// reallocated once made, so a multi-million-reference capture writes
// each reference once and never holds a discarded array beside the
// live one. Segments double from segMinRefs references to segMaxRefs,
// and segMinRefs is both the codec's chunk and FanOut's default chunk,
// so a boundary between schedule-sized segments is a chunk boundary:
// Replay, ReplayAll and WriteCompact walk the segments without copying.
// The zero value is an empty Buffer ready to use.
type Buffer struct {
	segs [][]Ref // in order; only the last may have free slots
	n    int     // references held
	hint int     // references NewBuffer announced that no segment has room for yet
}

const (
	segMinRefs   = codecChunkRefs // the first segment: one codec chunk, one default FanOut chunk
	segDoublings = 3
	segMaxRefs   = segMinRefs << segDoublings // 512 KiB: the most slack a capture leaves
)

// NewBuffer returns an empty Buffer that expects n references. The
// hint only sizes segments: while it lasts, a new segment is cut to
// what remains of it, so exactly n references filled in end to end (by
// Add and AddBatch, or decoded from the codec's chunks) leave no free
// slot. Nothing is allocated before the first reference, and past n
// segments go on doubling to their cap; an unknown length is a hint of
// 0.
func NewBuffer(n int) *Buffer {
	return &Buffer{hint: max(n, 0)}
}

// Add appends r.
func (b *Buffer) Add(r Ref) {
	b.room(1)[0] = r
	b.commit(1)
}

// AddBatch appends a batch of references (BatchSink), filling the tail
// and opening segments as it fills.
func (b *Buffer) AddBatch(refs []Ref) {
	for len(refs) > 0 {
		n := copy(b.room(1), refs)
		b.commit(n)
		refs = refs[n:]
	}
}

// room returns the tail's free slots, first opening a new tail when
// fewer than n are free. A caller fills a prefix and commits it.
func (b *Buffer) room(n int) []Ref {
	k := len(b.segs) - 1
	if k < 0 || cap(b.segs[k])-len(b.segs[k]) < n {
		b.open(n)
		k = len(b.segs) - 1
	}
	tail := b.segs[k]
	return tail[len(tail):cap(tail)]
}

// commit makes the first n free slots of the tail, which the caller
// has filled, part of the Buffer.
func (b *Buffer) commit(n int) {
	k := len(b.segs) - 1
	b.segs[k] = b.segs[k][:len(b.segs[k])+n]
	b.n += n
}

// open appends a new tail with room for at least n references: the
// next size on the doubling schedule, cut to what remains of the hint.
func (b *Buffer) open(n int) {
	size := segMinRefs << min(len(b.segs), segDoublings)
	if b.hint > 0 {
		size = min(size, b.hint)
	}
	size = max(size, n)
	b.hint = max(b.hint-size, 0)
	b.segs = append(b.segs, make([]Ref, 0, size))
}

// Len returns the number of buffered references.
func (b *Buffer) Len() int { return b.n }

// Segments returns the buffered references as a read-only list of
// segments, in order; concatenated they are the trace. Every segment
// holds at least one reference. The view shares the Buffer's storage
// and holds until the Buffer next grows.
func (b *Buffer) Segments() [][]Ref {
	if k := len(b.segs); k > 0 && len(b.segs[k-1]) == 0 {
		return b.segs[:k-1] // a tail a failed decode opened
	}
	return b.segs
}

// Replay feeds every buffered reference to sink in order. A sink that
// implements BatchSink receives one batch per segment, without a copy;
// per the BatchSink contract it must treat each as read-only.
func (b *Buffer) Replay(sink Sink) {
	bs, isBatch := sink.(BatchSink)
	for _, seg := range b.Segments() {
		if isBatch {
			bs.AddBatch(seg)
			continue
		}
		for _, r := range seg {
			sink.Add(r)
		}
	}
}

// MaxPEs is the largest PE count the reference-level tooling supports:
// Counter.ByPE is sized to it, the snoop directory packs holder sets
// into a 64-bit mask, and core.New and cache.Config.Validate both
// reject configurations beyond it.
const MaxPEs = 64

// Counter tallies references by object type and operation without
// storing them. It is the cheap always-on instrumentation the engine
// uses for Table 2 style statistics.
type Counter struct {
	// ByObj[obj][op] counts references per object type and operation.
	ByObj [NumObjTypes][2]int64
	// ByPE counts total references per PE (up to MaxPEs).
	ByPE [MaxPEs]int64
}

// Add tallies r.
func (c *Counter) Add(r Ref) {
	c.ByObj[r.Obj][r.Op]++
	if int(r.PE) < len(c.ByPE) {
		c.ByPE[r.PE]++
	}
}

// counterBankMin is the batch length from which AddBatch splits the
// tally across two banks: below it, zeroing and folding the second bank
// costs more than the overlap saves.
const counterBankMin = 256

// AddBatch tallies a batch (BatchSink). Consecutive references mostly
// hit the same ByObj and ByPE slots, so with one table every increment
// waits on the store before it; a long batch alternates between two
// banks — c itself and a local Counter folded in at the end — so two
// such chains overlap. The result equals Add over each reference.
func (c *Counter) AddBatch(refs []Ref) {
	if len(refs) < counterBankMin {
		for _, r := range refs {
			c.Add(r)
		}
		return
	}
	var b Counter
	for i := 1; i < len(refs); i += 2 {
		r, s := refs[i-1], refs[i]
		c.ByObj[r.Obj][r.Op]++
		b.ByObj[s.Obj][s.Op]++
		if int(r.PE) < len(c.ByPE) {
			c.ByPE[r.PE]++
		}
		if int(s.PE) < len(b.ByPE) {
			b.ByPE[s.PE]++
		}
	}
	if len(refs)%2 == 1 {
		c.Add(refs[len(refs)-1])
	}
	for obj := range b.ByObj {
		c.ByObj[obj][0] += b.ByObj[obj][0]
		c.ByObj[obj][1] += b.ByObj[obj][1]
	}
	for pe, n := range b.ByPE {
		c.ByPE[pe] += n
	}
}

// Total returns the total number of references.
func (c *Counter) Total() int64 {
	var n int64
	for _, ops := range c.ByObj {
		n += ops[0] + ops[1]
	}
	return n
}

// Reads returns the total number of read references.
func (c *Counter) Reads() int64 {
	var n int64
	for _, ops := range c.ByObj {
		n += ops[0]
	}
	return n
}

// Writes returns the total number of write references.
func (c *Counter) Writes() int64 {
	var n int64
	for _, ops := range c.ByObj {
		n += ops[1]
	}
	return n
}

// ByArea aggregates counts per storage area. The result is indexed by
// Area (a fixed array, not a map), so iterating it — and therefore any
// stats output built from it — is deterministic across runs.
func (c *Counter) ByArea() [NumAreas]int64 {
	var out [NumAreas]int64
	for obj, ops := range c.ByObj {
		out[ObjType(obj).Area()] += ops[0] + ops[1]
	}
	return out
}

// GlobalShare returns the fraction of references classified Global.
func (c *Counter) GlobalShare() float64 {
	var global, total int64
	for obj, ops := range c.ByObj {
		n := ops[0] + ops[1]
		total += n
		if ObjType(obj).Global() {
			global += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(global) / float64(total)
}
