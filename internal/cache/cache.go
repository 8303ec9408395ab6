// Package cache implements the paper's trace-driven multiprocessor cache
// simulator: per-PE fully associative caches with perfect LRU replacement
// and a shared bus, under the coherency protocols compared in the paper:
//
//   - conventional write-through with invalidation (the "historically
//     first" coherent cache: every write goes to the bus),
//   - write-in broadcast (distributed invalidation-based copyback,
//     Goodman-style: private dirty lines, invalidate shared copies on
//     write),
//   - write-through broadcast (distributed update-based: writes to
//     shared lines update remote copies in one bus cycle),
//   - hybrid (the paper's firmware-controlled scheme: references tagged
//     Global per Table 1 are written through, references tagged Local
//     are copied back; shared memory stays consistent for global data),
//   - pure copyback (write-back; coherent only for single-PE traces,
//     used as the sequential locality reference).
//
// Performance is reported primarily as the traffic ratio: words moved on
// the bus divided by words referenced by the processors, with a line
// fill or dirty write-back costing LineWords words and a write-through
// word, broadcast update or invalidation costing one word.
//
// # Kernel layout
//
// The per-reference kernel is allocation-free and pointer-free in
// steady state. Each PE's resident lines live in one store type
// (assoc.go) for every associativity: a preallocated slab addressed by
// int32 handles and one intrusive LRU list per set threaded through the
// slab by index. The fully associative model is the one-set case. A
// line's handle is found through a page index (store.go) that the
// simulator's PEs share: a page of lines maps to each PE's page of
// int32 handles, offsets into flat slices rather than pointers, and to
// one page of presence bitmasks. The masks are the snoop directory
// (directory.go), so coherency actions visit only the PEs that actually
// hold the line instead of scanning every cache. Every delivery — a
// batch with its same-line runs from the fan-out (trace.RunSink), a
// batch alone, or one reference through Add — runs one replay loop
// (batch.go), which takes a run of k references in one step: the first
// in full, the other k−1 in closed form. In it the shared per-run
// prologue, the write hits that need no bus and the written-through
// writes run inline, read misses and the remaining writes through one
// handler per protocol, so each protocol's rules are written down once.
//
// # Simulation planning
//
// SimulateAll and SimulateAllStream do not build one simulator per
// configuration (planSims, replay.go). A write-through-invalidate cache
// holds the same lines in the same LRU order as its write-in broadcast
// twin, so it shares that simulator and its Stats are derived. Fully
// associative write-in broadcast, hybrid or copyback configurations
// that differ only in SizeWords and WriteAllocate share one multi-size
// structure (multisize.go): every perfect-LRU cache's order is the
// PE's one recency list restricted to its contents, whichever policy
// fills it, so one list per PE yields every (size, policy) slot's Stats
// in one pass at about one simulator's cost. A Sim used as a trace.Sink
// simulates itself.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/objcodec"
)

// Protocol selects a coherency scheme.
type Protocol uint8

const (
	// WriteThrough is the conventional write-through invalidate cache.
	WriteThrough Protocol = iota
	// WriteInBroadcast is the invalidation-based broadcast (copyback)
	// cache.
	WriteInBroadcast
	// WriteThroughBroadcast is the update-based broadcast cache.
	WriteThroughBroadcast
	// Hybrid is the paper's tag-driven write-through-global /
	// copyback-local scheme.
	Hybrid
	// Copyback is a plain write-back cache with no coherency actions;
	// valid as a reference point for single-PE (sequential) traces.
	Copyback

	numProtocols = int(Copyback) + 1
)

var protocolNames = [...]string{
	WriteThrough:          "write-through",
	WriteInBroadcast:      "write-in-broadcast",
	WriteThroughBroadcast: "write-through-broadcast",
	Hybrid:                "hybrid",
	Copyback:              "copyback",
}

// Protocols lists every protocol in declaration order.
func Protocols() []Protocol {
	out := make([]Protocol, numProtocols)
	for i := range out {
		out[i] = Protocol(i)
	}
	return out
}

// String returns the protocol name.
func (p Protocol) String() string {
	if int(p) < len(protocolNames) {
		return protocolNames[p]
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// Config parameterizes a simulation.
type Config struct {
	// PEs is the number of processors (and caches), at most 64 (the
	// snoop directory tracks holders in a 64-bit presence mask).
	PEs int
	// SizeWords is the per-PE cache size in words.
	SizeWords int
	// LineWords is the cache line (block) size in words; the paper uses
	// four-word lines throughout.
	LineWords int
	// Protocol selects the coherency scheme.
	Protocol Protocol
	// WriteAllocate fetches the line on a write miss when true; the
	// paper found no-write-allocate best for small caches (64-256
	// words) and write-allocate best at 512-1024 words (except hybrid
	// at 512).
	WriteAllocate bool
	// Assoc selects N-way set associativity; 0 means fully associative
	// (the paper's model).
	Assoc int
}

// PaperWriteAllocate returns the allocation policy the paper selected for
// a given protocol and cache size ("These selections were made on the
// basis of the policy which produced the lowest traffic"): write-allocate
// from 512 words upward, except the hybrid cache which still used
// no-write-allocate at 512 words.
func PaperWriteAllocate(p Protocol, sizeWords int) bool {
	if sizeWords < 512 {
		return false
	}
	if p == Hybrid && sizeWords == 512 {
		return false
	}
	return true
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PEs <= 0 {
		return fmt.Errorf("cache: PEs = %d, need >= 1", c.PEs)
	}
	if c.PEs > maxDirPEs {
		return fmt.Errorf("cache: PEs = %d exceeds the %d-PE snoop-directory limit", c.PEs, maxDirPEs)
	}
	if c.LineWords <= 0 || c.LineWords&(c.LineWords-1) != 0 {
		return fmt.Errorf("cache: LineWords = %d, need power of two >= 1", c.LineWords)
	}
	if c.SizeWords < c.LineWords {
		return fmt.Errorf("cache: SizeWords = %d smaller than line %d", c.SizeWords, c.LineWords)
	}
	if c.SizeWords%c.LineWords != 0 {
		return fmt.Errorf("cache: SizeWords = %d is not a multiple of line %d", c.SizeWords, c.LineWords)
	}
	if int(c.Protocol) >= numProtocols {
		return fmt.Errorf("cache: unknown protocol %d", c.Protocol)
	}
	if c.Protocol == Copyback && c.PEs > 1 {
		return fmt.Errorf("cache: copyback is not coherent; valid for 1 PE only, got %d", c.PEs)
	}
	if c.Assoc < 0 || (c.Assoc > 0 && c.SizeWords/c.LineWords%c.Assoc != 0) {
		return fmt.Errorf("cache: associativity %d does not divide %d lines", c.Assoc, c.SizeWords/c.LineWords)
	}
	if c.Assoc > 0 {
		sets := c.SizeWords / c.LineWords / c.Assoc
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cache: %d sets is not a power of two", sets)
		}
	}
	return nil
}

// Stats accumulates simulation results.
type Stats struct {
	Refs   int64 // processor references (words)
	Reads  int64
	Writes int64

	ReadMisses  int64
	WriteMisses int64 // write references that missed (even if not allocated)

	BusWords      int64 // total words moved on the bus
	LineFills     int64 // line fetches (each LineWords words)
	WriteBacks    int64 // dirty line write-backs (each LineWords words)
	WriteThroughs int64 // single-word writes to memory
	Updates       int64 // single-word broadcast updates to remote caches
	Invalidations int64 // remote copies invalidated (bookkeeping; the
	// invalidating bus word is already counted in
	// WriteThroughs or as one bus word)
}

// Encode writes the statistics in the trace store's object format (a
// result of kind "sim"): every field in declaration order. A field added
// to Stats goes here and into Decode, and moves the pinned bytes of
// tracestore's TestObjectGoldenBytes (bump tracestore.ObjectVersion);
// TestObjectFieldCoverage fails until then.
func (s Stats) Encode(e *objcodec.Encoder) {
	e.Int(s.Refs)
	e.Int(s.Reads)
	e.Int(s.Writes)
	e.Int(s.ReadMisses)
	e.Int(s.WriteMisses)
	e.Int(s.BusWords)
	e.Int(s.LineFills)
	e.Int(s.WriteBacks)
	e.Int(s.WriteThroughs)
	e.Int(s.Updates)
	e.Int(s.Invalidations)
}

// Decode reads what Encode wrote.
func (s *Stats) Decode(d *objcodec.Decoder) {
	s.Refs = d.Int()
	s.Reads = d.Int()
	s.Writes = d.Int()
	s.ReadMisses = d.Int()
	s.WriteMisses = d.Int()
	s.BusWords = d.Int()
	s.LineFills = d.Int()
	s.WriteBacks = d.Int()
	s.WriteThroughs = d.Int()
	s.Updates = d.Int()
	s.Invalidations = d.Int()
}

// Misses returns total misses (read + write).
func (s Stats) Misses() int64 { return s.ReadMisses + s.WriteMisses }

// TrafficRatio returns bus words per processor reference word — the
// paper's primary metric.
func (s Stats) TrafficRatio() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.BusWords) / float64(s.Refs)
}

// MissRatio returns misses per reference.
func (s Stats) MissRatio() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Refs)
}

// line state
type state uint8

const (
	stateShared    state = iota // clean, possibly in other caches
	stateExclusive              // clean, only this cache
	stateModified               // dirty, only this cache
)

// Sim is a multiprocessor cache simulation. It implements trace.Sink,
// trace.BatchSink and trace.RunSink, so it can be attached directly to
// the engine, fed from a trace.Buffer or put behind a fan-out; every
// delivery runs the one replay loop (batch.go).
type Sim struct {
	cfg       Config
	caches    []*assocCache
	dir       *pageIndex // the index as snoop directory (directory.go); nil for single-PE machines
	stats     Stats
	lineShift uint
	perPEBus  []int64 // bus words attributed to each PE (for bus model)
	perPERefs []int64
	// OnBus, when set, observes every bus transaction: the issuing PE,
	// the transaction length in words, and the reference index at issue
	// time (a proxy clock for the discrete-event bus model).
	OnBus func(pe, words int, refIndex int64)
}

// New builds a simulator; it panics on invalid configuration (the
// experiment drivers validate first via Config.Validate).
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineWords {
		shift++
	}
	s := &Sim{
		cfg:       cfg,
		caches:    make([]*assocCache, cfg.PEs),
		lineShift: shift,
		perPEBus:  make([]int64, cfg.PEs),
		perPERefs: make([]int64, cfg.PEs),
	}
	lines := cfg.SizeWords / cfg.LineWords
	ix := newPageIndex(cfg.PEs)
	for i := range s.caches {
		s.caches[i] = newAssocCache(lines, cfg.Assoc, ix, i)
	}
	if cfg.PEs > 1 {
		s.dir = ix
	}
	return s
}

// Config returns the simulation configuration.
func (s *Sim) Config() Config { return s.cfg }

// Stats returns the accumulated statistics.
func (s *Sim) Stats() Stats { return s.stats }

// PerPEBusWords returns bus words attributed to each PE.
func (s *Sim) PerPEBusWords() []int64 { return s.perPEBus }

// PerPERefs returns processor references per PE.
func (s *Sim) PerPERefs() []int64 { return s.perPERefs }

// busWord charges one word of bus traffic to pe (the write-through,
// invalidation and update cycles).
func (s *Sim) busWord(pe int) {
	s.stats.BusWords++
	s.perPEBus[pe]++
	if s.OnBus != nil {
		s.busEvent(pe)
	}
}

// busEvent notifies the observer of a one-word transaction. It stays
// out of line so that busWord inlines into the replay loop and the
// write handlers.
//
//go:noinline
func (s *Sim) busEvent(pe int) {
	s.OnBus(pe, 1, s.stats.Refs)
}

// bus charges words of bus traffic to pe.
func (s *Sim) bus(pe int, words int64) {
	s.stats.BusWords += words
	s.perPEBus[pe] += words
	if s.OnBus != nil {
		s.OnBus(pe, int(words), s.stats.Refs)
	}
}

// remoteHolders returns the presence mask of caches other than pe
// holding the line.
func (s *Sim) remoteHolders(pe int, line int32) uint64 {
	if s.dir == nil {
		return 0
	}
	return s.dir.holders(line) &^ (1 << uint(pe))
}

// invalidateOthers removes the line from all caches except pe.
func (s *Sim) invalidateOthers(pe int, line int32) {
	for m := s.remoteHolders(pe, line); m != 0; m &= m - 1 {
		if s.caches[bits.TrailingZeros64(m)].invalidate(line) {
			s.stats.Invalidations++
		}
	}
}

// updateOthers marks remote copies updated (word broadcast); they remain
// Shared. Returns whether any remote copy existed.
func (s *Sim) updateOthers(pe int, line int32) bool {
	m := s.remoteHolders(pe, line)
	if m == 0 {
		return false
	}
	for ; m != 0; m &= m - 1 {
		c := s.caches[bits.TrailingZeros64(m)]
		if h := c.lookup(line); h != 0 {
			// Remote copy receives the word; its state stays Shared
			// (an updated copy can never be Modified).
			c.slab[h].st = stateShared
		}
	}
	return true
}

// fill inserts the line into pe's cache with the given state, charging a
// line fetch and any write-back of the evicted victim, and returns the
// new entry's handle.
func (s *Sim) fill(pe int, line int32, st state) int32 {
	// bus() is expanded manually here: fill runs on every miss and the
	// extra call (bus exceeds the inlining budget) is measurable.
	lw := int64(s.cfg.LineWords)
	s.stats.LineFills++
	s.stats.BusWords += lw
	s.perPEBus[pe] += lw
	if s.OnBus != nil {
		s.OnBus(pe, int(lw), s.stats.Refs)
	}
	h, _, vSt, evicted := s.caches[pe].insert(line, st)
	if evicted && vSt == stateModified {
		s.stats.WriteBacks++
		s.stats.BusWords += lw
		s.perPEBus[pe] += lw
		if s.OnBus != nil {
			s.OnBus(pe, int(lw), s.stats.Refs)
		}
	}
	return h
}

// fetchCoherent performs the coherence work for a line fetch in the
// broadcast protocols: if a remote cache holds the line Modified it
// supplies the data and memory is updated (one extra line of traffic),
// and every remote holder sees the fetch on the bus and demotes its
// copy to Shared, making the resulting local state Shared too.
func (s *Sim) fetchCoherent(pe int, line int32) state {
	m := s.remoteHolders(pe, line)
	if m == 0 {
		return stateExclusive
	}
	dirtyPE := -1
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c := s.caches[i]
		if h := c.lookup(line); h != 0 {
			if c.slab[h].st == stateModified {
				dirtyPE = i
			}
			c.slab[h].st = stateShared
		}
	}
	if dirtyPE >= 0 {
		// Owner writes the line back (memory reflection) and keeps a
		// now-clean shared copy.
		s.stats.WriteBacks++
		s.bus(dirtyPE, int64(s.cfg.LineWords))
	}
	return stateShared
}

// readMiss services a read miss under the configured protocol.
func (s *Sim) readMiss(pe int, line int32) {
	s.stats.ReadMisses++
	st := stateExclusive
	switch s.cfg.Protocol {
	case WriteThrough:
		// Memory is always current; plain fill.
		st = stateShared
	case WriteInBroadcast, WriteThroughBroadcast:
		st = s.fetchCoherent(pe, line)
	case Hybrid:
		// Memory is consistent for global data (written through) and
		// local data is never remotely cached, so a plain fill
		// suffices; remote state is unaffected.
		if s.remoteHolders(pe, line) != 0 {
			st = stateShared
		}
	}
	s.fill(pe, line, st)
}

// The write handlers below see the writes the replay loop (batch.go)
// does not finish inline, under the protocols that keep dirty lines:
// misses (h == 0), and a broadcast protocol's hit on a Shared line (h
// is the local copy's handle, already promoted to MRU).

// writeCopyback handles a write miss under the plain copyback
// protocol, and a hybrid Local write miss: only the owner ever touches
// local data, so no coherency actions are needed.
func (s *Sim) writeCopyback(pe int, line int32) {
	if s.cfg.WriteAllocate {
		s.fill(pe, line, stateModified)
		return
	}
	s.stats.WriteThroughs++
	s.busWord(pe)
}

// writeInBroadcast handles a write under the invalidation-based
// broadcast protocol.
func (s *Sim) writeInBroadcast(pe int, line int32, h int32) {
	switch {
	case h != 0:
		// A Shared hit: one bus cycle invalidates all remote copies.
		s.busWord(pe)
		s.invalidateOthers(pe, line)
		s.caches[pe].slab[h].st = stateModified
	case s.cfg.WriteAllocate:
		// Read-for-ownership: fetch then invalidate remote copies.
		s.fetchCoherent(pe, line)
		s.invalidateOthers(pe, line)
		s.fill(pe, line, stateModified)
	default:
		// Word goes to memory; the bus write invalidates copies.
		s.stats.WriteThroughs++
		s.busWord(pe)
		s.invalidateOthers(pe, line)
	}
}

// writeUpdate handles a write under the update-based write-through
// broadcast protocol.
func (s *Sim) writeUpdate(pe int, line int32, h int32) {
	switch {
	case h != 0:
		// A Shared hit broadcasts the word to remote copies and
		// memory.
		s.stats.Updates++
		s.busWord(pe)
		if !s.updateOthers(pe, line) {
			// No remote copy after all: promote to private.
			s.caches[pe].slab[h].st = stateExclusive
		}
	case s.cfg.WriteAllocate:
		st := s.fetchCoherent(pe, line)
		nh := s.fill(pe, line, st)
		if st == stateShared {
			s.stats.Updates++
			s.busWord(pe)
			s.updateOthers(pe, line)
		} else {
			s.caches[pe].slab[nh].st = stateModified
		}
	default:
		s.stats.WriteThroughs++
		s.busWord(pe)
		s.updateOthers(pe, line)
	}
}

// Flush writes back all dirty lines (end-of-run accounting, optional; the
// paper's traffic ratios do not include a final flush, so experiment
// drivers do not call it — it exists for completeness and tests).
func (s *Sim) Flush() {
	for pe, c := range s.caches {
		c.forEach(func(h int32) {
			if c.slab[h].st == stateModified {
				s.stats.WriteBacks++
				s.bus(pe, int64(s.cfg.LineWords))
				c.slab[h].st = stateShared
			}
		})
	}
}
