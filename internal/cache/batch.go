package cache

import "repro/internal/trace"

// This file is Sim's one replay loop. It takes a batch cut into runs
// (trace.RunSink): back-to-back references by one PE, of one
// operation and Global/Local class, to one four-word block, which the
// fan-out finds once per chunk for all its consumers. AddBatch is
// AddRuns with no runs, where every reference is a run of its own, and
// Add is a batch of one. A run of k is one reference in full, then a
// closed-form repeat of k−1: nothing but the run's PE touches the line
// in between, so after a read the line is resident and most recently
// used at every size and the rest only count, and after a write each
// repeat does what the first write's end state calls for
// (repeatWrites): a word to memory if it was written through or the
// line is absent, an update if write-update left remote copies, and
// otherwise nothing but the line turning Modified — including a
// write-update hit that found no remote copy and left it Exclusive.
// Lines shorter than the block, and a Sim whose bus has an observer,
// ignore the runs: the observer reads each transaction's own reference
// index.
//
// The prologue every run shares — PE filter, line, index lookup, MRU
// relink and counts — runs inline. The PE's MRU entry is tried before
// the index, which catches a run that returns to the PE's last line
// after other PEs' references; the lookup and relink inline straight
// into the loop, a line already first in its set (every hit at one
// way) is not relinked, and the set index is computed only to relink,
// insert or invalidate. The common writes run inline too. A write hit
// that needs no bus just sets the line Modified: any copyback hit
// (plain copyback, hybrid Local data), and a broadcast protocol's hit
// on a private line. A written-through write (conventional
// write-through, hybrid Global data) is four lines, and as a handler
// its hits would pay two calls each. Read misses go to readMiss and the
// remaining writes to their protocol's handler (cache.go), so each
// protocol's rules are written down once. Stats.Refs is stored back
// before anything can reach the bus, so an OnBus observer sees each
// transaction's exact reference index whatever the batch boundaries.

// Add processes one reference (trace.Sink).
func (s *Sim) Add(r trace.Ref) {
	one := [1]trace.Ref{r}
	s.AddRuns(one[:], nil)
}

// AddBatch processes a batch of references (trace.BatchSink): every
// reference is a run of its own.
func (s *Sim) AddBatch(refs []trace.Ref) { s.AddRuns(refs, nil) }

// AddRuns processes a batch of references cut into runs
// (trace.RunSink). The slices are treated as read-only, as the fan-out
// dispatcher requires. A Sim whose lines are shorter than a run's block
// or whose bus has an observer ignores the runs: the observer reads
// each transaction's own reference index.
//
//rapwam:hotpath
func (s *Sim) AddRuns(refs []trace.Ref, runs []int32) {
	if s.cfg.LineWords < trace.RunWords || s.OnBus != nil {
		runs = nil
	}
	npes, shift, proto := s.cfg.PEs, s.lineShift, s.cfg.Protocol
	caches, peRefs := s.caches[:npes], s.perPERefs[:npes]
	// n is Stats.Refs, stored back before anything that may put a
	// transaction on the bus: an OnBus observer reads it as its clock.
	// It counts a run whole, which only an observer could tell, and an
	// observed Sim takes every reference as a run of its own.
	n := s.stats.Refs
	var writes int64
	k := 1 // the run's length; runs[0] is its start
	for i := 0; i < len(refs); i += k {
		r := &refs[i]
		if len(runs) > 1 {
			k = int(runs[1] - runs[0])
			runs = runs[1:]
		}
		pe := int(r.PE)
		if pe >= npes {
			// References from PEs outside the simulated machine are
			// ignored; experiment drivers always size PEs to the trace.
			continue
		}
		line := int32(r.Addr >> shift)
		n += int64(k)
		peRefs[pe] += int64(k)
		c := caches[pe]
		// The PE's MRU entry first: a run is usually the PE's next
		// word of its last line, even after other PEs' references.
		h := c.mru
		if h == 0 || c.slab[h].line != line {
			if h = c.lookup(line); h != 0 {
				// A line already first in its set (always, at one way)
				// only becomes the MRU entry.
				if set := line & c.setMask; c.slab[set].next != h {
					c.relink(h, set)
				} else {
					c.mru = h
				}
			}
		}
		if r.Op == trace.OpRead {
			if h == 0 {
				s.stats.Refs = n
				s.readMiss(pe, line)
			}
			// The first read left the line resident and most recently
			// used: the rest of the run are hits that change nothing.
			continue
		}
		writes += int64(k)
		// The paper's hybrid scheme writes Global data through and
		// copies Local data back.
		through := proto == WriteThrough || proto == Hybrid && r.Obj.Global()
		switch {
		case h == 0:
			s.stats.WriteMisses++
		case through:
		case proto == Copyback, proto == Hybrid:
			// Copyback data: a hit dirties the line, no bus; the rest
			// of the run finds it dirty.
			c.slab[h].st = stateModified
			continue
		case c.slab[h].st != stateShared:
			// A private line under a broadcast protocol: no bus.
			c.slab[h].st = stateModified
			continue
		}
		s.stats.Refs = n
		switch {
		case through:
			// One bus word to memory, which also invalidates the
			// remote copies; a present line is never dirtied.
			s.stats.WriteThroughs++
			s.busWord(pe)
			if s.dir != nil { // one PE has no remote copies
				s.invalidateOthers(pe, line)
			}
			if h == 0 && s.cfg.WriteAllocate {
				s.fill(pe, line, stateShared)
			}
		case proto == WriteInBroadcast:
			s.writeInBroadcast(pe, line, h)
		case proto == WriteThroughBroadcast:
			s.writeUpdate(pe, line, h)
		default:
			s.writeCopyback(pe, line)
		}
		if k > 1 {
			s.repeatWrites(pe, line, through, int64(k-1))
		}
	}
	// Every counted reference is a read or a write.
	s.stats.Refs = n
	s.stats.Writes += writes
	s.stats.Reads = n - s.stats.Writes
}

// repeatWrites charges the rep writes that follow a write by pe to line
// within one run, in closed form from the state the first write left:
// no other PE holds the line any more unless it is Shared under write
// update, so each repeat does exactly what the first write's end state
// calls for, and only a write-update hit that found no remote copy
// changes state (Exclusive, then Modified on the next write).
func (s *Sim) repeatWrites(pe int, line int32, through bool, rep int64) {
	c := s.caches[pe]
	h := c.mru // the line is the MRU entry iff it is resident
	if h != 0 && c.slab[h].line != line {
		h = 0
	}
	switch {
	case through || h == 0:
		// Written through, or absent and not allocated: one word to
		// memory each.
		s.stats.WriteThroughs += rep
		if h == 0 {
			s.stats.WriteMisses += rep
		}
	case s.cfg.Protocol == WriteThroughBroadcast && c.slab[h].st == stateShared:
		// Remote copies remain: each write updates them.
		s.stats.Updates += rep
	default:
		// Private: silent, and Modified from the second write on.
		c.slab[h].st = stateModified
		return
	}
	s.stats.BusWords += rep
	s.perPEBus[pe] += rep
}
