package cache

import "repro/internal/trace"

// This file is Sim's one replay loop; Add is a batch of one. The
// prologue every reference shares — PE filter, line, index lookup, MRU
// relink and counts — runs inline: the lookup and relink inline
// straight into the loop, a hit on the line the PE promoted last is one
// compare against the store's mru, and the set index is computed only
// to relink, insert or invalidate. The common writes run inline too. A
// write hit that needs no bus just sets the line Modified: any copyback
// hit (plain copyback, hybrid Local data), and a broadcast protocol's
// hit on a private line. A written-through write (conventional
// write-through, hybrid Global data) is four lines, and as a handler
// its hits would pay two calls each. Read misses go to readMiss and the
// remaining writes to their protocol's handler (cache.go), so each
// protocol's rules are written down once. Stats.Refs is stored back
// before anything can reach the bus, so an OnBus observer sees each
// transaction's exact reference index whatever the batch boundaries.

// Add processes one reference (trace.Sink).
func (s *Sim) Add(r trace.Ref) {
	one := [1]trace.Ref{r}
	s.AddBatch(one[:])
}

// AddBatch processes a batch of references (trace.BatchSink). The batch
// slice is treated as read-only, as the fan-out dispatcher requires.
//
//rapwam:hotpath
func (s *Sim) AddBatch(refs []trace.Ref) {
	npes, shift, proto := s.cfg.PEs, s.lineShift, s.cfg.Protocol
	caches, peRefs := s.caches[:npes], s.perPERefs[:npes]
	// n is Stats.Refs, stored back before anything that may put a
	// transaction on the bus: an OnBus observer reads it as its clock.
	n := s.stats.Refs
	var writes int64
	for i := range refs {
		r := &refs[i]
		pe := int(r.PE)
		if pe >= npes {
			// References from PEs outside the simulated machine are
			// ignored; experiment drivers always size PEs to the trace.
			continue
		}
		line := int32(r.Addr >> shift)
		n++
		peRefs[pe]++
		c := caches[pe]
		h := c.lookup(line)
		if h != 0 && c.mru != h {
			c.relink(h, line&c.setMask)
		}
		if r.Op == trace.OpRead {
			if h == 0 {
				s.stats.Refs = n
				s.readMiss(pe, line)
			}
			continue
		}
		writes++
		// The paper's hybrid scheme writes Global data through and
		// copies Local data back.
		through := proto == WriteThrough || proto == Hybrid && r.Obj.Global()
		switch {
		case h == 0:
			s.stats.WriteMisses++
		case through:
		case proto == Copyback, proto == Hybrid:
			// Copyback data: a hit dirties the line, no bus.
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
	}
	// Every counted reference is a read or a write.
	s.stats.Refs = n
	s.stats.Writes += writes
	s.stats.Reads = n - s.stats.Writes
}
