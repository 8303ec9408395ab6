package cache

import "repro/internal/trace"

// This file is the batch replay fast path. Sim implements
// trace.BatchSink; AddBatch dispatches once per batch to a
// protocol-specialized kernel, hoisting the coherency-scheme switch and
// the Sink interface hop out of the per-reference loop. Every
// associativity runs the same kernels over the one store type
// (assoc.go): the hash probe inlines straight into the loop, a hit on
// the line the PE promoted last is one compare against the store's
// mru, and the set index is computed only to relink, insert or
// invalidate. Reference/read/write totals are accumulated in locals and
// committed once per batch; everything else updates exactly as in
// single-reference delivery, so the statistics are bit-identical to
// feeding the same references through Add one at a time.
//
// When an OnBus observer is attached the batch falls back to the Add
// path: observers see the reference index as a proxy clock, so the
// bookkeeping must advance per reference exactly as in single-reference
// delivery.
//
// The kernels are deliberately repetitive: one loop per protocol keeps
// every per-reference branch monomorphic and lets the compiler
// specialize each loop body. Resist the urge to
// deduplicate them through function values — an indirect call per
// reference is exactly what this file exists to remove.

// AddBatch processes a batch of references (trace.BatchSink). The batch
// slice is treated as read-only, as the fan-out dispatcher requires.
func (s *Sim) AddBatch(refs []trace.Ref) {
	if s.OnBus != nil {
		for i := range refs {
			s.Add(refs[i])
		}
		return
	}
	switch s.cfg.Protocol {
	case WriteThrough:
		s.replayWriteThrough(refs)
	case WriteInBroadcast:
		s.replayWriteInBroadcast(refs)
	case WriteThroughBroadcast:
		s.replayWriteUpdate(refs)
	case Hybrid:
		s.replayHybrid(refs)
	case Copyback:
		s.replayCopyback(refs)
	}
}

// commitBus adds the loop-local per-PE bus-word counters (from the
// kernels' inlined bus writes) to the per-PE accounting.
func (s *Sim) commitBus(npes int, peBus *[maxDirPEs]int64) {
	for i := 0; i < npes; i++ {
		s.perPEBus[i] += peBus[i]
	}
}

// commitTotals adds the loop-local reference counters to the stats;
// reads are derived (every counted reference is a read or a write), so
// the kernels track two counters, not three.
func (s *Sim) commitTotals(npes int, refs, writes int64, peRefs *[maxDirPEs]int64) {
	s.stats.Refs += refs
	s.stats.Reads += refs - writes
	s.stats.Writes += writes
	for i := 0; i < npes; i++ {
		s.perPERefs[i] += peRefs[i]
	}
}

//rapwam:hotpath
func (s *Sim) replayWriteThrough(refs []trace.Ref) {
	npes, shift, caches, dir := s.cfg.PEs, s.lineShift, s.caches, s.dir
	var peBus [maxDirPEs]int64
	wa := s.cfg.WriteAllocate
	var nRefs, nWrites int64
	var peRefs [maxDirPEs]int64
	for i := range refs {
		r := refs[i]
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		pe &= maxDirPEs - 1 // no-op (pe < PEs <= 64); elides bounds checks
		line := int32(r.Addr >> shift)
		nRefs++
		peRefs[pe]++
		c := caches[pe]
		h := c.lookup(line)
		if h != 0 && c.mru != h {
			c.relink(h, line&c.setMask)
		}
		if r.Op == trace.OpRead {
			if h == 0 {
				s.readMiss(pe, line)
			}
		} else {
			// Inlined writeThrough: one word on the bus per write (the
			// invalidation signal), optional allocate on a miss. OnBus
			// is nil on this path, so bus() is just the two counters.
			nWrites++
			if h == 0 {
				s.stats.WriteMisses++
			}
			s.stats.WriteThroughs++
			s.stats.BusWords++
			peBus[pe]++
			if dir != nil {
				if slot := dir.find(line); slot >= 0 {
					s.invalidateOthersAt(slot, pe, line)
				}
			}
			if h == 0 && wa {
				s.fill(pe, line, stateShared)
			}
		}
	}
	s.commitBus(npes, &peBus)
	s.commitTotals(npes, nRefs, nWrites, &peRefs)
}

func (s *Sim) replayWriteInBroadcast(refs []trace.Ref) {
	npes, shift, caches, dir := s.cfg.PEs, s.lineShift, s.caches, s.dir
	wa := s.cfg.WriteAllocate
	var peBus [maxDirPEs]int64
	var nRefs, nWrites int64
	var peRefs [maxDirPEs]int64
	for i := range refs {
		r := refs[i]
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		pe &= maxDirPEs - 1 // no-op (pe < PEs <= 64); elides bounds checks
		line := int32(r.Addr >> shift)
		nRefs++
		peRefs[pe]++
		c := caches[pe]
		h := c.lookup(line)
		if h != 0 && c.mru != h {
			c.relink(h, line&c.setMask)
		}
		if r.Op == trace.OpRead {
			if h == 0 {
				s.readMiss(pe, line)
			}
		} else {
			nWrites++
			if h != 0 {
				// Private lines write silently (Modified) or promote in
				// place (Exclusive); a Shared hit spends one bus cycle
				// invalidating all remote copies (OnBus is nil here, so
				// bus() is just the two counters).
				st := c.slab[h].st
				if st == stateModified {
					continue
				}
				if st == stateExclusive {
					c.slab[h].st = stateModified
					continue
				}
				s.stats.BusWords++
				peBus[pe]++
				if dir != nil {
					if slot := dir.find(line); slot >= 0 {
						s.invalidateOthersAt(slot, pe, line)
					}
				}
				c.slab[h].st = stateModified
				continue
			}
			s.stats.WriteMisses++
			if !wa {
				// Inlined no-allocate write miss: the word goes to
				// memory and the bus write invalidates remote copies.
				s.stats.WriteThroughs++
				s.stats.BusWords++
				peBus[pe]++
				if dir != nil {
					if slot := dir.find(line); slot >= 0 {
						s.invalidateOthersAt(slot, pe, line)
					}
				}
				continue
			}
			s.writeInBroadcast(pe, line, h)
		}
	}
	s.commitBus(npes, &peBus)
	s.commitTotals(npes, nRefs, nWrites, &peRefs)
}

func (s *Sim) replayWriteUpdate(refs []trace.Ref) {
	npes, shift, caches := s.cfg.PEs, s.lineShift, s.caches
	var peBus [maxDirPEs]int64
	var nRefs, nWrites int64
	var peRefs [maxDirPEs]int64
	for i := range refs {
		r := refs[i]
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		pe &= maxDirPEs - 1 // no-op (pe < PEs <= 64); elides bounds checks
		line := int32(r.Addr >> shift)
		nRefs++
		peRefs[pe]++
		c := caches[pe]
		h := c.lookup(line)
		if h != 0 && c.mru != h {
			c.relink(h, line&c.setMask)
		}
		if r.Op == trace.OpRead {
			if h == 0 {
				s.readMiss(pe, line)
			}
		} else {
			nWrites++
			if h != 0 {
				// Same private-line fast path as write-in broadcast; a
				// Shared hit broadcasts the word (one bus cycle) to the
				// remaining holders, or promotes to private if none are
				// left.
				st := c.slab[h].st
				if st == stateModified {
					continue
				}
				if st == stateExclusive {
					c.slab[h].st = stateModified
					continue
				}
				s.stats.Updates++
				s.stats.BusWords++
				peBus[pe]++
				if !s.updateOthers(pe, line) {
					c.slab[h].st = stateExclusive
				}
				continue
			}
			s.stats.WriteMisses++
			s.writeUpdate(pe, line, h)
		}
	}
	s.commitBus(npes, &peBus)
	s.commitTotals(npes, nRefs, nWrites, &peRefs)
}

func (s *Sim) replayHybrid(refs []trace.Ref) {
	npes, shift, caches, dir := s.cfg.PEs, s.lineShift, s.caches, s.dir
	var peBus [maxDirPEs]int64
	wa := s.cfg.WriteAllocate
	var nRefs, nWrites int64
	var peRefs [maxDirPEs]int64
	for i := range refs {
		r := refs[i]
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		pe &= maxDirPEs - 1 // no-op (pe < PEs <= 64); elides bounds checks
		line := int32(r.Addr >> shift)
		nRefs++
		peRefs[pe]++
		c := caches[pe]
		h := c.lookup(line)
		if h != 0 && c.mru != h {
			c.relink(h, line&c.setMask)
		}
		if r.Op == trace.OpRead {
			if h == 0 {
				s.readMiss(pe, line)
			}
		} else {
			nWrites++
			if r.Obj.Global() {
				// Inlined global write-through: the bus word doubles as
				// the invalidation signal; a present line is never
				// dirtied by a global write. OnBus is nil on this path,
				// so bus() is just the two counters.
				if h == 0 {
					s.stats.WriteMisses++
				}
				s.stats.WriteThroughs++
				s.stats.BusWords++
				peBus[pe]++
				if dir != nil {
					if slot := dir.find(line); slot >= 0 {
						s.invalidateOthersAt(slot, pe, line)
					}
				}
				if h == 0 && wa {
					s.fill(pe, line, stateShared)
				}
				continue
			}
			if h != 0 {
				// Local-data write hit: plain copyback, no coherency
				// actions and no bus traffic.
				c.slab[h].st = stateModified
				continue
			}
			// Local-data write miss: fetch the line dirty under
			// write-allocate, else write the word through.
			s.stats.WriteMisses++
			if wa {
				s.fill(pe, line, stateModified)
			} else {
				s.stats.WriteThroughs++
				s.stats.BusWords++
				peBus[pe]++
			}
		}
	}
	s.commitBus(npes, &peBus)
	s.commitTotals(npes, nRefs, nWrites, &peRefs)
}

//rapwam:hotpath
func (s *Sim) replayCopyback(refs []trace.Ref) {
	npes, shift, caches := s.cfg.PEs, s.lineShift, s.caches
	var nRefs, nWrites int64
	var peRefs [maxDirPEs]int64
	for i := range refs {
		r := refs[i]
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		pe &= maxDirPEs - 1 // no-op (pe < PEs <= 64); elides bounds checks
		line := int32(r.Addr >> shift)
		nRefs++
		peRefs[pe]++
		c := caches[pe]
		h := c.lookup(line)
		if h != 0 && c.mru != h {
			c.relink(h, line&c.setMask)
		}
		if r.Op == trace.OpRead {
			if h == 0 {
				s.readMiss(pe, line)
			}
		} else {
			nWrites++
			if h != 0 {
				// Write hit: dirty the line silently.
				c.slab[h].st = stateModified
				continue
			}
			s.stats.WriteMisses++
			s.writeCopyback(pe, line, h)
		}
	}
	s.commitTotals(npes, nRefs, nWrites, &peRefs)
}
