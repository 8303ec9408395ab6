package cache

import (
	"math/bits"

	"repro/internal/trace"
)

// This file is the multi-size simulator: one structure that simulates
// every cache size of a class — fully associative configurations equal
// but for SizeWords (planSims, replay.go) — in a single pass, for about
// what one single-size Sim costs per reference. It is the paper's
// method (one trace, perfect-LRU caches of many sizes) taken literally:
// each PE keeps one recency list, and every size reads its contents off
// that list.
//
// # Layout
//
// Per PE, one recency list over a slab sized for the largest size plus
// one (a filled line is linked before the line it displaces leaves),
// found through the PE's view of the structure's page index, the index
// Sim uses too (store.go). Each entry carries m, the index of the
// smallest size holding the line — the line is resident at exactly the
// sizes k >= m — and two per-size bitmasks, mod (dirty) and shr
// (Shared; Exclusive is neither), of which only the bits k >= m mean
// anything. Per PE and size k there is a resident count cnt[k] and a
// finger lru[k]: the last list entry with m <= k, which is size k's LRU
// line. The index's presence masks are the structure's snoop directory
// (directory.go): which PEs hold a line at any size.
//
// A reference to a line tagged m hits every size >= m and misses every
// size < m, so the sizes that miss are always a prefix and the miss
// counters are histograms over m, summed into per-size Stats at the end
// (stats). A fill links the entry at the list head, sets m to 0 and
// walks k = 0 … old m − 1 upward: cnt[k]++, and when that overflows
// size k its LRU line lru[k] is evicted from size k alone (written back
// iff its mod bit k is set; its m becomes k+1; the finger moves to the
// nearest entry toward the head with m <= k; it leaves the list and
// the index only when it leaves the largest size). Promotion and
// removal repair the fingers for k = m, m+1, … only while lru[k] is the
// entry: a line that is not size k's LRU is not a larger size's either.
//
// # Why it is exact
//
// Within one allocation policy, by induction over the trace:
//
//	(i)   Any access to a line resident at size C is a hit that
//	      promotes it, so every size's LRU order is the PE's one
//	      recency order restricted to that size's contents.
//	(ii)  contents(C') ⊆ contents(C) and free(C') <= free(C) for
//	      C' < C. A read fills every missing size, an allocating write
//	      likewise, a non-allocating write fills none, an invalidation
//	      removes the line from every size, and an eviction takes the
//	      LRU line of C — which, if resident in C', is the LRU line of
//	      C' too, and C' is full whenever C is, so C' evicted it first.
//	(iii) Hence one tag m describes membership, the victim of size k
//	      always has m == k, and the fingers find it.
//
// Coherence is uniform across sizes because a write by PE p leaves no
// other PE holding the line at any size: at each size k a remote copy
// exists only where p's own copy is absent or Shared (the single-size
// invariant: Exclusive or Modified at size k means no remote holder at
// size k), and in both cases the size-k machine invalidates it — the
// Shared hit with one bus word, the miss with its fetch or its
// write-through word. So invalidation removes a remote entry whole, and
// Invalidations is a histogram over the remote tag.
//
// Per-protocol state, with H the sizes that hit and Q those that miss:
//
//   - Write-in broadcast. A miss at Q snoops: each remote holder tagged
//     m_r supplies the line at X = {k >= m_r} ∩ Q, writing back once
//     per size in X ∩ mod_r, and is left clean and Shared at X; a read
//     fills Shared at the sizes some remote supplied, Exclusive at the
//     rest. A write spends one bus word per size in shr ∩ H, removes
//     every remote copy (an allocating miss snoops first), dirties H,
//     and fills Q dirty under write-allocate or sends one word to
//     memory per size in Q.
//   - Hybrid. Only mod matters. A read fills Q clean. A Global write
//     sends one word at every size, removes every remote copy and
//     fills Q clean under write-allocate; a Local write dirties H and
//     fills Q dirty or sends one word per size in Q.
//   - Copyback is hybrid's Local path on one PE.
//
// Write-through is served from the write-in broadcast structure by
// writeThroughStats, per size, as for a single Sim.
//
// The sharing stops at the allocation policy: a 2-line no-write-allocate
// cache and a 3-line write-allocate one, fed R a, R b, W x, W y, end
// with a in the small cache and not in the large one, so (ii) fails
// across policies and WriteAllocate is part of the class key.
//
// The recency-list code repeats assocCache's (assoc.go): the list
// operations are a few lines each, and the finger repair around them is
// this structure's own. The page index is shared. Like Sim's replay
// loop this one allocates nothing once warm.

// maxSizes is the most sizes one multiSim serves: per-size state is a
// uint8 bitmask. planSims splits larger classes.
const maxSizes = 8

// msEntry is one slab entry: a line resident at the sizes k >= m.
type msEntry struct {
	line       int32
	prev, next int32 // recency list; next doubles as the free-list link
	m          uint8
	mod, shr   uint8 // per-size bitmasks, valid at bits >= m
}

// msCache is one PE's recency structure.
type msCache struct {
	// slab[1:] are the entries; slab[0] is the list sentinel
	// (slab[0].next = MRU) with m = 0, so a finger walk toward the head
	// stops there and yields 0, "no such line".
	slab []msEntry
	idx  pageView
	mru  int32 // mirrors slab[0].next
	free int32 // head of the free list threaded through next; 0 = none
	cnt  [maxSizes]int32
	lru  [maxSizes]int32
}

// multiSim simulates one class of fully associative configurations —
// cfg at each of len(caps) sizes — over one reference stream. It is a
// trace.Sink and trace.BatchSink like Sim, and unexported: planSims
// decides when one is built.
type multiSim struct {
	cfg       Config  // the class; SizeWords is not consulted
	caps      []int32 // lines per size, ascending
	pes       []msCache
	dir       *pageIndex // the index as snoop directory; nil for single-PE machines
	lineShift uint

	refs, writes int64
	// Histograms over the referenced line's tag m (len(caps) when the
	// line is absent): the reference missed the sizes below m.
	readMiss, writeMiss [maxSizes + 1]int64
	// wordMiss counts the write misses whose word went to memory at the
	// sizes below m (no-write-allocate; hybrid: Local writes only).
	wordMiss [maxSizes + 1]int64
	// invalidated counts removed remote copies by their tag m: one
	// invalidation at every size >= m.
	invalidated [maxSizes]int64
	writeBacks  [maxSizes]int64 // per size
	sharedHits  [maxSizes]int64 // per size: write hits on a Shared line, one bus word each
	globalWords int64           // hybrid Global writes: one word at every size
}

// newMultiSim builds the structure for cfg (validated, fully
// associative, not WriteThrough or WriteThroughBroadcast) at the given
// sizes in words: ascending, distinct, 2 to maxSizes of them.
func newMultiSim(cfg Config, sizes []int) *multiSim {
	s := &multiSim{
		cfg:       cfg,
		caps:      make([]int32, len(sizes)),
		pes:       make([]msCache, cfg.PEs),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineWords))),
	}
	for k, words := range sizes {
		s.caps[k] = int32(words / cfg.LineWords)
	}
	lines := int(s.caps[len(sizes)-1])
	ix := newPageIndex(cfg.PEs)
	for i := range s.pes {
		c := &s.pes[i]
		c.slab = make([]msEntry, lines+2)
		ix.attach(&c.idx, i)
		for e := 1; e <= lines; e++ {
			c.slab[e].next = int32(e + 1)
		}
		c.free = 1
	}
	if cfg.PEs > 1 {
		s.dir = ix
	}
	return s
}

// Add processes one reference (trace.Sink).
func (s *multiSim) Add(r trace.Ref) {
	one := [1]trace.Ref{r}
	s.AddBatch(one[:])
}

// AddBatch processes a batch of references (trace.BatchSink); the slice
// is treated as read-only.
func (s *multiSim) AddBatch(refs []trace.Ref) {
	if s.cfg.Protocol == WriteInBroadcast {
		s.replayWriteInBroadcast(refs)
	} else {
		s.replayHybrid(refs)
	}
}

// stats assembles size k's statistics from the histograms.
func (s *multiSim) stats(k int) Stats {
	st := Stats{Refs: s.refs, Reads: s.refs - s.writes, Writes: s.writes}
	st.WriteBacks = s.writeBacks[k]
	st.WriteThroughs = s.globalWords
	for m := k + 1; m <= len(s.caps); m++ {
		st.ReadMisses += s.readMiss[m]
		st.WriteMisses += s.writeMiss[m]
		st.WriteThroughs += s.wordMiss[m]
	}
	for m := 0; m <= k; m++ {
		st.Invalidations += s.invalidated[m]
	}
	st.LineFills = st.ReadMisses
	if s.cfg.WriteAllocate {
		st.LineFills += st.WriteMisses
	}
	st.BusWords = (st.LineFills+st.WriteBacks)*int64(s.cfg.LineWords) + st.WriteThroughs + s.sharedHits[k]
	return st
}

//rapwam:hotpath
func (s *multiSim) replayWriteInBroadcast(refs []trace.Ref) {
	npes, shift, wa := s.cfg.PEs, s.lineShift, s.cfg.WriteAllocate
	absent := len(s.caps)
	all := uint8(uint(1)<<uint(absent) - 1)
	var nRefs, nWrites int64
	for i := range refs {
		r := refs[i]
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		line := int32(r.Addr >> shift)
		nRefs++
		c := &s.pes[pe]
		e := c.idx.lookup(line)
		m := absent
		if e != 0 {
			m = int(c.slab[e].m)
			if c.mru != e {
				c.promote(e, absent)
			}
		}
		miss := uint8(uint(1)<<uint(m) - 1) // the sizes below m
		if r.Op == trace.OpRead {
			if m == 0 {
				continue
			}
			s.readMiss[m]++
			var supplied uint8
			if s.dir != nil {
				supplied = s.snoop(pe, line, miss, false)
			}
			e = s.fill(c, e, line, m)
			ent := &c.slab[e]
			ent.mod &^= miss
			ent.shr = ent.shr&^miss | supplied
			continue
		}
		nWrites++
		hit := all &^ miss
		shared := c.slab[e].shr & hit // hit is empty when e is the sentinel
		if m == 0 && shared == 0 {
			// Private at every size: silent.
			c.slab[e].mod = all
			continue
		}
		for b := shared; b != 0; b &= b - 1 {
			s.sharedHits[bits.TrailingZeros8(b)]++
		}
		if s.dir != nil {
			// No remote copy survives the write; an allocating miss
			// fetches first, so dirty remote copies write back at the
			// sizes that miss.
			fetch := miss
			if !wa {
				fetch = 0
			}
			s.snoop(pe, line, fetch, true)
		}
		if m != 0 {
			s.writeMiss[m]++
			if wa {
				e = s.fill(c, e, line, m)
				hit = all
			} else {
				s.wordMiss[m]++
			}
		}
		if e != 0 {
			ent := &c.slab[e]
			ent.mod |= hit
			ent.shr &^= hit
		}
	}
	s.refs += nRefs
	s.writes += nWrites
}

//rapwam:hotpath
func (s *multiSim) replayHybrid(refs []trace.Ref) {
	npes, shift, wa := s.cfg.PEs, s.lineShift, s.cfg.WriteAllocate
	copyback := s.cfg.Protocol == Copyback
	absent := len(s.caps)
	all := uint8(uint(1)<<uint(absent) - 1)
	var nRefs, nWrites int64
	for i := range refs {
		r := refs[i]
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		line := int32(r.Addr >> shift)
		nRefs++
		c := &s.pes[pe]
		e := c.idx.lookup(line)
		m := absent
		if e != 0 {
			m = int(c.slab[e].m)
			if c.mru != e {
				c.promote(e, absent)
			}
		}
		miss := uint8(uint(1)<<uint(m) - 1) // the sizes below m
		if r.Op == trace.OpRead {
			if m == 0 {
				continue
			}
			s.readMiss[m]++
			e = s.fill(c, e, line, m)
			c.slab[e].mod &^= miss
			continue
		}
		nWrites++
		if !copyback && r.Obj.Global() {
			// Written through at every size; the bus word invalidates
			// remote copies and never dirties a present line.
			s.globalWords++
			if s.dir != nil {
				s.snoop(pe, line, 0, true)
			}
			if m != 0 {
				s.writeMiss[m]++
				if wa {
					e = s.fill(c, e, line, m)
					c.slab[e].mod &^= miss
				}
			}
			continue
		}
		// Local data: copyback, no coherency actions.
		if m == 0 {
			c.slab[e].mod = all
			continue
		}
		s.writeMiss[m]++
		if wa {
			e = s.fill(c, e, line, m)
			c.slab[e].mod = all
		} else {
			s.wordMiss[m]++
			if e != 0 {
				c.slab[e].mod |= all &^ miss
			}
		}
	}
	s.refs += nRefs
	s.writes += nWrites
}

// snoop visits every cache other than pe that holds line. Each holder
// first supplies the line at the sizes in fetch that it holds — writing
// back where it is dirty, staying clean and Shared there — and is then
// removed whole if invalidate is set. It returns the sizes some holder
// supplied.
func (s *multiSim) snoop(pe int, line int32, fetch uint8, invalidate bool) (supplied uint8) {
	for hs := s.dir.holders(line) &^ (1 << uint(pe)); hs != 0; hs &= hs - 1 {
		c := &s.pes[bits.TrailingZeros64(hs)]
		e := c.idx.lookup(line)
		ent := &c.slab[e]
		if x := fetch &^ (1<<ent.m - 1); x != 0 {
			for b := x & ent.mod; b != 0; b &= b - 1 {
				s.writeBacks[bits.TrailingZeros8(b)]++
			}
			ent.mod &^= x
			ent.shr |= x
			supplied |= x
		}
		if invalidate {
			s.invalidated[ent.m]++
			c.remove(e, len(s.caps))
		}
	}
	return supplied
}

// fill makes line resident at the sizes below m — every size when e is
// 0, a line the PE does not hold — evicting the LRU line of each size
// that overflows, and returns the line's entry. An existing entry is
// already at the list head (the kernels promote before they fill). The
// caller sets the mod and shr bits of the filled sizes.
func (s *multiSim) fill(c *msCache, e, line int32, m int) int32 {
	fresh := e == 0
	if fresh {
		e = c.free
		c.free = c.slab[e].next
		c.slab[e].line = line
		c.pushFront(e)
	}
	c.slab[e].m = 0
	last := len(s.caps) - 1
	for k := 0; k < m; k++ {
		if c.cnt[k] < s.caps[k] {
			if c.cnt[k] == 0 {
				c.lru[k] = e
			}
			c.cnt[k]++
			continue
		}
		// Size k is full: its LRU line v (tagged k, see (iii)) leaves
		// it. The walk ends at e at the latest.
		v := c.lru[k]
		ve := &c.slab[v]
		if ve.mod>>uint(k)&1 != 0 {
			s.writeBacks[k]++
		}
		c.lru[k] = c.towardHead(ve.prev, k)
		ve.m = uint8(k + 1)
		if k == last {
			c.unlink(v)
			c.idx.clear(ve.line)
			ve.next = c.free
			c.free = v
		}
	}
	if fresh {
		c.idx.set(line, e)
	}
	return e
}

// towardHead returns the nearest entry at or before f, toward the list
// head, that is resident at size k, or 0 when the walk reaches the
// sentinel.
func (c *msCache) towardHead(f int32, k int) int32 {
	for int(c.slab[f].m) > k {
		f = c.slab[f].prev
	}
	return f
}

// promote moves a resident entry to the list head. Where it was a
// size's LRU line the finger passes to the next line of that size
// toward the head; if there is none the entry is the size's only line
// and stays its LRU.
func (c *msCache) promote(e int32, sizes int) {
	ent := &c.slab[e]
	for k := int(ent.m); k < sizes && c.lru[k] == e; k++ {
		if f := c.towardHead(ent.prev, k); f != 0 {
			c.lru[k] = f
		}
	}
	c.unlink(e)
	c.pushFront(e)
}

// remove drops a resident entry from every size (an invalidation).
func (c *msCache) remove(e int32, sizes int) {
	ent := &c.slab[e]
	for k := int(ent.m); k < sizes; k++ {
		c.cnt[k]--
		if c.lru[k] == e {
			c.lru[k] = c.towardHead(ent.prev, k)
		}
	}
	c.unlink(e)
	c.mru = c.slab[0].next
	c.idx.clear(ent.line)
	ent.next = c.free
	c.free = e
}

func (c *msCache) unlink(e int32) {
	p, n := c.slab[e].prev, c.slab[e].next
	c.slab[p].next = n
	c.slab[n].prev = p
}

func (c *msCache) pushFront(e int32) {
	first := c.slab[0].next
	c.slab[e].next = first
	c.slab[e].prev = 0
	c.slab[first].prev = e
	c.slab[0].next = e
	c.mru = e
}
