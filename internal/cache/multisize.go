package cache

import (
	"math/bits"

	"repro/internal/trace"
)

// This file is the multi-size simulator: one structure that simulates
// up to maxSizes slots of a class — fully associative configurations
// equal but for SizeWords and WriteAllocate (planSims, replay.go), each
// slot a (size, allocation policy) pair — in a single pass, for about
// what one single-size Sim costs per reference. It is the paper's
// method (one trace, perfect-LRU caches of many sizes) taken literally:
// each PE keeps one recency list, and every slot reads its contents off
// that list.
//
// # Layout
//
// Per PE, one recency list over a slab, found through the PE's view of
// the structure's page index, the index Sim uses too (store.go). Each
// entry carries three per-slot bitmasks: in, the slots holding the
// line, and mod (dirty) and shr (Shared; Exclusive is neither), of
// which only the bits in in mean anything. Per PE and slot k there is a
// resident count cnt[k] and a finger lru[k]: the last list entry with
// bit k of in set, which is slot k's LRU line. The index's presence
// masks are the structure's snoop directory (directory.go): which PEs
// hold a line in any slot. The structure knows which slots allocate on
// a write miss (alloc); the allocating slots form one policy group, the
// others the second, and slots are numbered by ascending size, so each
// group's bits run from its smallest size up.
//
// A reference to a line misses the slots Q = all &^ in, and the miss
// counters are histograms over Q, summed into per-slot Stats at the end
// (stats). A fill of the slots F links a new entry at the list head (an
// existing one is there already), sets F in in and, for each k in F,
// counts cnt[k]++; when that overflows slot k its LRU line lru[k] is
// evicted from slot k alone (written back iff its mod bit k is set; the
// finger moves to the nearest entry toward the head holding bit k; the
// line leaves the list and the index when its in is empty). Promotion
// and removal repair the fingers of the slots the entry is in; promotion
// repairs a group's slots from its smallest up and stops at the first
// whose LRU line the entry is not — within a group a line that is not
// a smaller size's LRU line is not a larger one's either.
//
// # Why it is exact
//
// By induction over the trace, for every slot:
//
//	(i)   A line enters a slot as the most recently referenced line,
//	      and every later reference to it while it stays there is a
//	      hit that promotes it. So each slot's LRU order is the PE's one
//	      recency order restricted to that slot's contents, whatever the
//	      other slots do: a reference that misses a slot without filling
//	      it (a non-allocating write miss) moves the line to the list
//	      head but changes neither that slot's contents nor their order.
//	(ii)  Hence the victim of slot k is the last entry holding bit k,
//	      and the fingers find it.
//	(iii) Within one policy group contents nest: contents(C') ⊆
//	      contents(C) for C' < C. A read fills every missing slot, an
//	      allocating write likewise, a non-allocating write fills none,
//	      an invalidation removes the line from every slot, and an
//	      eviction takes the LRU line of C — which, if resident in C',
//	      is the LRU line of C' too, and C' is full whenever C is, so C'
//	      evicted it first. Across groups nothing nests: a 2-line
//	      no-write-allocate cache and a 3-line write-allocate one, fed
//	      R a, R b, W x, W y, end with a in the small cache and not in
//	      the large one. Exactness does not need it; the slab bound and
//	      the early exit of finger repair do.
//
// So the lines a PE holds are those of its largest allocating slot and
// of its largest non-allocating one, and the slab holds the sum of
// their capacities, plus one (a filled line is linked before the line
// it displaces leaves), plus the sentinel.
//
// Coherence is per slot, as for a single Sim, because a write by PE p
// leaves no other PE holding the line in any slot: in each slot k a
// remote copy exists only where p's own copy is absent or Shared (the
// single-size invariant: Exclusive or Modified in slot k means no
// remote holder in slot k), and in both cases the slot-k machine
// invalidates it — the Shared hit with one bus word, the miss with its
// fetch or its write-through word. So invalidation removes a remote
// entry whole, and Invalidations is a histogram over the remote in.
//
// One loop (AddRuns) serves every protocol, and it branches on the
// protocol in three places: only write-in broadcast snoops on a read
// miss and on a write, and hybrid Global writes take a path of their
// own. A hybrid Local or copyback write (hybrid on one PE) is thus a
// write-in broadcast write with no snoop, on a line never Shared. With
// H = in the slots that hit and Q those that miss:
//
//   - A read miss fills Q clean. Under write-in broadcast it snoops
//     first: each remote holder with slots in_r supplies the line at
//     X = in_r ∩ Q, writing back once per slot in X ∩ mod_r, and is
//     left clean and Shared at X; the read fills Shared at the slots
//     some remote supplied, Exclusive at the rest.
//   - A write spends one bus word per slot in shr ∩ H, dirties H, fills
//     Q ∩ alloc dirty and sends one word to memory per slot in
//     Q \ alloc. Under write-in broadcast it first removes every
//     remote copy (the allocating slots that miss snoop for the line).
//   - A hybrid Global write sends one word in every slot, removes every
//     remote copy, and fills Q ∩ alloc clean.
//
// Write-through is served from the write-in broadcast structure by
// writeThroughStats, per slot, as for a single Sim.
//
// The sharing stops at what changes a line's life in every slot: the
// line size and the PE count (the class key), set-indexed caches (a
// set's LRU order is not the PE's), WriteThroughBroadcast (an update
// keeps remote copies, so a write leaves a remote line in some slots
// and not others) and more than maxSizes slots (planSims splits the
// class).
//
// # Runs
//
// Like Sim (batch.go) the structure is a trace.RunSink: its loop takes
// a run of k as one reference in full and a closed-form repeat of k−1.
// Nothing else touches the line in between, and no remote copy
// survives the first write. After a read the line is in every slot and
// at the list head, so the rest only count. After a write the line is
// dirty and private in every slot that holds it, so the rest are silent
// there, and each repeat misses the slots where the first missed
// without allocating, Q \ alloc: writeMiss and wordMiss there, or for
// hybrid Global data a global word. Lines shorter than the block ignore
// the runs.
//
// The recency-list code repeats assocCache's (assoc.go), with finger
// repair of its own; the page index is shared. Like Sim's replay loop
// this one allocates nothing once warm.

// maxSizes is the most slots one multiSim serves: per-slot state is a
// uint8 bitmask. planSims splits larger classes.
const maxSizes = 8

// cacheSize is one slot of a plan unit: a cache size in words and its
// allocation policy.
type cacheSize struct {
	words    int
	allocate bool
}

// msEntry is one slab entry: a line resident in the slots of in.
type msEntry struct {
	line       int32
	prev, next int32 // recency list; next doubles as the free-list link
	in         uint8 // the slots holding the line
	mod, shr   uint8 // per-slot bitmasks, valid at the bits of in
}

// msCache is one PE's recency structure.
type msCache struct {
	// slab[1:] are the entries; slab[0] is the list sentinel
	// (slab[0].next = MRU), in every slot, so a finger walk toward the
	// head stops there and yields 0, "no such line".
	slab []msEntry
	idx  pageView
	mru  int32 // mirrors slab[0].next
	free int32 // head of the free list threaded through next; 0 = none
	cnt  [maxSizes]int32
	lru  [maxSizes]int32
}

// multiSim simulates one class of fully associative configurations —
// cfg at each of len(caps) slots — over one reference stream. It is a
// trace.Sink, BatchSink and RunSink like Sim, and unexported: planSims
// decides when one is built.
type multiSim struct {
	cfg       Config  // the class; SizeWords and WriteAllocate are not consulted
	caps      []int32 // lines per slot, ascending by size
	all       uint8   // every slot
	alloc     uint8   // the slots that allocate on a write miss
	groups    [2]uint8
	pes       []msCache
	dir       *pageIndex // the index as snoop directory; nil for single-PE machines
	lineShift uint

	refs, writes int64
	// Histograms over the slots a reference missed, Q.
	readMiss, writeMiss [1 << maxSizes]int64
	// wordMiss counts the write misses whose word went to memory at the
	// slots of the mask (Q \ alloc; hybrid: Local writes only).
	wordMiss [1 << maxSizes]int64
	// invalidated counts removed remote copies by their in: one
	// invalidation in each of its slots.
	invalidated [1 << maxSizes]int64
	writeBacks  [maxSizes]int64 // per slot
	sharedHits  [maxSizes]int64 // per slot: write hits on a Shared line, one bus word each
	globalWords int64           // hybrid Global writes: one word in every slot
}

// newMultiSim builds the structure for cfg (validated, fully
// associative, not WriteThrough or WriteThroughBroadcast) at the given
// slots: 1 to maxSizes of them, distinct, ascending by size.
func newMultiSim(cfg Config, sizes []cacheSize) *multiSim {
	s := &multiSim{
		cfg:       cfg,
		caps:      make([]int32, len(sizes)),
		all:       uint8(1<<len(sizes) - 1),
		pes:       make([]msCache, cfg.PEs),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineWords))),
	}
	var largest [2]int32 // per group, the largest capacity
	for k, sz := range sizes {
		s.caps[k] = int32(sz.words / cfg.LineWords)
		g := 1
		if sz.allocate {
			s.alloc |= 1 << k
			g = 0
		}
		largest[g] = max(largest[g], s.caps[k])
	}
	s.groups = [2]uint8{s.alloc, s.all &^ s.alloc}
	lines := int(largest[0] + largest[1])
	ix := newPageIndex(cfg.PEs)
	for i := range s.pes {
		c := &s.pes[i]
		c.slab = make([]msEntry, lines+2)
		c.slab[0].in = 0xff
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
	s.AddRuns(one[:], nil)
}

// AddBatch processes a batch of references (trace.BatchSink): every
// reference is a run of its own.
func (s *multiSim) AddBatch(refs []trace.Ref) { s.AddRuns(refs, nil) }

// AddRuns processes a batch of references cut into runs
// (trace.RunSink); the slices are treated as read-only. Lines shorter
// than a run's block ignore the runs.
//
//rapwam:hotpath
func (s *multiSim) AddRuns(refs []trace.Ref, runs []int32) {
	if s.cfg.LineWords < trace.RunWords {
		runs = nil
	}
	npes, shift, all, alloc := s.cfg.PEs, s.lineShift, s.all, s.alloc
	// The three protocol branches (see the file comment).
	snoops := s.dir != nil && s.cfg.Protocol == WriteInBroadcast
	hybrid := s.cfg.Protocol == Hybrid
	var nRefs, nWrites int64
	k := 1 // the run's length; runs[0] is its start
	for i := 0; i < len(refs); i += k {
		r := refs[i]
		if len(runs) > 1 {
			k = int(runs[1] - runs[0])
			runs = runs[1:]
		}
		rep := int64(k - 1) // the run's references after the first
		pe := int(r.PE)
		if pe >= npes {
			continue
		}
		line := int32(r.Addr >> shift)
		nRefs += int64(k)
		c := &s.pes[pe]
		// The head first: a run is usually the PE's next word of its
		// last line, even after other PEs' references. An empty list's
		// head is the sentinel, whose line may match, but then e = 0
		// is the right answer.
		e := c.mru
		if c.slab[e].line != line {
			if e = c.idx.lookup(line); e != 0 {
				c.promote(e, &s.groups)
			}
		}
		var in uint8
		if e != 0 {
			in = c.slab[e].in
		}
		miss := all &^ in // Q
		if r.Op == trace.OpRead {
			// The first read leaves the line in every slot and most
			// recently used: the rest of the run only count.
			if miss == 0 {
				continue
			}
			s.readMiss[miss]++
			var supplied uint8
			if snoops {
				supplied = s.snoop(pe, line, miss, false)
			}
			e = s.fill(c, e, line, miss)
			ent := &c.slab[e]
			ent.mod &^= miss
			ent.shr = ent.shr&^miss | supplied
			continue
		}
		nWrites += int64(k)
		fills, words := miss&alloc, miss&^alloc
		if hybrid && r.Obj.Global() {
			// Written through in every slot; the bus word invalidates
			// remote copies and never dirties a present line. The rest
			// of the run writes through too, with nothing left to
			// invalidate, and misses where the first did not allocate.
			s.globalWords += int64(k)
			if s.dir != nil {
				s.snoop(pe, line, 0, true)
			}
			if miss != 0 {
				s.writeMiss[miss]++
				s.writeMiss[words] += rep
				if fills != 0 {
					e = s.fill(c, e, line, fills)
					c.slab[e].mod &^= fills
				}
			}
			continue
		}
		// Write-in broadcast, or hybrid Local data and copyback: never Shared.
		hit := in
		shared := c.slab[e].shr & hit // hit is empty when e is the sentinel
		if miss == 0 && shared == 0 {
			// Private in every slot: silent, and so is the rest of the
			// run.
			c.slab[e].mod = all
			continue
		}
		for b := shared; b != 0; b &= b - 1 {
			s.sharedHits[bits.TrailingZeros8(b)]++
		}
		if snoops {
			// No remote copy survives the write; the allocating slots
			// that miss fetch first, so dirty remote copies write back
			// there.
			s.snoop(pe, line, fills, true)
		}
		if miss != 0 {
			// The rest of the run misses the slots the first did not
			// fill, with no remote copy left to snoop.
			s.writeMiss[miss]++
			s.writeMiss[words] += rep
			s.wordMiss[words] += int64(k)
			if fills != 0 {
				e = s.fill(c, e, line, fills)
				hit |= fills
			}
		}
		if e != 0 {
			// Dirty and private wherever resident: the rest of the
			// run is silent there.
			ent := &c.slab[e]
			ent.mod |= hit
			ent.shr &^= hit
		}
	}
	s.refs += nRefs
	s.writes += nWrites
}

// stats assembles slot k's statistics from the histograms.
func (s *multiSim) stats(k int) Stats {
	st := Stats{Refs: s.refs, Reads: s.refs - s.writes, Writes: s.writes}
	st.WriteBacks = s.writeBacks[k]
	st.WriteThroughs = s.globalWords
	for q := range 1 << len(s.caps) {
		if q>>k&1 != 0 {
			st.ReadMisses += s.readMiss[q]
			st.WriteMisses += s.writeMiss[q]
			st.WriteThroughs += s.wordMiss[q]
			st.Invalidations += s.invalidated[q]
		}
	}
	st.LineFills = st.ReadMisses
	if s.alloc>>k&1 != 0 {
		st.LineFills += st.WriteMisses
	}
	st.BusWords = (st.LineFills+st.WriteBacks)*int64(s.cfg.LineWords) + st.WriteThroughs + s.sharedHits[k]
	return st
}

// snoop visits every cache other than pe that holds line. Each holder
// first supplies the line at the slots in fetch that it holds — writing
// back where it is dirty, staying clean and Shared there — and is then
// removed whole if invalidate is set. It returns the slots some holder
// supplied.
func (s *multiSim) snoop(pe int, line int32, fetch uint8, invalidate bool) (supplied uint8) {
	for hs := s.dir.holders(line) &^ (1 << uint(pe)); hs != 0; hs &= hs - 1 {
		c := &s.pes[bits.TrailingZeros64(hs)]
		e := c.idx.lookup(line)
		ent := &c.slab[e]
		if x := fetch & ent.in; x != 0 {
			for b := x & ent.mod; b != 0; b &= b - 1 {
				s.writeBacks[bits.TrailingZeros8(b)]++
			}
			ent.mod &^= x
			ent.shr |= x
			supplied |= x
		}
		if invalidate {
			s.invalidated[ent.in]++
			c.remove(e)
		}
	}
	return supplied
}

// fill makes line resident in the slots of f, which do not hold it —
// a new entry when e is 0, a line the PE does not hold — evicting the
// LRU line of each slot that overflows, and returns the line's entry.
// An existing entry is already at the list head (the kernels promote
// before they fill). The caller sets the mod and shr bits of the
// filled slots.
func (s *multiSim) fill(c *msCache, e, line int32, f uint8) int32 {
	fresh := e == 0
	if fresh {
		e = c.free
		c.free = c.slab[e].next
		c.slab[e].line = line
		c.slab[e].in = 0
		c.pushFront(e)
	}
	c.slab[e].in |= f
	for b := f; b != 0; b &= b - 1 {
		k := bits.TrailingZeros8(b)
		if c.cnt[k] < s.caps[k] {
			if c.cnt[k] == 0 {
				c.lru[k] = e
			}
			c.cnt[k]++
			continue
		}
		// Slot k is full: its LRU line v leaves it. The walk ends at e
		// at the latest.
		v := c.lru[k]
		if v == 0 {
			panic(staleFinger[k])
		}
		ve := &c.slab[v]
		if ve.mod>>uint(k)&1 != 0 {
			s.writeBacks[k]++
		}
		c.lru[k] = c.towardHead(ve.prev, k)
		if ve.in &^= 1 << uint(k); ve.in == 0 {
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

// staleFinger is fill's panic when a full slot's LRU finger is the list
// sentinel, which only a finger-repair bug can leave there: evicting the
// sentinel would clear its in bits, and the next towardHead would walk
// the list forever. A constant per slot, so that a broken structure
// fails at once, naming the slot.
var staleFinger = [maxSizes]string{
	"cache: multi-size slot 0 is full but its LRU finger is the list sentinel",
	"cache: multi-size slot 1 is full but its LRU finger is the list sentinel",
	"cache: multi-size slot 2 is full but its LRU finger is the list sentinel",
	"cache: multi-size slot 3 is full but its LRU finger is the list sentinel",
	"cache: multi-size slot 4 is full but its LRU finger is the list sentinel",
	"cache: multi-size slot 5 is full but its LRU finger is the list sentinel",
	"cache: multi-size slot 6 is full but its LRU finger is the list sentinel",
	"cache: multi-size slot 7 is full but its LRU finger is the list sentinel",
}

// towardHead returns the nearest entry at or before f, toward the list
// head, that is resident in slot k, or 0 when the walk reaches the
// sentinel.
func (c *msCache) towardHead(f int32, k int) int32 {
	for c.slab[f].in>>uint(k)&1 == 0 {
		f = c.slab[f].prev
	}
	return f
}

// promote moves a resident entry to the list head. Where it was a
// slot's LRU line the finger passes to the next line of that slot
// toward the head; if there is none the entry is the slot's only line
// and stays its LRU. Each policy group's slots are repaired from the
// smallest up, and only while the entry is their LRU line (the file
// comment's (iii)).
func (c *msCache) promote(e int32, groups *[2]uint8) {
	ent := &c.slab[e]
	for _, g := range groups {
		for b := ent.in & g; b != 0; b &= b - 1 {
			k := bits.TrailingZeros8(b)
			if c.lru[k] != e {
				break
			}
			if f := c.towardHead(ent.prev, k); f != 0 {
				c.lru[k] = f
			}
		}
	}
	c.unlink(e)
	c.pushFront(e)
}

// remove drops a resident entry from every slot (an invalidation).
func (c *msCache) remove(e int32) {
	ent := &c.slab[e]
	for b := ent.in; b != 0; b &= b - 1 {
		k := bits.TrailingZeros8(b)
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
