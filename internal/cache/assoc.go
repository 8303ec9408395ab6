package cache

// assocCache is one PE's cache: S = lines / ways sets, each with perfect
// LRU replacement among its ways. The fully associative cache is the
// one-set case, which is the paper's cache model ("Caches are modeled
// as fully associative memories with perfect LRU replacement"); the
// N-way caches of the associativity ablation are the same store with
// more sets.
//
// The layout is a flat preallocated slab of entries addressed by int32
// index. Slab slots 0…S−1 are the per-set LRU list sentinels and the
// entries start at S, so no entry has index 0 and 0 doubles as the
// "not resident" handle. Residency, for every set, is the PE's view of
// the page index the simulator's PEs share (store.go): a line's handle
// is read by direct page indexing, not a hash probe. LRU order is an
// intrusive doubly-linked list per set, threaded through the slab by
// index; a per-set count bounds each set at ways, and one free list
// serves them all. Promoting an entry that is already
// most-recently-used is a no-op (the common case on traces, where
// consecutive words of a line are referenced back to back). The slab,
// counts and free list are sized once at construction, and the index
// reuses released pages, so a warm cache replays without allocating.
type assocCache struct {
	// slab[s] for s < S is set s's sentinel (slab[s].next = its MRU,
	// slab[s].prev = its LRU); slab[S:] are the entries.
	slab []slabEntry
	idx  pageView
	// mru is the entry most recently pushed to the front of any set.
	// An entry equal to it is at the front of its own set, so the
	// replay loop's already-MRU check is one header-field load
	// instead of a slab access.
	mru     int32
	setMask int32   // S - 1
	ways    int32   // lines per set
	cnt     []int32 // resident lines per set
	free    []int32 // slab indices not currently resident
}

type slabEntry struct {
	line       int32
	prev, next int32
	st         state
}

// newAssocCache builds PE pe's cache of lines lines in sets of ways,
// over its view of ix; ways 0 means one set (fully associative). ways
// must divide lines into a power-of-two number of sets (Config.Validate
// checks it).
func newAssocCache(lines, ways int, ix *pageIndex, pe int) *assocCache {
	if ways == 0 {
		ways = lines
	}
	sets := lines / ways
	c := &assocCache{
		slab:    make([]slabEntry, sets+lines),
		setMask: int32(sets - 1),
		ways:    int32(ways),
		cnt:     make([]int32, sets),
		free:    make([]int32, 0, lines),
	}
	ix.attach(&c.idx, pe)
	for s := range sets {
		c.slab[s].prev, c.slab[s].next = int32(s), int32(s)
	}
	for e := sets + lines - 1; e >= sets; e-- {
		c.free = append(c.free, int32(e))
	}
	return c
}

// lookup returns line's handle, or 0 if it is not resident, without
// disturbing LRU order (a remote snoop).
func (c *assocCache) lookup(line int32) int32 { return c.idx.lookup(line) }

// relink moves resident entry e to the front of its set s; the replay
// loop inlines it behind its own MRU check. The caller passes s:
// deriving it here from the entry's line would push relink over the
// inlining budget.
func (c *assocCache) relink(e, s int32) {
	c.unlink(e)
	c.pushFront(e, s)
}

// unlink does not refresh c.mru: every caller either pushes an entry to
// the front right after (which sets it) or frees e (invalidate), and a
// freed entry is not looked up again until insert reuses it.
func (c *assocCache) unlink(e int32) {
	p, n := c.slab[e].prev, c.slab[e].next
	c.slab[p].next = n
	c.slab[n].prev = p
}

func (c *assocCache) pushFront(e, s int32) {
	slab := c.slab // one load of the slice header, not one per store
	first := slab[s].next
	slab[e].next = first
	slab[e].prev = s
	slab[first].prev = e
	slab[s].next = e
	c.mru = e
}

// insert adds line, which must not be resident (the simulator inserts
// only after a confirmed miss), in the given state, evicting its set's
// LRU entry if the set is full. The victim's identity and pre-eviction
// state are returned by value, so no pointer into the store escapes.
func (c *assocCache) insert(line int32, st state) (h, victimLine int32, victimSt state, evicted bool) {
	s := line & c.setMask
	var e int32
	// A full cache has an empty free list, so once it is warm a fully
	// associative miss never reads the count.
	if len(c.free) > 0 && c.cnt[s] < c.ways {
		e = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.cnt[s]++
	} else {
		// Evict the set's least recently used entry.
		e = c.slab[s].prev
		c.unlink(e)
		c.idx.clear(c.slab[e].line)
		victimLine, victimSt, evicted = c.slab[e].line, c.slab[e].st, true
	}
	c.slab[e].line = line
	c.slab[e].st = st
	c.idx.set(line, e)
	c.pushFront(e, s)
	return e, victimLine, victimSt, evicted
}

// invalidate removes line if present, reporting whether it was held.
func (c *assocCache) invalidate(line int32) bool {
	e := c.idx.lookup(line)
	if e == 0 {
		return false
	}
	c.unlink(e)
	c.idx.clear(line)
	c.cnt[line&c.setMask]--
	c.free = append(c.free, e)
	return true
}

// len returns the number of resident lines.
func (c *assocCache) len() int { return cap(c.free) - len(c.free) }

// forEach visits every resident entry, set by set, most recent first.
// The callback may change entry states but must not insert or
// invalidate.
func (c *assocCache) forEach(f func(h int32)) {
	for s := range c.cnt {
		for e := c.slab[s].next; e != int32(s); e = c.slab[e].next {
			f(e)
		}
	}
}
