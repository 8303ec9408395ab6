package cache

import (
	"math"
	"math/bits"
)

// pageIndex is a simulator's residency index: one per Sim or multiSim,
// shared by its PEs. It maps a line to each PE's slab handle for it and
// to the presence mask of the PEs holding it, by direct indexing rather
// than hashing, so a lookup is three dependent loads and never probes.
//
// Lines are grouped into pages of pageLines consecutive lines. A page
// with a line resident in any PE owns a group: one mask page and one
// slot per PE (the PE count rounded up to a power of two), which holds
// the first handle of that PE's handle page in hs. top maps a page to
// its group's first slot, the group number premultiplied by the slot
// count, and a PE gets a handle page only when it first holds a line
// there, so a page one PE uses privately costs one handle page, not
// one per PE. Group 0 is never handed out and its slots name the zero
// page, hs[0:pageLines], which is never written, so a lookup where the
// page or the PE's handle page is absent reads handle 0 and mask 0
// without a branch. Both slabs begin with their list sentinels, so
// handle 0 is never an entry and means "not resident" everywhere.
//
// A group is made on its page's first fill and released, handle pages
// and all, when its last holder leaves (live counts the page's lines
// with a nonzero mask), so the index holds about as many groups as
// pages with resident lines, not the trace's whole footprint. Released
// handles and masks are already zero, and the next new page reuses
// them. top is direct for the first maxDirectPages pages, 2^24 lines:
// the engine's whole address space at four-word lines for any PE count
// (its layouts start at word 0). It grows by doubling to the highest
// page filled; pages above go through far, so a stray reference near
// the top of the 32-bit address space costs a map entry and one group,
// not a top level spanning it.
type pageIndex struct {
	top   []int32          // direct page → its group's first slot; 0 = none
	far   map[uint32]int32 // the same for pages >= maxDirectPages
	slots []int32          // group g, PE pe: first handle of its page in hs, at g<<peShift + pe
	hs    []int32          // handle pages; page 0 is the zero page
	masks []uint64         // group g's mask page at g<<pageShift
	// live counts each group's held lines; a released group's entry
	// links the free list instead, as −(next free group).
	live     []int32
	free     int32 // first released group; 0 = none
	freePage int32 // first released handle page, linked through its handle 0; 0 = none
	peShift  uint  // log2 of the slots per group
	views    []*pageView
}

const (
	pageShift      = 7
	pageLines      = 1 << pageShift
	pageMask       = pageLines - 1
	maxDirectPages = 1 << 17 // a 512 KB top level at most
)

// pageView is one PE's side of the index: the store's lookup path. It
// carries copies of the index's slice headers, which the index
// refreshes whenever one moves, so a lookup loads no index header.
type pageView struct {
	top, slots, hs []int32
	pe             int
	ix             *pageIndex
}

func newPageIndex(pes int) *pageIndex {
	peShift := uint(bits.Len(uint(pes - 1)))
	return &pageIndex{
		slots:   make([]int32, 1<<peShift),
		hs:      make([]int32, pageLines),
		masks:   make([]uint64, pageLines),
		live:    make([]int32, 1),
		peShift: peShift,
	}
}

// attach makes v pe's view of the index.
func (ix *pageIndex) attach(v *pageView, pe int) {
	v.pe, v.ix = pe, ix
	ix.views = append(ix.views, v)
	ix.refresh()
}

// refresh hands the views the index's current slice headers.
func (ix *pageIndex) refresh() {
	for _, v := range ix.views {
		v.top, v.slots, v.hs = ix.top, ix.slots, ix.hs
	}
}

// group returns the first slot of line's group, 0 if its page has none.
// Direct pages beyond top are never in far.
func (ix *pageIndex) group(line int32) int32 {
	p := uint32(line) >> pageShift
	if p < uint32(len(ix.top)) {
		return ix.top[p]
	}
	return ix.far[p]
}

// lookup returns the PE's handle for line, or 0 if it does not hold it.
func (v *pageView) lookup(line int32) int32 {
	p := uint32(line) >> pageShift
	var g int32
	if p < uint32(len(v.top)) {
		g = v.top[p]
	} else {
		g = v.ix.far[p]
	}
	return v.hs[int(v.slots[int(g)+v.pe])+int(line&pageMask)]
}

// set maps line, which the PE must not hold, to handle h and adds the
// PE to the line's holders.
func (v *pageView) set(line, h int32) {
	ix := v.ix
	g := ix.group(line)
	if g == 0 {
		g = ix.newGroup(uint32(line) >> pageShift)
	}
	slot := int(g) + v.pe
	if ix.slots[slot] == 0 {
		ix.slots[slot] = ix.newPage() // newPage leaves slots alone
	}
	i := int(line & pageMask)
	ix.hs[int(ix.slots[slot])+i] = h
	m := &ix.masks[int(g>>ix.peShift)<<pageShift+i]
	if *m == 0 {
		ix.live[g>>ix.peShift]++
	}
	*m |= 1 << uint(v.pe)
}

// clear unmaps line, which the PE must hold, and drops the PE from its
// holders, releasing the page's group when that was its last holder.
func (v *pageView) clear(line int32) {
	ix := v.ix
	g := ix.group(line)
	i := int(line & pageMask)
	ix.hs[int(ix.slots[int(g)+v.pe])+i] = 0
	m := &ix.masks[int(g>>ix.peShift)<<pageShift+i]
	if *m &^= 1 << uint(v.pe); *m != 0 {
		return
	}
	n := g >> ix.peShift // the group number
	if ix.live[n]--; ix.live[n] != 0 {
		return
	}
	if p := uint32(line) >> pageShift; p < maxDirectPages {
		ix.top[p] = 0
	} else {
		delete(ix.far, p)
	}
	for pe := range 1 << ix.peShift {
		if page := ix.slots[int(g)+pe]; page != 0 {
			ix.hs[page] = ix.freePage
			ix.freePage = page
			ix.slots[int(g)+pe] = 0
		}
	}
	ix.live[n] = -ix.free
	ix.free = n
}

// newGroup gives page p a group, reusing a released one if there is
// one, and returns its first slot.
func (ix *pageIndex) newGroup(p uint32) int32 {
	g := ix.free
	if g != 0 {
		ix.free = -ix.live[g]
		ix.live[g] = 0
	} else {
		g = int32(len(ix.live))
		ix.live = append(ix.live, 0)
		ix.slots = append(ix.slots, make([]int32, 1<<ix.peShift)...)
		ix.masks = append(ix.masks, make([]uint64, pageLines)...)
	}
	first := g << ix.peShift
	if p < maxDirectPages {
		if p >= uint32(len(ix.top)) {
			top := make([]int32, 1<<bits.Len32(p))
			copy(top, ix.top)
			ix.top = top
		}
		ix.top[p] = first
	} else {
		if ix.far == nil {
			ix.far = make(map[uint32]int32)
		}
		ix.far[p] = first
	}
	ix.refresh()
	return first
}

// newPage returns the first handle of a zeroed handle page, reusing a
// released one if there is one.
func (ix *pageIndex) newPage() int32 {
	page := ix.freePage
	if page != 0 {
		ix.freePage = ix.hs[page]
		ix.hs[page] = 0
		return page
	}
	if len(ix.hs) > math.MaxInt32-pageLines {
		panic("cache: residency index exceeds 2^31 handles")
	}
	page = int32(len(ix.hs))
	ix.hs = append(ix.hs, make([]int32, pageLines)...)
	ix.refresh()
	return page
}

// bytes is the index's footprint at capacity: top level, slots, handle
// and mask pages, live counts, and 8 bytes per far entry.
func (ix *pageIndex) bytes() int {
	return 4*(cap(ix.top)+cap(ix.slots)+cap(ix.hs)+cap(ix.live)) + 8*(cap(ix.masks)+len(ix.far))
}
