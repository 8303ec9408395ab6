package cache

// store is the per-PE line container: fully associative (the paper's
// model) or set-associative (the hardware-realism extension).
//
// The interface is allocation-free by construction: resident lines are
// addressed by int32 handles into preallocated flat storage rather than
// by pointers, and eviction victims are returned by value. A handle is
// valid until the next insert or invalidate on the same store; access
// may relocate an entry and therefore returns the (possibly new)
// handle.
type store interface {
	// access looks the line up and, on a hit, promotes it to
	// most-recently-used, returning its handle; it returns -1 on a miss.
	access(line int32) int32
	// peek looks the line up without disturbing LRU order (a remote
	// snoop), returning its handle or -1.
	peek(line int32) int32
	// state returns the coherency state of a resident entry.
	state(h int32) state
	// setState updates the coherency state of a resident entry.
	setState(h int32, st state)
	// insert adds the line in the given state, evicting the LRU entry
	// of its (set-)associativity class if full. The line must not be
	// resident (the simulator inserts only after a confirmed miss, so
	// insert never re-probes). The victim's identity and pre-eviction
	// state are returned by value — no pointer into the store escapes,
	// so nothing is forced onto the heap.
	insert(line int32, st state) (h, victimLine int32, victimSt state, evicted bool)
	// invalidate removes the line if present, reporting whether it was
	// held.
	invalidate(line int32) bool
	// len returns the number of resident lines.
	len() int
	// forEach visits every resident entry by handle. The callback may
	// change entry states but must not insert or invalidate.
	forEach(f func(h int32))
}

// hashLine is the multiplicative (Fibonacci) hash shared by the flat
// stores and the snoop directory. The tables index with the product's
// low bits, which depend only on the line number's low bits: the odd
// multiplier permutes them, so any run of consecutive lines no longer
// than the table lands in distinct slots. That is the point — the
// traces are runs of adjacent lines (stack frames, heap cells), and
// they probe without colliding; the line's high bits are deliberately
// not mixed in. An avalanche finish (h ^ h>>15) measured 25 % slower
// through the single-size kernels (BenchmarkReplaySteadyState) and 9 %
// through the multi-size one (BenchmarkReplayFigure4Cell).
func hashLine(line int32) uint32 {
	return uint32(line) * 0x9E3779B1
}

// tableSizeFor returns the open-addressing table size for n resident
// entries: the next power of two at or above 2n, so the load factor
// stays <= 0.5 and linear probe chains stay short.
func tableSizeFor(n int) uint32 {
	size := uint32(8)
	for size < 2*uint32(n) {
		size *= 2
	}
	return size
}
