package cache

// lineTable is the open-addressing map from resident line to slab index
// that both per-PE structures use: the single-size store (assocCache)
// and the multi-size one (msCache). It is a power of two, probed
// linearly, and kept at load factor <= 0.5. Each slot carries the line
// key beside the slab index, so a probe is a single 8-byte load with no
// dependent slab access. Deletion backshifts the probe chain, so there
// are no tombstones and chains never degrade over a run. Both slabs
// begin with their list sentinels, so slab index 0 is never an entry:
// 0 marks an empty slot and is lookup's miss value.
type lineTable struct {
	slots []tableSlot
	mask  uint32 // len(slots) - 1
}

// tableSlot is one open-addressing slot: the line key and the slab
// index it maps to (0 = empty slot).
type tableSlot struct {
	line int32
	idx  int32
}

// newLineTable sizes a table for n resident lines.
func newLineTable(n int) lineTable {
	size := tableSizeFor(n)
	return lineTable{slots: make([]tableSlot, size), mask: size - 1}
}

// lookup returns the slab index of line, or 0 if it is not resident.
// An empty slot's line key is 0 as well, so one compare decides both
// ways out of the probe.
func (t *lineTable) lookup(line int32) int32 {
	// The mask is rederived from the local slice length so the compiler
	// can prove i < len(slots) and drop the bounds check in the probe
	// loop.
	slots := t.slots
	if len(slots) == 0 {
		return 0
	}
	mask := uint32(len(slots) - 1)
	i := hashLine(line) & mask
	for {
		s := slots[i]
		if s.line == line || s.idx == 0 {
			return s.idx
		}
		i = (i + 1) & mask
	}
}

// insert maps line, which must not be present, to slab index e in the
// first empty probe slot.
func (t *lineTable) insert(line, e int32) {
	i := hashLine(line) & t.mask
	for t.slots[i].idx != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = tableSlot{line: line, idx: e}
}

// delete removes line, which must be present, using backshift deletion:
// later probe-chain entries whose home slot lies outside the gap are
// moved back into it.
func (t *lineTable) delete(line int32) {
	i := hashLine(line) & t.mask
	for t.slots[i].line != line || t.slots[i].idx == 0 {
		i = (i + 1) & t.mask
	}
	for {
		t.slots[i] = tableSlot{}
		j := i
		for {
			j = (j + 1) & t.mask
			s := t.slots[j]
			if s.idx == 0 {
				return
			}
			k := hashLine(s.line) & t.mask
			// Move s back to i if its home slot k is cyclically
			// outside (i, j].
			if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
				t.slots[i] = s
				i = j
				break
			}
		}
	}
}

// hashLine is the multiplicative (Fibonacci) hash shared by the line
// tables and the snoop directory. The tables index with the product's
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
