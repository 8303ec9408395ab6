package cache

// snoopDir is the simulator-wide snoop directory: for every line
// resident in at least one cache it records a presence bitmask of the
// holding PEs. Coherency actions (invalidateOthers, updateOthers, the
// coherent-fetch snoop-and-demote sweep) consult the mask and then
// visit only the actual holders, replacing the O(PEs) per-snoop scan of
// every cache with a popcount plus targeted lookups.
//
// The directory is an acceleration structure, not ground truth: the
// per-PE stores still hold the resident lines and their states, and the
// Sim keeps the directory exactly in sync on every insert, eviction and
// invalidation. It is keyed by line through the same open-addressing
// scheme as the line tables (power of two, linear probing, backshift
// deletion) and sized once at construction for the worst case of every
// cache full, so it never allocates during simulation. Each slot
// interleaves the line key with its presence mask — one probe touches
// one cache line — and a zero mask marks the slot empty; entries are
// deleted the moment their last holder drops the line.
type snoopDir struct {
	table []dirSlot
	mask  uint32 // table size - 1
}

// dirSlot is one open-addressing slot: the line key and the presence
// bitmask of the PEs holding it (0 = slot empty).
type dirSlot struct {
	line int32
	_    uint32 // padding: keeps slots 16 bytes, aligned loads
	mask uint64
}

// maxDirPEs is the presence-bitmask width; Config.Validate rejects
// machines with more PEs.
const maxDirPEs = 64

func newSnoopDir(pes, linesPerCache int) *snoopDir {
	size := tableSizeFor(pes * linesPerCache)
	return &snoopDir{
		table: make([]dirSlot, size),
		mask:  size - 1,
	}
}

// find returns the table slot index for line, or -1 if no cache holds
// it.
func (d *snoopDir) find(line int32) int32 {
	table := d.table
	if len(table) == 0 {
		return -1
	}
	mask := uint32(len(table) - 1)
	i := hashLine(line) & mask
	for {
		s := table[i]
		if s.line == line && s.mask != 0 {
			return int32(i)
		}
		if s.mask == 0 {
			return -1
		}
		i = (i + 1) & mask
	}
}

// holders returns the presence bitmask for line (0 if uncached).
func (d *snoopDir) holders(line int32) uint64 {
	if i := d.find(line); i >= 0 {
		return d.table[i].mask
	}
	return 0
}

// holdersAt returns the presence bitmask stored at slot i.
func (d *snoopDir) holdersAt(i int32) uint64 { return d.table[i].mask }

// add records that pe now holds line.
func (d *snoopDir) add(pe int, line int32) {
	i := hashLine(line) & d.mask
	for {
		s := &d.table[i]
		if s.mask == 0 {
			s.line = line
			s.mask = 1 << uint(pe)
			return
		}
		if s.line == line {
			s.mask |= 1 << uint(pe)
			return
		}
		i = (i + 1) & d.mask
	}
}

// remove records that pe dropped line, deleting the entry when the last
// holder goes.
func (d *snoopDir) remove(pe int, line int32) {
	i := d.find(line)
	if i < 0 {
		return
	}
	d.table[i].mask &^= 1 << uint(pe)
	if d.table[i].mask == 0 {
		d.delete(uint32(i))
	}
}

// keepOnlyAt clears every holder bit at slot i except pe's (the bulk
// form used by invalidateOthers: the caller already found the slot).
func (d *snoopDir) keepOnlyAt(i int32, pe int) {
	d.table[i].mask &= 1 << uint(pe)
	if d.table[i].mask == 0 {
		d.delete(uint32(i))
	}
}

// delete empties slot i with backshift deletion (tombstone-free).
func (d *snoopDir) delete(i uint32) {
	for {
		d.table[i] = dirSlot{}
		j := i
		for {
			j = (j + 1) & d.mask
			s := d.table[j]
			if s.mask == 0 {
				return
			}
			k := hashLine(s.line) & d.mask
			if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
				d.table[i] = s
				i = j
				break
			}
		}
	}
}
