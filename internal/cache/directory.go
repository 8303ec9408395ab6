package cache

// The snoop directory is the mask side of a simulator's residency index
// (store.go): for every line resident in at least one cache, a presence
// bitmask of the holding PEs. Coherency actions (invalidateOthers,
// updateOthers, the coherent-fetch snoop-and-demote sweep, multiSim's
// snoop) read the mask and then visit only the actual holders,
// replacing the O(PEs) per-snoop scan of every cache with a popcount
// plus targeted lookups.
//
// The directory is an acceleration structure, not ground truth: the
// per-PE stores still hold the resident lines and their states. It
// needs no upkeep of its own: the index sets a PE's bit when that PE's
// store maps the line and clears it when the store unmaps it, on every
// insert, eviction and invalidation, so the masks match residency
// exactly. A mask lives in the line's page group beside the PEs'
// handles; a line no cache holds reads the zero mask.

// maxDirPEs is the presence-bitmask width; Config.Validate rejects
// machines with more PEs.
const maxDirPEs = 64

// holders returns the presence bitmask for line (0 if uncached).
func (ix *pageIndex) holders(line int32) uint64 {
	return ix.masks[int(ix.group(line)>>ix.peShift)<<pageShift+int(line&pageMask)]
}
