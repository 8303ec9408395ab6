//go:build !unix || race

package mem

// newSlab is the portable slab: a zeroed slice in the Go heap. Under
// -race this is the build that runs even on unix, because the detector
// only instruments heap words — the sharded suites' cross-goroutine
// word accesses would be invisible to it inside a mapping.
func newSlab(n int) ([]Word, error) { return make([]Word, n), nil }

// freeSlab leaves the slab to the collector.
func freeSlab([]Word) {}
