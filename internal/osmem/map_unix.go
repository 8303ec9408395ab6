//go:build unix && !race

package osmem

import (
	"fmt"
	"syscall"
)

// Map returns n (> 0) zeroed bytes of anonymous, private memory. There
// is deliberately no fallback to the Go heap when the mapping is
// refused: the caller gets the error.
func Map(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// Unmap gives back a region Map returned, whole. Munmap fails only for
// a range that is not a live mapping — one unmapped already, or one Map
// did not return — and only a bug in the caller can pass one, so Unmap
// panics rather than let the slip pass.
func Unmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("osmem: unmapping %d bytes: %v", len(b), err))
	}
}
