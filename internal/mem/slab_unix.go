//go:build unix && !race

package mem

import (
	"syscall"
	"unsafe"
)

// newSlab maps n words of anonymous, private memory. The kernel backs
// a page with a zeroed frame on first touch, so an engine that uses
// 2–3 % of its layout pays for 2–3 % of it: its page table is the
// sparse structure. There is deliberately no fallback to the Go heap
// when the mapping is refused — the caller gets the error.
func newSlab(n int) ([]Word, error) {
	b, err := syscall.Mmap(-1, 0, n*wordBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*Word)(unsafe.Pointer(&b[0])), n), nil
}

// freeSlab unmaps a slab newSlab returned. Munmap fails only for a
// range that is not a mapping, which newSlab's contract rules out.
func freeSlab(words []Word) {
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*wordBytes))
}
