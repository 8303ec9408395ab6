//go:build !unix || race

package osmem

import "unsafe"

// Map returns n (> 0) zeroed bytes of Go heap. They are allocated as
// 8-byte words so that internal/mem can view them as its []Word.
func Map(n int) ([]byte, error) {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n), nil
}

// Unmap leaves the region to the collector.
func Unmap([]byte) {}
