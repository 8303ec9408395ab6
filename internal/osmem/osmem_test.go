package osmem

import (
	"testing"
	"unsafe"
)

// TestMapIsZeroedAndWordAligned: a region of any length reads as zeros,
// takes writes at both ends, and starts on an 8-byte boundary, which
// internal/mem's []Word view needs — under -race and off unix too, where
// the region is heap.
func TestMapIsZeroedAndWordAligned(t *testing.T) {
	for _, n := range []int{1, 7, 4095, 4096, 1<<20 + 3} {
		b, err := Map(n)
		if err != nil {
			t.Fatalf("Map(%d): %v", n, err)
		}
		if len(b) != n {
			t.Fatalf("Map(%d) returned %d bytes", n, len(b))
		}
		if p := uintptr(unsafe.Pointer(&b[0])); p%8 != 0 {
			t.Errorf("Map(%d) starts at %#x, not on a word boundary", n, p)
		}
		for i, c := range b {
			if c != 0 {
				t.Fatalf("Map(%d): byte %d is %#x, want 0", n, i, c)
			}
		}
		b[0], b[n-1] = 1, 2
		Unmap(b)
	}
}
