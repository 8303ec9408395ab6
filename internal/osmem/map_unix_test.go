//go:build unix && !race

package osmem

import (
	"strings"
	"testing"
)

// TestDoubleUnmapPanics: unmapping a region a second time is a bug in
// the caller, and Unmap says so with a panic instead of returning as if
// it had given the region back.
func TestDoubleUnmapPanics(t *testing.T) {
	b, err := Map(4096)
	if err != nil {
		t.Fatal(err)
	}
	Unmap(b)
	defer func() {
		v := recover()
		if s, _ := v.(string); !strings.HasPrefix(s, "osmem: unmapping 4096 bytes: ") {
			t.Fatalf("second Unmap recovered %v, want the osmem panic", v)
		}
	}()
	Unmap(b)
}
