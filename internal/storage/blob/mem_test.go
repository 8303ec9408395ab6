package blob

import (
	"bytes"
	"io"
	"testing"
)

// TestMemStoresExactSize: an object written in pieces, then patched
// after a seek back to its start as the trace codec patches its header,
// is stored at its exact size, not in the writer's doubled buffer, and
// Get returns the bytes written.
func TestMemStoresExactSize(t *testing.T) {
	m := NewMem()
	want := make([]byte, 300_000)
	for i := range want {
		want[i] = byte(i * 7)
	}
	err := m.Put("obj", func(w io.Writer) error {
		for off := 0; off < len(want); off += 4096 {
			if _, err := w.Write(want[off:min(off+4096, len(want))]); err != nil {
				return err
			}
		}
		if _, err := w.(io.Seeker).Seek(0, io.SeekStart); err != nil {
			return err
		}
		_, err := w.Write(want[:8])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if data := m.objects["obj"].data; len(data) != len(want) || cap(data) != len(data) {
		t.Errorf("stored %d bytes in a buffer of %d, want %d in %d", len(data), cap(data), len(want), len(want))
	}
	rc, err := m.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got, err := io.ReadAll(rc); err != nil || !bytes.Equal(got, want) {
		t.Errorf("Get returned %d bytes (%v), not the %d written", len(got), err, len(want))
	}
}
