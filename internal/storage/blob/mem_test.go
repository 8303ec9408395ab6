package blob

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"
)

// TestMemReaderOutlivesObject: a reader Get returned keeps reading the
// bytes it was opened on after its object is deleted, overwritten,
// renamed over or swept, and after the whole Mem is dropped (as
// bench.Runner.DropTraces drops its private store), through forced
// collections. Once the readers are gone too, the finalizers give every
// mapped page back.
func TestMemReaderOutlivesObject(t *testing.T) {
	before := memBytes.Load()
	// Every object has its own bytes: pages mapped after an early unmap
	// may land at the old addresses, and must not pass for the old pages.
	content := func(seed int) []byte {
		b := make([]byte, 3<<20+12345)
		for i := range b {
			b[i] = byte(i*7 + i>>12 + seed*31)
		}
		return b
	}
	other := bytes.Repeat([]byte("other "), 1000)
	// readers[i] was opened on an object holding content(i).
	readers := func() []io.ReadCloser {
		m := NewMem()
		put := func(name string, data []byte) {
			t.Helper()
			if err := m.Put(name, func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		var rs []io.ReadCloser
		open := func(name string) {
			t.Helper()
			put(name, content(len(rs)))
			rc, err := m.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, rc)
		}
		open("deleted")
		if err := m.Delete("deleted"); err != nil {
			t.Fatal(err)
		}
		open("overwritten")
		put("overwritten", other)
		open("renamed")
		put("source", other)
		if err := m.Rename("source", "renamed"); err != nil {
			t.Fatal(err)
		}
		open(QuarantinePrefix + "swept")
		if n := m.Sweep(-time.Hour); n != 1 {
			t.Fatalf("swept %d objects, want 1", n)
		}
		open("dropped with the store")
		return rs
	}()
	runtime.GC()
	runtime.GC()
	for i, rc := range readers {
		want := content(i)
		got, err := io.ReadAll(rc)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("reader %d: read %d bytes (%v), not the %d written", i, len(got), err, len(want))
		}
		rc.Close()
	}
	if memBytes.Load() == before {
		t.Fatal("no pages mapped while readers hold objects")
	}
	readers = nil
	for i := 0; i < 100 && memBytes.Load() != before; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := memBytes.Load(); got != before {
		t.Errorf("%d bytes still mapped after the readers went, want %d", got, before)
	}
}
