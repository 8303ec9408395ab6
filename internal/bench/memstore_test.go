package bench

import (
	"context"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracestore"
)

// TestDropTracesKeepsOpenReplays: a replay that opened a trace in the
// Runner's private store reads it whole after DropTraces and two forced
// collections, with every chunk's CRC checked: the dropped store's
// pages go back to the OS only once no reader holds them.
func TestDropTracesKeepsOpenReplays(t *testing.T) {
	b, ok := ByName("qsort-150")
	if !ok {
		t.Fatal("benchmark missing")
	}
	r := new(Runner)
	want, err := readCell(context.Background(), r, b)
	if err != nil {
		t.Fatal(err)
	}
	rc := func() io.ReadCloser {
		m := r.memStore().Backend()
		names, err := m.List("")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, tracestore.TraceExt) {
				rc, err := m.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				return rc
			}
		}
		t.Fatal("no stored trace")
		return nil
	}()
	defer rc.Close()
	r.DropTraces()
	runtime.GC()
	runtime.GC()
	cr, err := trace.NewChunkReader(rc)
	if err != nil {
		t.Fatal(err)
	}
	var got trace.Counter
	if _, err := cr.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if got != want.Refs {
		t.Errorf("replay after DropTraces tallies %+v, want %+v", got, want.Refs)
	}
}
