package mem

// Tests for the staged reference path, the O(1) classification table
// and the slab's lifetime — the memory-side half of the emulator
// hot-path rework. The invariants here are what the golden trace-parity
// suite (internal/bench) relies on: staging preserves emission order
// exactly, classification is bit-equal to the arithmetic definition,
// every new address space reads zero whatever the one before it held,
// and every slab is given back exactly once.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/storage/blob"
	"repro/internal/trace"
)

// refLayout is a small layout exercised by the hot-path tests.
var refLayout = Layout{Workers: 3, Heap: 512, Local: 256, Control: 256, Trail: 128, PDL: 64, Goal: 64, Msg: 64}

// TestStagingPreservesOrder drives an interleaved read/write pattern
// across PEs and areas and checks the sink sees exactly the emission
// order, including across flush boundaries.
func TestStagingPreservesOrder(t *testing.T) {
	buf := trace.NewBuffer(0)
	m := newTestMemory(t, refLayout, buf)
	var want []trace.Ref
	rng := uint64(12345)
	n := stageRefs*2 + 1234 // cross several flush boundaries
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pe := int(rng>>33) % refLayout.Workers
		heap := m.Region(pe, trace.AreaHeap)
		addr := heap.Base + int(rng>>40)%heap.Size()
		if rng&1 == 0 {
			m.Write(pe, addr, MakeInt(int64(i)), trace.ObjHeap)
			want = append(want, trace.Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpWrite, Obj: trace.ObjHeap})
		} else {
			m.Read(pe, addr, trace.ObjEnvPVar)
			want = append(want, trace.Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpRead, Obj: trace.ObjEnvPVar})
		}
	}
	m.Flush()
	if buf.Len() != len(want) {
		t.Fatalf("sink saw %d refs, want %d", buf.Len(), len(want))
	}
	for i, r := range slices.Concat(buf.Segments()...) {
		if r != want[i] {
			t.Fatalf("ref %d = %v, want %v", i, r, want[i])
		}
	}
	if got := m.Counter().Total(); got != int64(len(want)) {
		t.Errorf("counter total = %d, want %d", got, len(want))
	}
}

// TestCounterMatchesPerRefTally cross-checks the flat flush tally
// against a reference trace.Counter fed one reference at a time.
func TestCounterMatchesPerRefTally(t *testing.T) {
	buf := trace.NewBuffer(0)
	m := newTestMemory(t, refLayout, buf)
	objs := []trace.ObjType{trace.ObjHeap, trace.ObjEnvPVar, trace.ObjTrail, trace.ObjGoalFrame, trace.ObjMessage}
	rng := uint64(99)
	for i := 0; i < 3*stageRefs/2; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pe := int(rng>>33) % refLayout.Workers
		heap := m.Region(pe, trace.AreaHeap)
		addr := heap.Base + int(rng>>40)%heap.Size()
		obj := objs[int(rng>>20)%len(objs)]
		if rng&1 == 0 {
			m.Write(pe, addr, MakeInt(1), obj)
		} else {
			m.Read(pe, addr, obj)
		}
	}
	m.Flush()
	var want trace.Counter
	buf.Replay(&want)
	got := m.Counter()
	if *got != want {
		t.Errorf("materialized counter differs from per-ref reference:\n got %+v\nwant %+v", *got, want)
	}
}

// TestClassifyMatchesArithmetic scans every address of a layout and
// compares the table-based Classify against the arithmetic definition
// (div/mod over the span plus a linear area scan).
func TestClassifyMatchesArithmetic(t *testing.T) {
	m := newTestMemory(t, refLayout, nil)
	span := m.Layout().SpanWords()
	sizes := []struct {
		area trace.Area
		size int
	}{
		{trace.AreaHeap, m.Layout().Heap},
		{trace.AreaLocal, m.Layout().Local},
		{trace.AreaControl, m.Layout().Control},
		{trace.AreaTrail, m.Layout().Trail},
		{trace.AreaPDL, m.Layout().PDL},
		{trace.AreaGoal, m.Layout().Goal},
		{trace.AreaMsg, m.Layout().Msg},
	}
	for addr := 0; addr < len(m.words); addr++ {
		wantPE := addr / span
		off := addr % span
		wantArea := trace.AreaNone
		for _, s := range sizes {
			if off < s.size {
				wantArea = s.area
				break
			}
			off -= s.size
		}
		gotPE, gotArea := m.Classify(addr)
		if gotPE != wantPE || gotArea != wantArea {
			t.Fatalf("Classify(%d) = (%d,%v), want (%d,%v)", addr, gotPE, gotArea, wantPE, wantArea)
		}
	}
	if pe, a := m.Classify(-1); pe != -1 || a != trace.AreaNone {
		t.Errorf("Classify(-1) = (%d,%v)", pe, a)
	}
	if pe, a := m.Classify(len(m.words)); pe != -1 || a != trace.AreaNone {
		t.Errorf("Classify(size) = (%d,%v)", pe, a)
	}
}

// TestNewMemoryIsZeroAfterRelease dirties memory through every write
// path (traced writes, Pokes, cross-PE writes), releases, and verifies
// that nothing of it survives into the next address space of the same
// size: a NewMemory issued right after must read zero at every address.
func TestNewMemoryIsZeroAfterRelease(t *testing.T) {
	m := newTestMemory(t, refLayout, nil)
	rng := uint64(7)
	for i := 0; i < 4*stageRefs+99; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pe := int(rng>>33) % refLayout.Workers
		area := []trace.Area{trace.AreaHeap, trace.AreaLocal, trace.AreaTrail, trace.AreaMsg}[int(rng>>40)%4]
		reg := m.Region(pe, area)
		addr := reg.Base + int(rng>>45)%reg.Size()
		m.Write((pe+1)%refLayout.Workers, addr, MakeInt(-1), trace.ObjHeap) // cross-PE attribution
	}
	m.Poke(len(m.words)-1, MakeInt(42))
	m.Release()

	m2 := newTestMemory(t, refLayout, nil)
	for addr := 0; addr < len(m2.words); addr++ {
		if w := m2.Peek(addr); w != 0 {
			t.Fatalf("new address space not zero at %d: %v", addr, w)
		}
	}
}

// TestReleaseIsTerminal checks Release gives the slab back exactly once
// and that a released Memory cannot silently keep operating: a late
// access is a Go panic, never a fault on the unmapped pages.
func TestReleaseIsTerminal(t *testing.T) {
	before := LiveBytes()
	m, err := NewMemory(refLayout, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LiveBytes()-before, int64(len(m.words))*wordBytes; got != want {
		t.Errorf("NewMemory added %d live bytes, want %d", got, want)
	}
	m.Release()
	m.Release() // idempotent
	if got := LiveBytes(); got != before {
		t.Errorf("live bytes after Release = %d, want %d", got, before)
	}
	defer func() {
		if recover() == nil {
			t.Error("Write after Release did not panic")
		}
	}()
	m.Write(0, 0, MakeInt(1), trace.ObjHeap)
}

// TestDroppedMemoryIsFinalized checks the backstop: a Memory nobody
// Released gives its slab back once the collector finds it unreachable,
// also when it was dropped with a half handed off to a drain goroutine
// (which holds the Memory only until its batch is delivered).
func TestDroppedMemoryIsFinalized(t *testing.T) {
	for _, refs := range []int{0, stageRefs + 1, 2*stageRefs + 1} {
		before := LiveBytes()
		func() {
			m, err := NewMemory(DefaultLayout(8), trace.NewBuffer(0))
			if err != nil {
				t.Fatal(err)
			}
			m.Poke(len(m.words)-1, MakeInt(1))
			for i := 0; i < refs; i++ {
				m.Write(i%8, m.Region(i%8, trace.AreaHeap).Base, MakeInt(int64(i)), trace.ObjHeap)
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for LiveBytes() != before {
			if time.Now().After(deadline) {
				t.Fatalf("%d refs staged: live bytes = %d, want %d: cleanup did not run", refs, LiveBytes(), before)
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestReleaseStopsTheCleanup: once a released Memory is unreachable,
// nothing unmaps its range again. The new address space and store
// object are mapped while the released Memory is still reachable, so
// the kernel may hand them its freed range; a cleanup that Release left
// armed would then unmap the new Memory's pages under it (a fault on
// the reads below, not a Go panic), or, wherever they landed, take the
// slab off LiveBytes a second time. The -race build maps Go heap, so
// there only the second shows.
func TestReleaseStopsTheCleanup(t *testing.T) {
	before := LiveBytes()
	old, err := NewMemory(refLayout, nil)
	if err != nil {
		t.Fatal(err)
	}
	for addr := 0; addr < len(old.words); addr++ {
		old.Poke(addr, MakeInt(-1))
	}
	old.Release()
	runtime.GC()
	runtime.GC()

	m := newTestMemory(t, refLayout, nil)
	for addr := 0; addr < len(m.words); addr++ {
		m.Poke(addr, MakeInt(int64(addr)*3+1))
	}
	data := make([]byte, 3<<20+4321)
	for i := range data {
		data[i] = byte(i*5 + i>>12)
	}
	store := blob.NewMem()
	if err := store.Put("object", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(old)
	for i := 0; i < 10; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}

	for addr := 0; addr < len(m.words); addr++ {
		if w, want := m.Peek(addr), MakeInt(int64(addr)*3+1); w != want {
			t.Fatalf("word %d = %v, want %v", addr, w, want)
		}
	}
	rc, err := store.Get("object")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("store object: read %d bytes (%v), not the %d written", len(got), err, len(data))
	}
	if got, want := LiveBytes()-before, int64(len(m.words))*wordBytes; got != want {
		t.Errorf("live bytes = %d over the start, want %d: a released slab was given back twice", got, want)
	}
}

// TestNewMemoryRejectsTooManyWorkers pins the trace.MaxPEs bound.
func TestNewMemoryRejectsTooManyWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMemory with 65 workers did not panic")
		}
	}()
	NewMemory(Layout{Workers: trace.MaxPEs + 1, Heap: 64, Local: 64, Control: 64, Trail: 64, PDL: 64, Goal: 64, Msg: 64}, nil)
}

// BenchmarkMemoryRefPath measures the steady-state traced reference
// path — staging append, counter fold, batch hand-off to a BatchSink —
// and pins it at zero allocations per operation.
func BenchmarkMemoryRefPath(b *testing.B) {
	m := newTestMemory(b, refLayout, trace.Discard)
	heap := m.Region(0, trace.AreaHeap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := heap.Base + i%heap.Size()
		m.Write(0, addr, MakeInt(int64(i)), trace.ObjHeap)
		m.Read(0, addr, trace.ObjHeap)
	}
	b.StopTimer()
	m.Flush()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkNewMemoryRelease measures building and tearing down an
// untouched address space of the default 8- and 16-PE layouts: two
// system calls, where zeroing a fresh in-heap slab took 10–40 ms.
func BenchmarkNewMemoryRelease(b *testing.B) {
	for _, pes := range []int{8, 16} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			l := DefaultLayout(pes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewMemory(l, trace.Discard)
				if err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		})
	}
}
