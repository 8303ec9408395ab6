package trace

import (
	"bytes"
	"cmp"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// synthRefs builds a deterministic pseudo-random reference stream.
func synthRefs(n int) []Ref {
	refs := make([]Ref, n)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range refs {
		s = s*6364136223846793005 + 1442695040888963407
		refs[i] = Ref{
			Addr: uint32(s>>23) & 0xffffff,
			PE:   uint8(s>>17) & 7,
			Op:   Op(s >> 13 & 1),
			Obj:  ObjType(1 + (s>>5)%uint64(NumObjTypes-1)),
		}
	}
	return refs
}

// recordSink records the stream it receives (single-goroutine, per the
// Sink contract).
type recordSink struct {
	refs []Ref
}

func (r *recordSink) Add(ref Ref) { r.refs = append(r.refs, ref) }

// batchRecordSink is a recordSink that also implements BatchSink.
type batchRecordSink struct {
	recordSink
	batches int
}

func (r *batchRecordSink) AddBatch(refs []Ref) {
	r.refs = append(r.refs, refs...)
	r.batches++
}

func sameRefs(t *testing.T, label string, got, want []Ref) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d refs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ref %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestFanOutDeliversEveryRefInOrder(t *testing.T) {
	want := synthRefs(10_000)
	for _, chunk := range []int{1, 3, 1000, 0 /* default */} {
		plain := &recordSink{}
		batch := &batchRecordSink{}
		f := NewFanOut(FanOutConfig{ChunkRefs: chunk}, plain, batch)
		for _, r := range want {
			f.Add(r)
		}
		f.Close()
		sameRefs(t, "plain sink", plain.refs, want)
		sameRefs(t, "batch sink", batch.refs, want)
		if batch.batches == 0 {
			t.Error("BatchSink consumer was fed per-ref")
		}
	}
}

func TestFanOutAddBatchMixedWithAdd(t *testing.T) {
	want := synthRefs(5000)
	sink := &recordSink{}
	f := NewFanOut(FanOutConfig{ChunkRefs: 64}, sink)
	// Interleave singles and batches of every size class: smaller than a
	// chunk, exact multiple, and larger with a partial chunk pending.
	i := 0
	for _, n := range []int{1, 10, 64, 200, 1, 1000, 63} {
		f.AddBatch(want[i : i+n])
		i += n
	}
	for ; i < len(want); i++ {
		f.Add(want[i])
	}
	f.Close()
	sameRefs(t, "mixed add", sink.refs, want)
}

func TestFanOutCloseIsIdempotentAndEmptyOK(t *testing.T) {
	sink := &recordSink{}
	f := NewFanOut(FanOutConfig{}, sink)
	f.Close()
	f.Close()
	if len(sink.refs) != 0 {
		t.Fatalf("empty fan-out delivered %d refs", len(sink.refs))
	}
	// No sinks at all is valid too.
	f2 := NewFanOut(FanOutConfig{})
	f2.Add(Ref{})
	f2.Close()
}

// TestFanOutPanicsAfterClose: a FanOut is dead after Close, and each
// producer method fails fast naming itself.
func TestFanOutPanicsAfterClose(t *testing.T) {
	for _, c := range []struct {
		want string
		call func(f *FanOut)
	}{
		{"trace: FanOut.Add after Close", func(f *FanOut) { f.Add(Ref{}) }},
		{"trace: FanOut.AddBatch after Close", func(f *FanOut) { f.AddBatch([]Ref{{}}) }},
		{"trace: FanOut.AddBatchStable after Close", func(f *FanOut) { f.AddBatchStable([]Ref{{}}) }},
		{"trace: ChunkReader.Replay into a FanOut after Close", func(f *FanOut) {
			replayEncoded(t, encodeCompact(t, []Ref{{}}, Meta{EmulatorVersion: "t"}), f)
		}},
	} {
		f := NewFanOut(FanOutConfig{}, &recordSink{})
		f.Close()
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic %v, want %q", got, c.want)
				}
			}()
			c.call(f)
		}()
	}
}

func TestBufferReplayAllMatchesReplay(t *testing.T) {
	buf := &Buffer{Refs: synthRefs(33_333)}
	var seq recordSink
	buf.Replay(&seq)

	sinks := []*recordSink{{}, {}, {}, {}, {}}
	fan := make([]Sink, len(sinks))
	for i := range sinks {
		fan[i] = sinks[i]
	}
	buf.ReplayAll(fan...)
	for _, s := range sinks {
		sameRefs(t, "fan-out consumer", s.refs, seq.refs)
	}
}

// countSink does enough per-ref work that consumers genuinely overlap;
// run under -race this exercises the dispatcher's synchronization.
type countSink struct {
	n   atomic.Int64
	sum uint64
}

func (c *countSink) Add(r Ref) {
	c.sum += uint64(r.Addr)
	c.n.Add(1)
}

func TestFanOutConcurrentConsumersRace(t *testing.T) {
	refs := synthRefs(100_000)
	var want uint64
	for _, r := range refs {
		want += uint64(r.Addr)
	}
	sinks := make([]Sink, 8)
	counts := make([]*countSink, 8)
	for i := range sinks {
		counts[i] = &countSink{}
		sinks[i] = counts[i]
	}
	buf := &Buffer{Refs: refs}
	buf.ReplayAll(sinks...)
	for i, c := range counts {
		if got := c.n.Load(); got != int64(len(refs)) {
			t.Errorf("consumer %d saw %d refs, want %d", i, got, len(refs))
		}
		if c.sum != want {
			t.Errorf("consumer %d checksum %d, want %d", i, c.sum, want)
		}
	}
}

// TestLineRuns: the runs partition the batch into maximal stretches of
// one run key — PE, operation, Global/Local class and four-word block
// — and each key field alone breaks a run.
func TestLineRuns(t *testing.T) {
	r := func(pe uint8, op Op, addr uint32, obj ObjType) Ref {
		return Ref{Addr: addr, PE: pe, Op: op, Obj: obj}
	}
	for _, c := range []struct {
		name string
		refs []Ref
		want []int32
	}{
		{"empty", nil, []int32{0}},
		{"one reference", []Ref{r(0, OpRead, 9, ObjHeap)}, []int32{0, 1}},
		{"one block", []Ref{r(1, OpWrite, 4, ObjHeap), r(1, OpWrite, 5, ObjHeap), r(1, OpWrite, 7, ObjHeap), r(1, OpWrite, 4, ObjHeap)}, []int32{0, 4}},
		{"block boundary", []Ref{r(0, OpRead, 6, ObjHeap), r(0, OpRead, 7, ObjHeap), r(0, OpRead, 8, ObjHeap), r(0, OpRead, 11, ObjHeap)}, []int32{0, 2, 4}},
		{"PE switch", []Ref{r(0, OpRead, 0, ObjHeap), r(1, OpRead, 1, ObjHeap), r(0, OpRead, 2, ObjHeap)}, []int32{0, 1, 2, 3}},
		{"op switch", []Ref{r(0, OpRead, 0, ObjHeap), r(0, OpWrite, 1, ObjHeap), r(0, OpWrite, 2, ObjHeap)}, []int32{0, 1, 3}},
		{"Global/Local split", []Ref{r(0, OpWrite, 0, ObjEnvPVar), r(0, OpWrite, 1, ObjEnvControl), r(0, OpWrite, 2, ObjEnvControl)}, []int32{0, 1, 3}},
		{"object within a class", []Ref{r(0, OpRead, 0, ObjEnvPVar), r(0, OpRead, 1, ObjHeap), r(0, OpRead, 2, ObjTrail), r(0, OpRead, 3, ObjPDL)}, []int32{0, 2, 4}},
		{"top of the address space", []Ref{r(0, OpRead, 1<<32-1, ObjHeap), r(0, OpRead, 0, ObjHeap)}, []int32{0, 1, 2}},
	} {
		got := LineRuns(c.refs, nil)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: runs %v, want %v", c.name, got, c.want)
		}
	}
	// On a random stream: starts ascend from 0 to len, every run holds
	// one key, and neighbouring runs differ in it.
	refs := synthRefs(5000)
	for i := 1; i < len(refs); i += 3 {
		refs[i] = refs[i-1]
		refs[i].Addr ^= uint32(i) & 3
	}
	runs := LineRuns(refs, make([]int32, 0, 10))
	if runs[0] != 0 || int(runs[len(runs)-1]) != len(refs) {
		t.Fatalf("runs span [%d, %d), want [0, %d)", runs[0], runs[len(runs)-1], len(refs))
	}
	for j := 0; j+1 < len(runs); j++ {
		lo, hi := runs[j], runs[j+1]
		if lo >= hi {
			t.Fatalf("run %d is [%d, %d)", j, lo, hi)
		}
		for i := lo + 1; i < hi; i++ {
			if runKey(&refs[i]) != runKey(&refs[lo]) {
				t.Fatalf("run %d: reference %d has another key than %d", j, i, lo)
			}
		}
		if j > 0 && runKey(&refs[lo]) == runKey(&refs[lo-1]) {
			t.Fatalf("run %d at %d is not maximal", j, lo)
		}
	}
	if len(runs) > len(refs)*5/6 {
		t.Errorf("%d runs over %d references with every third one repeated", len(runs)-1, len(refs))
	}
}

// runCheckSink is a RunSink that recomputes the runs of every chunk it
// gets and compares them with the runs it was handed; slow sleeps per
// chunk before it looks, so the producer runs ahead of it as far as the
// channels allow. It keeps where each chunk and its runs lived, to tell
// a chunk decoded in place from a copy.
type runCheckSink struct {
	recordSink
	slow    bool
	chunks  int
	bad     int
	scratch []int32
	chunkAt []*Ref
	runsAt  []*int32
}

func (s *runCheckSink) AddBatch(refs []Ref) { s.AddRuns(refs, nil) }

func (s *runCheckSink) AddRuns(refs []Ref, runs []int32) {
	if s.slow {
		// Before reading the chunk: a producer that reuses its buffers
		// too early overwrites them meanwhile.
		time.Sleep(20 * time.Microsecond)
	}
	s.scratch = LineRuns(refs, s.scratch)
	if !slices.Equal(runs, s.scratch) {
		s.bad++
	}
	s.refs = append(s.refs, refs...)
	s.chunks++
	s.chunkAt = append(s.chunkAt, &refs[0])
	if len(runs) > 0 {
		s.runsAt = append(s.runsAt, &runs[0])
	}
}

// runsStream is synthRefs with every second reference continuing the
// previous one's run.
func runsStream(n int) []Ref {
	refs := synthRefs(n)
	for i := 1; i < len(refs); i += 2 {
		refs[i] = refs[i-1]
		refs[i].Addr ^= 1
	}
	return refs
}

// replayEncoded decodes enc into sink with ChunkReader.Replay.
func replayEncoded(t *testing.T, enc []byte, sink Sink) {
	t.Helper()
	cr, err := NewChunkReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Replay(sink); err != nil {
		t.Fatal(err)
	}
}

// inRing reports whether p is the start of one of the ring's slots.
func inRing[T any](ring [][]T, p *T) bool {
	return slices.ContainsFunc(ring, func(slot []T) bool { return cap(slot) > 0 && &slot[:1][0] == p })
}

// TestDecodedRunsReachRunSinks: a RunSink fed by ChunkReader.Replay —
// alone, behind a FanOut, behind a FanOut that already holds a partial
// chunk from Add, and behind one whose chunks are smaller than the
// codec's — sees every reference once, in order, and with each batch
// exactly the runs LineRuns finds in it. Alone it gets one batch per
// codec chunk. Behind a FanOut with the codec's chunk size and nothing
// pending, every chunk and its runs are the FanOut's own ring slots and
// the short last chunk is sent at once, not kept as a partial chunk
// until Close: the decoder filled the slots, so nothing was copied or
// scanned again.
func TestDecodedRunsReachRunSinks(t *testing.T) {
	want := runsStream(5*codecChunkRefs + 1000)
	enc := encodeCompact(t, want, Meta{PEs: 8, EmulatorVersion: "t"})
	codecChunks := (len(want) + codecChunkRefs - 1) / codecChunkRefs

	alone := &runCheckSink{}
	replayEncoded(t, enc, alone)
	if alone.bad != 0 || alone.chunks != codecChunks {
		t.Errorf("alone: %d of %d batches came with wrong runs, want 0 of %d", alone.bad, alone.chunks, codecChunks)
	}
	sameRefs(t, "alone", alone.refs, want)

	for _, c := range []struct {
		name    string
		cfg     FanOutConfig
		pending []Ref // added before the replay
	}{
		{"FanOut", FanOutConfig{}, nil},
		{"FanOut holding a partial chunk", FanOutConfig{}, synthRefs(100)},
		{"FanOut with 64-reference chunks", FanOutConfig{ChunkRefs: 64}, nil},
	} {
		s, plain := &runCheckSink{}, &batchRecordSink{}
		f := NewFanOut(c.cfg, s, plain)
		for _, r := range c.pending {
			f.Add(r)
		}
		replayEncoded(t, enc, f)
		inPlace := c.pending == nil && c.cfg.ChunkRefs == 0
		if inPlace && f.chunk != nil {
			t.Errorf("%s: %d references wait in a partial chunk after the replay: the decoded chunks were copied", c.name, len(f.chunk))
		}
		f.Close()
		all := slices.Concat(c.pending, want)
		chunkRefs := cmp.Or(c.cfg.ChunkRefs, defaultChunkRefs)
		if chunks := (len(all) + chunkRefs - 1) / chunkRefs; s.bad != 0 || s.chunks != chunks {
			t.Errorf("%s: %d of %d chunks came with wrong runs, want 0 of %d", c.name, s.bad, s.chunks, chunks)
		}
		sameRefs(t, c.name, s.refs, all)
		sameRefs(t, c.name+", batch consumer", plain.refs, all)
		if inPlace {
			for i := range s.chunkAt {
				if !inRing(f.bufs, s.chunkAt[i]) || !inRing(f.runs, s.runsAt[i]) {
					t.Fatalf("%s: chunk %d and its runs are not the ring's slots: they were copied", c.name, i)
				}
			}
		}
	}
}

// TestFanOutRunsUnderUnevenConsumers: with a slow and a fast run
// consumer and a plain batch consumer over many small chunks, fed by
// every producer path, each RunSink gets every chunk with its own runs
// — the ring's reuse never overwrites a chunk or its runs before the
// slowest consumer is done — and everyone sees the whole stream. Run
// under -race, this is the ring's synchronization test too.
func TestFanOutRunsUnderUnevenConsumers(t *testing.T) {
	want := runsStream(20_000)
	for _, path := range []string{"Add", "AddBatch", "AddBatchStable"} {
		slow, fast := &runCheckSink{slow: true}, &runCheckSink{}
		plain := &batchRecordSink{}
		f := NewFanOut(FanOutConfig{ChunkRefs: 64, Depth: 2}, slow, plain, fast)
		switch path {
		case "Add":
			for _, r := range want {
				f.Add(r)
			}
		case "AddBatch":
			for i := 0; i < len(want); i += 100 {
				batch := slices.Clone(want[i:min(i+100, len(want))])
				f.AddBatch(batch)
				clear(batch) // the caller's slice is free on return
			}
		case "AddBatchStable":
			for i := 0; i < len(want); i += 1000 {
				f.AddBatchStable(want[i:min(i+1000, len(want))])
			}
		}
		f.Close()
		for _, s := range []*runCheckSink{slow, fast} {
			if s.bad != 0 || s.chunks != (len(want)+63)/64 {
				t.Errorf("%s: %d of %d chunks came with wrong runs, want 0 of %d", path, s.bad, s.chunks, (len(want)+63)/64)
			}
			sameRefs(t, path+" run consumer", s.refs, want)
		}
		sameRefs(t, path+" batch consumer", plain.refs, want)
	}
}

// TestFanOutDecodedRunsUnderUnevenConsumers is the ring's
// synchronization test for chunks the decoder fills in place: fed by
// ChunkReader.Replay over many more chunks than the ring has slots,
// with a slow and a fast run consumer and a plain batch consumer, each
// RunSink gets every chunk with its own runs and everyone sees the
// whole stream. Run it under -race.
func TestFanOutDecodedRunsUnderUnevenConsumers(t *testing.T) {
	const chunks = 16
	want := runsStream(chunks * codecChunkRefs)
	enc := encodeCompact(t, want, Meta{PEs: 8, EmulatorVersion: "t"})
	slow, fast := &runCheckSink{slow: true}, &runCheckSink{}
	plain := &batchRecordSink{}
	f := NewFanOut(FanOutConfig{Depth: 2}, slow, plain, fast)
	replayEncoded(t, enc, f)
	f.Close()
	for _, s := range []*runCheckSink{slow, fast} {
		if s.bad != 0 || s.chunks != chunks {
			t.Errorf("%d of %d chunks came with wrong runs, want 0 of %d", s.bad, s.chunks, chunks)
		}
		sameRefs(t, "run consumer", s.refs, want)
	}
	sameRefs(t, "batch consumer", plain.refs, want)
}

// countRunSink is a RunSink that only counts what it gets.
type countRunSink struct{ refs, runs int }

func (s *countRunSink) Add(Ref)             { s.refs++ }
func (s *countRunSink) AddBatch(refs []Ref) { s.refs += len(refs) }
func (s *countRunSink) AddRuns(refs []Ref, runs []int32) {
	s.refs += len(refs)
	s.runs += len(runs) - 1
}

// TestFanOutBuffersPerFanOut: the chunk and run buffers are made once
// per FanOut, not once per chunk — a stream of 64 chunks allocates no
// more than one of 8.
func TestFanOutBuffersPerFanOut(t *testing.T) {
	refs := synthRefs(64 * 256)
	allocs := func(chunks int) float64 {
		return testing.AllocsPerRun(20, func() {
			f := NewFanOut(FanOutConfig{ChunkRefs: 256}, &countRunSink{}, &countRunSink{})
			for i := 0; i < chunks*256; i += 100 {
				f.AddBatch(refs[i:min(i+100, chunks*256)])
			}
			f.Close()
		})
	}
	few, many := allocs(8), allocs(64)
	if many > few {
		t.Errorf("a FanOut over 64 chunks allocates %.0f times, over 8 chunks %.0f", many, few)
	}
}

// BenchmarkLineRuns is the run finder alone on a synthetic stream in
// which two references in five continue the previous one's run (real
// traces: 0.49–0.74 runs per reference), in chunks of the fan-out's
// default size.
func BenchmarkLineRuns(b *testing.B) {
	refs := synthRefs(defaultChunkRefs)
	for i := range refs {
		if i%5 >= 3 {
			refs[i] = refs[i-1]
			refs[i].Addr ^= 1
		}
	}
	runs := LineRuns(refs, nil)
	b.ResetTimer()
	for range b.N {
		runs = LineRuns(refs, runs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(refs)), "ns/ref")
	b.ReportMetric(float64(len(runs)-1)/float64(len(refs)), "runs/ref")
}
