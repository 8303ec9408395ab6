package cache

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// fuzzMultiSizeCase decodes fuzz input into a multi-size class and a
// reference stream: a 3-byte header (PE count 1–8; allocation policy,
// protocol and the far flag; line size and size count 2–6), one byte
// per size (ascending, 1–60 lines), then two bytes per reference (line,
// placed by fuzzAddr; PE, operation and object tag).
func fuzzMultiSizeCase(data []byte) (cfg Config, sizes []int, refs []trace.Ref, ok bool) {
	if len(data) < 3 {
		return Config{}, nil, nil, false
	}
	cfg = Config{
		PEs:           1 + int(data[0]%8),
		LineWords:     1 << (data[2] >> 6),
		WriteAllocate: data[1]&1 != 0,
		Protocol:      []Protocol{WriteInBroadcast, Hybrid, Copyback, WriteInBroadcast}[data[1]>>1&3],
	}
	if cfg.Protocol == Copyback {
		cfg.PEs = 1
	}
	n := 2 + int(data[2]%5)
	if len(data) < 3+n {
		return Config{}, nil, nil, false
	}
	lines := 0
	for _, b := range data[3 : 3+n] {
		lines += 1 + int(b%10)
		sizes = append(sizes, lines*cfg.LineWords)
	}
	far := data[1]>>3&1 != 0
	for body := data[3+n:]; len(body) >= 2; body = body[2:] {
		refs = append(refs, fuzzRef(body, far, cfg))
	}
	return cfg, sizes, refs, true
}

// fuzzRef decodes one reference from two bytes: the line byte (see
// fuzzAddr), then PE, operation and object tag.
func fuzzRef(b []byte, far bool, cfg Config) trace.Ref {
	return trace.Ref{
		Addr: fuzzAddr(b[0], far, cfg.LineWords),
		PE:   b[1] & 7 % uint8(cfg.PEs),
		Op:   trace.Op(b[1] >> 3 & 1),
		Obj:  trace.ObjType(b[1] >> 4 % uint8(trace.NumObjTypes)),
	}
}

// fuzzAddr places a reference's line. Without the far flag the byte is
// the line, 0–255. With it, the top two bits pick a base address — the
// first page boundary of the residency index, 2^24, 2^31−1 or the top
// of uint32 — and the low six bits one of the 64 lines around it, 32 on
// each side (wrapping past the top to line 0), so the stream crosses
// page creation, the direct/far boundary of the index and the int32
// sign bit of the line number.
func fuzzAddr(b byte, far bool, lineWords int) uint32 {
	lw := uint32(lineWords)
	if !far {
		return uint32(b) * lw
	}
	base := [4]uint32{pageLines * lw, 1 << 24, math.MaxInt32, math.MaxUint32}[b>>6]
	return base + uint32(int32(b&63)-32)*lw
}

// fuzzSimCase decodes fuzz input into one configuration and a reference
// stream: a 4-byte header (PE count 1–8; allocation policy, protocol and
// the far flag; line size and geometry; geometry size), then two bytes
// per reference, as fuzzMultiSizeCase reads them.
// The geometry is fully associative over 1–16 lines, 1-, 2- or 4-way
// over 1–8 sets, or one set of 1–16 lines.
func fuzzSimCase(data []byte) (cfg Config, refs []trace.Ref, ok bool) {
	if len(data) < 4 {
		return Config{}, nil, false
	}
	cfg = Config{
		PEs:           1 + int(data[0]%8),
		LineWords:     1 << (data[2] >> 6),
		WriteAllocate: data[1]&1 != 0,
		Protocol:      Protocol(data[1] >> 1 & 7 % uint8(numProtocols)),
	}
	if cfg.Protocol == Copyback {
		cfg.PEs = 1
	}
	lines := 1 + int(data[3]%16)
	switch geometry := data[2] & 7 % 5; geometry {
	case 1, 2, 3:
		cfg.Assoc = 1 << (geometry - 1)
		lines = cfg.Assoc << (data[3] % 4)
	case 4:
		cfg.Assoc = lines
	}
	cfg.SizeWords = lines * cfg.LineWords
	far := data[1]>>4&1 != 0
	for body := data[4:]; len(body) >= 2; body = body[2:] {
		refs = append(refs, fuzzRef(body, far, cfg))
	}
	return cfg, refs, true
}

// fuzzBatches cuts refs into consecutive batches of 1–32 references
// whose lengths the input chooses: the j-th is 1 + data[j mod
// len(data)] mod 32 long.
func fuzzBatches(data []byte, refs []trace.Ref) [][]trace.Ref {
	var out [][]trace.Ref
	for j := 0; len(refs) > 0; j++ {
		n := min(1+int(data[j%len(data)]%32), len(refs))
		out = append(out, refs[:n])
		refs = refs[n:]
	}
	return out
}

// simSeeds are FuzzSimMatchesReference's near seeds, which place every
// line in 0–255.
func simSeeds() [][]byte {
	// Direct-mapped conflicts: 2 PEs, write-in broadcast, write-allocate,
	// 4 sets of one line, five lines all mapping to set 0.
	conflict := []byte{1, byte(WriteInBroadcast)<<1 | 1, 2<<6 | 1, 2}
	for i := 0; i < 300; i++ {
		conflict = append(conflict, byte(i%5*4), byte(i%2|i/3%2<<3))
	}
	seeds := [][]byte{conflict}
	// Heavy sharing: 8 PEs reading and writing six lines, every object
	// tag, under hybrid over 2 sets of 2 ways, and under write-through
	// broadcast fully associative.
	for _, header := range [][]byte{
		{7, byte(Hybrid)<<1 | 1, 2<<6 | 2, 1},
		{7, byte(WriteThroughBroadcast) << 1, 2 << 6, 3},
	} {
		sharing := append([]byte(nil), header...)
		for i := 0; i < 300; i++ {
			sharing = append(sharing, byte(i%6), byte(i%8|i/8%2<<3|i%trace.NumObjTypes<<4))
		}
		seeds = append(seeds, sharing)
	}
	return seeds
}

// FuzzSimMatchesReference: whatever the configuration and the stream,
// Sim equals the reference simulator (refsim_test.go) on Stats, on the
// per-PE bus and reference vectors, and on Stats after Flush — fed as
// one batch, one reference at a time through Add, and in batches cut
// where the input says — and the two OnBus-observed deliveries see the
// reference's event sequence one for one.
func FuzzSimMatchesReference(f *testing.F) {
	for _, seed := range simSeeds() {
		f.Add(seed)
	}
	// Far lines: 8 PEs sharing lines around every far base, one-word
	// lines (so the top two bases give negative int32 lines), write-in
	// broadcast, fully associative over 16 lines and 4-way over 8 sets.
	for _, geometry := range []byte{0, 3} {
		far := []byte{7, 1<<4 | byte(WriteInBroadcast)<<1 | 1, geometry, 15}
		for i := 0; i < 400; i++ {
			far = append(far, byte(i%4<<6|(i*7+i/4)%64), byte(i%8|i/5%2<<3|i%trace.NumObjTypes<<4))
		}
		f.Add(far)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, refs, ok := fuzzSimCase(data)
		if !ok {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded an invalid configuration: %v", err)
		}
		record := func(events *[]busEvent) func(pe, words int, refIndex int64) {
			return func(pe, words int, refIndex int64) {
				*events = append(*events, busEvent{pe, words, refIndex})
			}
		}
		ref := newRefSim(cfg)
		var want []busEvent
		ref.OnBus = record(&want)
		for _, r := range refs {
			ref.Add(r)
		}
		batch := New(cfg)
		batch.AddBatch(refs)
		observed := New(cfg)
		var got []busEvent
		observed.OnBus = record(&got)
		for _, r := range refs {
			observed.Add(r)
		}
		split := New(cfg)
		var gotSplit []busEvent
		split.OnBus = record(&gotSplit)
		for _, b := range fuzzBatches(data, refs) {
			split.AddBatch(b)
		}
		check := func(when string) {
			for _, run := range []struct {
				path string
				sim  *Sim
			}{{"batch", batch}, {"per-reference", observed}, {"split batches", split}} {
				if run.sim.Stats() != ref.stats || !eqVec(run.sim.PerPEBusWords(), ref.perPEBus) || !eqVec(run.sim.PerPERefs(), ref.perPERefs) {
					t.Errorf("%s %s, %s over %d references:\n got %+v bus %v refs %v\nwant %+v bus %v refs %v",
						run.path, when, cfg.Key(), len(refs), run.sim.Stats(), run.sim.PerPEBusWords(), run.sim.PerPERefs(),
						ref.stats, ref.perPEBus, ref.perPERefs)
				}
			}
			for _, run := range []struct {
				path   string
				events []busEvent
			}{{"per-reference", got}, {"split batches", gotSplit}} {
				if len(run.events) != len(want) {
					t.Fatalf("%s %s, %s: %d OnBus events, want %d", run.path, when, cfg.Key(), len(run.events), len(want))
				}
				for i := range run.events {
					if run.events[i] != want[i] {
						t.Fatalf("%s %s, %s: OnBus event %d is %+v, want %+v", run.path, when, cfg.Key(), i, run.events[i], want[i])
					}
				}
			}
		}
		check("after the stream")
		ref.Flush()
		batch.Flush()
		observed.Flush()
		split.Flush()
		check("after Flush")
	})
}

// FuzzMultiSizeMatchesSim: whatever the class and the stream, the
// multi-size structure's Stats at each size equal those of a Sim of
// that size fed the same stream. The committed corpus holds the stream
// that separates allocation policies (plan_test.go) under each policy
// and small sharing streams under each protocol; the seed added here
// shares far lines.
func FuzzMultiSizeMatchesSim(f *testing.F) {
	// 4 PEs, write-in broadcast, write-allocate, far flag, one-word
	// lines, sizes of 3, 7 and 15 lines.
	far := []byte{3, 1<<3 | 1, 1, 2, 3, 7}
	for i := 0; i < 400; i++ {
		far = append(far, byte(i%4<<6|(i*5+i/4)%64), byte(i%4|i/3%2<<3|i%trace.NumObjTypes<<4))
	}
	f.Add(far)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, sizes, refs, ok := fuzzMultiSizeCase(data)
		if !ok {
			return
		}
		multi := newMultiSim(cfg, sizes)
		multi.AddBatch(refs)
		for k, size := range sizes {
			cfg.SizeWords = size
			sim := New(cfg)
			sim.AddBatch(refs)
			if got, want := multi.stats(k), sim.Stats(); got != want {
				t.Errorf("%s of sizes %v over %d references:\nmulti-size %+v\n       Sim %+v", cfg.Key(), sizes, len(refs), got, want)
			}
		}
	})
}

// TestFuzzSeedsDecodeAsBefore: the far flag and the narrowed protocol
// byte leave every near seed — FuzzSimMatchesReference's and the
// committed FuzzMultiSizeMatchesSim corpus — decoding to the config and
// references it did before they existed: each line is the reference's
// first byte and the protocol is the header's byte 1 >> 1, mod the
// protocol count.
func TestFuzzSeedsDecodeAsBefore(t *testing.T) {
	lineByteIsLine := func(name string, body []byte, refs []trace.Ref, lw int) {
		for i, r := range refs {
			if want := uint32(body[2*i]) * uint32(lw); r.Addr != want {
				t.Fatalf("%s: reference %d at word %d, want %d", name, i, r.Addr, want)
			}
		}
	}
	for i, data := range simSeeds() {
		cfg, refs, ok := fuzzSimCase(data)
		if !ok || cfg.Protocol != Protocol(data[1]>>1%uint8(numProtocols)) {
			t.Fatalf("sim seed %d: decodes to %+v", i, cfg)
		}
		lineByteIsLine(strconv.Itoa(i), data[4:], refs, cfg.LineWords)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMultiSizeMatchesSim")
	files, err := os.ReadDir(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("reading the committed corpus: %d files, %v", len(files), err)
	}
	for _, file := range files {
		text, err := os.ReadFile(filepath.Join(dir, file.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		lit, found := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !found || err != nil {
			t.Fatalf("%s: not a []byte corpus entry (%v)", file.Name(), err)
		}
		data := []byte(s)
		cfg, sizes, refs, ok := fuzzMultiSizeCase(data)
		if !ok {
			t.Fatalf("%s: does not decode", file.Name())
		}
		lineByteIsLine(file.Name(), data[3+len(sizes):], refs, cfg.LineWords)
	}
}
