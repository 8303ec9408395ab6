package cache

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// fuzzMultiSizeCase decodes fuzz input into a multi-size class and a
// reference stream: a 3-byte header (PE count 1–8; allocation policy,
// protocol, the far flag, the runs flag and the mixed flag; line size
// and size count 2–6), one byte per size (ascending, 1–60 lines), then
// the references as fuzzRefs reads them. Without the mixed flag every
// size takes the header's allocation policy and each size byte adds
// 1–10 lines. With it, a size byte's top bit is that size's policy and
// its low seven bits add 0–9 lines: a size may repeat the previous one
// when the repeat allocates and the previous does not (planSims' slot
// order), and otherwise adds at least one line.
func fuzzMultiSizeCase(data []byte) (cfg Config, sizes []cacheSize, refs []trace.Ref, ok bool) {
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
	mixed := data[1]&fuzzMixedFlag != 0
	lines := 0
	for _, b := range data[3 : 3+n] {
		size := cacheSize{allocate: cfg.WriteAllocate}
		step := 1 + int(b%10)
		if mixed {
			size.allocate = b&0x80 != 0
			step = int(b&0x7f) % 10
			if step == 0 && (lines == 0 || sizes[len(sizes)-1].allocate || !size.allocate) {
				step = 1
			}
		}
		lines += step
		size.words = lines * cfg.LineWords
		sizes = append(sizes, size)
	}
	far := data[1]>>3&1 != 0
	return cfg, sizes, fuzzRefs(data[3+n:], far, data[1]&fuzzRunsFlag != 0, cfg), true
}

// fuzzMixedFlag is the header bit, byte 1 of fuzzMultiSizeCase, that
// gives each size an allocation policy of its own.
const fuzzMixedFlag = 1 << 6

// fuzzRunsFlag is the header bit, byte 1 of both decoders, that makes
// back-to-back references to one four-word block common (fuzzRefs).
const fuzzRunsFlag = 1 << 5

// fuzzRefs decodes a reference stream, two bytes per reference as
// fuzzRef reads them. With the runs flag, a line byte with its top bit
// set stays in the previous reference's four-word block instead: with
// bit 6 set too it repeats the previous reference 1–8 times (the
// second byte mod 8, plus one) at the block's following words, a run;
// otherwise it is one reference at word b&3 of the block, with PE,
// operation and object tag from the second byte as usual, so a PE, an
// operation or a Global/Local class can change without the block.
func fuzzRefs(body []byte, far, runs bool, cfg Config) []trace.Ref {
	var refs []trace.Ref
	for ; len(body) >= 2; body = body[2:] {
		if !runs || body[0]&0x80 == 0 || len(refs) == 0 {
			refs = append(refs, fuzzRef(body, far, cfg))
			continue
		}
		prev := refs[len(refs)-1]
		block := prev.Addr &^ 3
		if body[0]&0x40 == 0 {
			r := fuzzRef(body, far, cfg)
			r.Addr = block | uint32(body[0]&3)
			refs = append(refs, r)
			continue
		}
		for range 1 + body[1]%8 {
			prev.Addr = block | (prev.Addr+1)&3
			refs = append(refs, prev)
		}
	}
	return refs
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
// stream: a 4-byte header (PE count 1–8; allocation policy, protocol,
// the far flag and the runs flag; line size and geometry; geometry
// size), then the references as fuzzRefs reads them.
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
	return cfg, fuzzRefs(data[4:], far, data[1]&fuzzRunsFlag != 0, cfg), true
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

// simFarSeeds are FuzzSimMatchesReference's far seeds: 8 PEs sharing
// lines around every far base, one-word lines (so the top two bases
// give negative int32 lines), write-in broadcast, fully associative
// over 16 lines and 4-way over 8 sets.
func simFarSeeds() [][]byte {
	var seeds [][]byte
	for _, geometry := range []byte{0, 3} {
		far := []byte{7, 1<<4 | byte(WriteInBroadcast)<<1 | 1, geometry, 15}
		for i := 0; i < 400; i++ {
			far = append(far, byte(i%4<<6|(i*7+i/4)%64), byte(i%8|i/5%2<<3|i%trace.NumObjTypes<<4))
		}
		seeds = append(seeds, far)
	}
	return seeds
}

// multiSizeFarSeed is FuzzMultiSizeMatchesSim's far seed: 4 PEs,
// write-in broadcast, write-allocate, far flag, one-word lines, sizes
// of 3, 7 and 15 lines.
func multiSizeFarSeed() []byte {
	far := []byte{3, 1<<3 | 1, 1, 2, 3, 7}
	for i := 0; i < 400; i++ {
		far = append(far, byte(i%4<<6|(i*5+i/4)%64), byte(i%4|i/3%2<<3|i%trace.NumObjTypes<<4))
	}
	return far
}

// fuzzRunBody is a reference stream for the runs flag (fuzzRefs): 4
// PEs over 10 lines, each reference followed now by a run of the same
// PE, operation and object, now by a reference to its block that
// switches PE, operation or Global/Local class, and now by nothing.
func fuzzRunBody(n int) []byte {
	var body []byte
	for i := 0; i < n; i++ {
		pe, op, obj := byte(i%4), byte(i/2%2), byte(i%trace.NumObjTypes)
		body = append(body, byte(i*3%10), pe|op<<3|obj<<4)
		switch i % 5 {
		case 0, 1:
			body = append(body, 0xc0, byte(i))
		case 2:
			body = append(body, 0x80|byte(i%4), (pe+1)%4|op<<3|obj<<4)
		case 3:
			body = append(body, 0x80|byte(i%4), pe|(1-op)<<3|obj<<4)
		case 4:
			// ObjHeap is Global, ObjTrail Local.
			body = append(body, 0x80|byte(i%4), pe|op<<3|(byte(trace.ObjHeap)+byte(i%2))<<4)
		}
	}
	return body
}

// simRunSeeds are FuzzSimMatchesReference's seeds with the runs flag:
// every protocol, under each allocation policy, fully associative over
// 4 lines and 2-way over 8 sets, four-word lines, and write-through
// broadcast with eight- and two-word lines (where the runs span two
// lines and must be ignored). Small caches keep the run's line under
// eviction and invalidation pressure.
func simRunSeeds() [][]byte {
	var seeds [][]byte
	for proto := range byte(numProtocols) {
		for wa := range byte(2) {
			for _, geometry := range []byte{2 << 6, 2<<6 | 2} {
				pes := byte(3)
				if Protocol(proto) == Copyback {
					pes = 0
				}
				header := []byte{pes, fuzzRunsFlag | proto<<1 | wa, geometry, 3}
				seeds = append(seeds, append(header, fuzzRunBody(150)...))
			}
		}
	}
	for _, lineWords := range []byte{3 << 6, 1 << 6} {
		header := []byte{3, fuzzRunsFlag | byte(WriteThroughBroadcast)<<1, lineWords, 3}
		seeds = append(seeds, append(header, fuzzRunBody(150)...))
	}
	return seeds
}

// simUpdateRunSeed is a FuzzSimMatchesReference seed for the one state
// change inside a run. Under write update, 2 PEs with 4 lines each
// both read line 0, PE 1 evicts it, and PE 0 writes it twice in one
// run: a Shared hit that finds no remote copy leaves it Exclusive and
// the second write makes it Modified. PE 0 then evicts it, which
// writes it back.
func simUpdateRunSeed() []byte {
	update := []byte{1, fuzzRunsFlag | byte(WriteThroughBroadcast)<<1 | 1, 2 << 6, 3, 0, 0, 0, 1}
	for line := byte(1); line <= 4; line++ {
		update = append(update, line, 1)
	}
	update = append(update, 0, 1<<3, 0, 1<<3)
	for line := byte(1); line <= 4; line++ {
		update = append(update, line, 0)
	}
	return update
}

// multiSizeRunSeeds are FuzzMultiSizeMatchesSim's seeds with the runs
// flag: each protocol under each allocation policy, four-word lines,
// sizes of 1, 3 and 6 lines.
func multiSizeRunSeeds() [][]byte {
	var seeds [][]byte
	for proto := range byte(3) {
		for wa := range byte(2) {
			pes := byte(3)
			if proto == 2 { // copyback
				pes = 0
			}
			// 2<<6 | 3: four-word lines, 2 + 3%5 sizes.
			header := []byte{pes, fuzzRunsFlag | proto<<1 | wa, 2<<6 | 3, 0, 1, 2}
			seeds = append(seeds, append(header, fuzzRunBody(150)...))
		}
	}
	return seeds
}

// multiSizeMixedSeeds are FuzzMultiSizeMatchesSim's seeds with the
// mixed flag, each protocol's twice. First the stream that breaks
// inclusion across allocation policies (TestMixedAllocationPoliciesShareExactly:
// R a, R b, W x, W y, R a on one PE, one-word lines) through a 2-line
// no-allocate cache and 3-line caches under both policies; then 4 PEs
// sharing with the runs flag through 1 and 3 lines without allocation
// and 2 and 5 lines with it, four-word lines.
func multiSizeMixedSeeds() [][]byte {
	var seeds [][]byte
	for proto := range byte(3) {
		// 1: one-word lines, 2 + 1%5 sizes; 0x80 repeats 3 lines, allocating.
		inclusion := []byte{0, fuzzMixedFlag | proto<<1, 1, 2, 1, 0x80, 0, 0, 1, 0, 2, 1 << 3, 3, 1 << 3, 0, 0}
		pes := byte(3)
		if proto == 2 { // copyback
			pes = 0
		}
		// 2<<6 | 2: four-word lines, 2 + 2%5 sizes.
		sharing := []byte{pes, fuzzMixedFlag | fuzzRunsFlag | proto<<1, 2<<6 | 2, 1, 0x81, 1, 0x82}
		seeds = append(seeds, inclusion, append(sharing, fuzzRunBody(150)...))
	}
	return seeds
}

// FuzzSimMatchesReference: whatever the configuration and the stream,
// Sim equals the reference simulator (refsim_test.go) on Stats, on the
// per-PE bus and reference vectors, and on Stats after Flush — fed as
// one batch, one reference at a time through Add, in batches cut where
// the input says, and through AddRuns with the trace package's runs,
// whole and in those batches — and the OnBus-observed deliveries see
// the reference's event sequence one for one, runs or not.
func FuzzSimMatchesReference(f *testing.F) {
	for _, seed := range slices.Concat(simSeeds(), simFarSeeds(), simRunSeeds(), [][]byte{simUpdateRunSeed()}) {
		f.Add(seed)
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
		runs, splitRuns, observedRuns := New(cfg), New(cfg), New(cfg)
		runs.AddRuns(refs, trace.LineRuns(refs, nil))
		var gotRuns []busEvent
		observedRuns.OnBus = record(&gotRuns)
		for _, b := range fuzzBatches(data, refs) {
			split.AddBatch(b)
			splitRuns.AddRuns(b, trace.LineRuns(b, nil))
			observedRuns.AddRuns(b, trace.LineRuns(b, nil))
		}
		check := func(when string) {
			for _, run := range []struct {
				path string
				sim  *Sim
			}{{"batch", batch}, {"per-reference", observed}, {"split batches", split},
				{"runs", runs}, {"split runs", splitRuns}, {"observed runs", observedRuns}} {
				if run.sim.Stats() != ref.stats || !eqVec(run.sim.PerPEBusWords(), ref.perPEBus) || !eqVec(run.sim.PerPERefs(), ref.perPERefs) {
					t.Errorf("%s %s, %s over %d references:\n got %+v bus %v refs %v\nwant %+v bus %v refs %v",
						run.path, when, cfg.Key(), len(refs), run.sim.Stats(), run.sim.PerPEBusWords(), run.sim.PerPERefs(),
						ref.stats, ref.perPEBus, ref.perPERefs)
				}
			}
			for _, run := range []struct {
				path   string
				events []busEvent
			}{{"per-reference", got}, {"split batches", gotSplit}, {"observed runs", gotRuns}} {
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
		for _, sim := range []interface{ Flush() }{ref, batch, observed, split, runs, splitRuns, observedRuns} {
			sim.Flush()
		}
		check("after Flush")
	})
}

// FuzzMultiSizeMatchesSim: whatever the class and the stream, the
// multi-size structure's Stats at each size equal those of a Sim of
// that size fed the same stream, whether the structure is fed one
// batch or the batch with the trace package's runs (AddRuns). The
// committed corpus holds the stream that separates allocation policies
// (plan_test.go) under each policy and small sharing streams under
// each protocol; the seeds added here share far lines, set the runs
// flag or give each size its own allocation policy.
func FuzzMultiSizeMatchesSim(f *testing.F) {
	f.Add(multiSizeFarSeed())
	for _, seed := range slices.Concat(multiSizeRunSeeds(), multiSizeMixedSeeds()) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, sizes, refs, ok := fuzzMultiSizeCase(data)
		if !ok {
			return
		}
		multi, runs := newMultiSim(cfg, sizes), newMultiSim(cfg, sizes)
		multi.AddBatch(refs)
		runs.AddRuns(refs, trace.LineRuns(refs, nil))
		for k, size := range sizes {
			cfg.SizeWords, cfg.WriteAllocate = size.words, size.allocate
			sim := New(cfg)
			sim.AddBatch(refs)
			for _, run := range []struct {
				path  string
				multi *multiSim
			}{{"batch", multi}, {"runs", runs}} {
				if got, want := run.multi.stats(k), sim.Stats(); got != want {
					t.Errorf("%s of sizes %+v over %d references, %s:\nmulti-size %+v\n       Sim %+v", cfg.Key(), sizes, len(refs), run.path, got, want)
				}
			}
		}
	})
}

// TestFuzzSeedsDecodeAsBefore: the far flag, the narrowed protocol
// byte, the runs flag and the mixed flag leave every seed that predates
// them — both targets' near and far seeds and the committed
// FuzzMultiSizeMatchesSim corpus — decoding to the config and
// references it did before they existed: one reference per two body
// bytes, its word placed by fuzzAddr from the first (the line byte
// itself without the far flag) and its PE, operation and object tag
// read from the second, the protocol the header's byte 1 >> 1, mod the
// protocol count, and every size 1–10 lines above the last under the
// header's allocation policy.
func TestFuzzSeedsDecodeAsBefore(t *testing.T) {
	decodesAsBefore := func(name string, body []byte, far bool, refs []trace.Ref, cfg Config) {
		if len(refs) != len(body)/2 {
			t.Fatalf("%s: %d references from %d body bytes", name, len(refs), len(body))
		}
		for i, r := range refs {
			line, tags := body[2*i], body[2*i+1]
			want := trace.Ref{
				Addr: uint32(line) * uint32(cfg.LineWords),
				PE:   tags & 7 % uint8(cfg.PEs),
				Op:   trace.Op(tags >> 3 & 1),
				Obj:  trace.ObjType(tags >> 4 % uint8(trace.NumObjTypes)),
			}
			if far {
				want.Addr = fuzzAddr(line, true, cfg.LineWords)
			}
			if r != want {
				t.Fatalf("%s: reference %d is %v, want %v", name, i, r, want)
			}
		}
	}
	for i, data := range simSeeds() {
		cfg, refs, ok := fuzzSimCase(data)
		if !ok || cfg.Protocol != Protocol(data[1]>>1%uint8(numProtocols)) {
			t.Fatalf("sim seed %d: decodes to %+v", i, cfg)
		}
		decodesAsBefore("sim seed "+strconv.Itoa(i), data[4:], false, refs, cfg)
	}
	for i, data := range simFarSeeds() {
		cfg, refs, ok := fuzzSimCase(data)
		if !ok || cfg.Protocol != WriteInBroadcast {
			t.Fatalf("sim far seed %d: decodes to %+v", i, cfg)
		}
		decodesAsBefore("sim far seed "+strconv.Itoa(i), data[4:], true, refs, cfg)
	}
	sizesAsBefore := func(name string, data []byte, cfg Config, sizes []cacheSize) {
		lines := 0
		for k, b := range data[3 : 3+len(sizes)] {
			lines += 1 + int(b%10)
			if want := (cacheSize{lines * cfg.LineWords, data[1]&1 != 0}); sizes[k] != want {
				t.Fatalf("%s: size %d is %+v, want %+v", name, k, sizes[k], want)
			}
		}
	}
	far := multiSizeFarSeed()
	cfg, sizes, refs, ok := fuzzMultiSizeCase(far)
	if !ok {
		t.Fatal("the multi-size far seed does not decode")
	}
	sizesAsBefore("multi-size far seed", far, cfg, sizes)
	decodesAsBefore("multi-size far seed", far[3+len(sizes):], true, refs, cfg)
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
		sizesAsBefore(file.Name(), data, cfg, sizes)
		decodesAsBefore(file.Name(), data[3+len(sizes):], data[1]>>3&1 != 0, refs, cfg)
	}
}

// TestFuzzRunSeedsHaveRuns: the runs flag does what it is for. Each
// run seed decodes to streams whose four-word runs are on average more
// than two references long, so the run path takes real runs, while the
// near seeds, decoded as before, hardly have any.
func TestFuzzRunSeedsHaveRuns(t *testing.T) {
	refsPerRun := func(refs []trace.Ref) float64 {
		return float64(len(refs)) / float64(len(trace.LineRuns(refs, nil))-1)
	}
	for i, data := range simRunSeeds() {
		if _, refs, _ := fuzzSimCase(data); refsPerRun(refs) <= 2 {
			t.Errorf("sim run seed %d: %.2f references per run", i, refsPerRun(refs))
		}
	}
	for i, data := range multiSizeRunSeeds() {
		if _, _, refs, _ := fuzzMultiSizeCase(data); refsPerRun(refs) <= 2 {
			t.Errorf("multi-size run seed %d: %.2f references per run", i, refsPerRun(refs))
		}
	}
}
