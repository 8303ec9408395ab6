package cache

import (
	"testing"

	"repro/internal/trace"
)

// fuzzMultiSizeCase decodes fuzz input into a multi-size class and a
// reference stream: a 3-byte header (PE count 1–8; allocation policy
// and protocol; line size and size count 2–6), one byte per size
// (ascending, 1–60 lines), then two bytes per reference over at most
// 256 lines (line; PE, operation and object tag).
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
	for body := data[3+n:]; len(body) >= 2; body = body[2:] {
		refs = append(refs, trace.Ref{
			Addr: uint32(body[0]) * uint32(cfg.LineWords),
			PE:   body[1] & 7 % uint8(cfg.PEs),
			Op:   trace.Op(body[1] >> 3 & 1),
			Obj:  trace.ObjType(body[1] >> 4 % uint8(trace.NumObjTypes)),
		})
	}
	return cfg, sizes, refs, true
}

// fuzzSimCase decodes fuzz input into one configuration and a reference
// stream: a 4-byte header (PE count 1–8; allocation policy and
// protocol; line size and geometry; geometry size), then two bytes per
// reference over at most 256 lines, as fuzzMultiSizeCase reads them.
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
		Protocol:      Protocol(data[1] >> 1 % uint8(numProtocols)),
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
	for body := data[4:]; len(body) >= 2; body = body[2:] {
		refs = append(refs, trace.Ref{
			Addr: uint32(body[0]) * uint32(cfg.LineWords),
			PE:   body[1] & 7 % uint8(cfg.PEs),
			Op:   trace.Op(body[1] >> 3 & 1),
			Obj:  trace.ObjType(body[1] >> 4 % uint8(trace.NumObjTypes)),
		})
	}
	return cfg, refs, true
}

// FuzzSimMatchesReference: whatever the configuration and the stream,
// Sim equals the reference simulator (refsim_test.go) on Stats, on the
// per-PE bus and reference vectors, and on Stats after Flush — through
// the batch kernels, and through per-reference delivery with an OnBus
// observer, whose event sequence must match the reference's too.
func FuzzSimMatchesReference(f *testing.F) {
	// Direct-mapped conflicts: 2 PEs, write-in broadcast, write-allocate,
	// 4 sets of one line, five lines all mapping to set 0.
	conflict := []byte{1, byte(WriteInBroadcast)<<1 | 1, 2<<6 | 1, 2}
	for i := 0; i < 300; i++ {
		conflict = append(conflict, byte(i%5*4), byte(i%2|i/3%2<<3))
	}
	f.Add(conflict)
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
		f.Add(sharing)
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
		check := func(when string) {
			for _, run := range []struct {
				path string
				sim  *Sim
			}{{"batch", batch}, {"per-reference", observed}} {
				if run.sim.Stats() != ref.stats || !eqVec(run.sim.PerPEBusWords(), ref.perPEBus) || !eqVec(run.sim.PerPERefs(), ref.perPERefs) {
					t.Errorf("%s %s, %s over %d references:\n got %+v bus %v refs %v\nwant %+v bus %v refs %v",
						run.path, when, cfg.Key(), len(refs), run.sim.Stats(), run.sim.PerPEBusWords(), run.sim.PerPERefs(),
						ref.stats, ref.perPEBus, ref.perPERefs)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %s: %d OnBus events, want %d", when, cfg.Key(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, %s: OnBus event %d is %+v, want %+v", when, cfg.Key(), i, got[i], want[i])
				}
			}
		}
		check("after the stream")
		ref.Flush()
		batch.Flush()
		observed.Flush()
		check("after Flush")
	})
}

// FuzzMultiSizeMatchesSim: whatever the class and the stream, the
// multi-size structure's Stats at each size equal those of a Sim of
// that size fed the same stream. The committed corpus holds the stream
// that separates allocation policies (plan_test.go) under each policy
// and small sharing streams under each protocol.
func FuzzMultiSizeMatchesSim(f *testing.F) {
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
