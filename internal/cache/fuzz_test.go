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
