package cache

import "repro/internal/trace"

// SimulateAll replays one buffered trace through every configuration in
// a single concurrent pass: one simulator per residency class (see
// SimulateAllStream), each fed the full trace in order on its own
// goroutine by the fan-out dispatcher, through the batch kernels
// (batch.go). Because each simulator still sees the references in
// emission order, the returned statistics are identical to running the
// configurations one by one with Buffer.Replay — SimulateAll only
// changes the wall-clock cost, from one trace walk per configuration to
// one walk total.
//
// All configurations are validated up front; on error nothing is
// simulated.
func SimulateAll(buf *trace.Buffer, cfgs []Config) ([]Stats, error) {
	return SimulateAllStream(cfgs, func(sinks []trace.Sink) error {
		buf.ReplayAll(sinks...)
		return nil
	})
}

// SimulateAllStream is SimulateAll over any reference source: it
// validates every configuration, builds one simulator per residency
// class, hands their sinks to replay — which must deliver the full
// stream to each sink in emission order (e.g. via trace.FanOut or a
// store's chunked decode) — and collects per-configuration statistics
// in the order of cfgs. The experiments grid uses it to stream traces
// from disk without materializing them.
//
// A WriteThrough configuration is simulated as its WriteInBroadcast
// twin (same residency; shared when both are requested) and its Stats
// are derived afterwards; Hybrid and WriteThroughBroadcast are not
// residency-equivalent and keep their own simulators (see planSims).
func SimulateAllStream(cfgs []Config, replay func(sinks []trace.Sink) error) ([]Stats, error) {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	build, slot := planSims(cfgs)
	sims := make([]*Sim, len(build))
	sinks := make([]trace.Sink, len(build))
	for i, cfg := range build {
		sims[i] = New(cfg)
		sinks[i] = sims[i]
	}
	if err := replay(sinks); err != nil {
		return nil, err
	}
	out := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = sims[slot[i]].Stats()
		if cfg.Protocol == WriteThrough {
			out[i] = writeThroughStats(out[i], cfg.LineWords)
		}
	}
	return out, nil
}

// Simulators returns how many simulators SimulateAllStream builds for
// cfgs: one per residency class, at most len(cfgs).
func Simulators(cfgs []Config) int {
	build, _ := planSims(cfgs)
	return len(build)
}

// planSims groups configurations into residency classes: build lists
// the configuration to simulate for each class, in order of first
// request, and slot[i] is the class serving cfgs[i]. Two configurations
// share a class when they are equal once WriteThrough is replaced by
// WriteInBroadcast.
//
// Why the replacement is exact: under write-in broadcast a line in
// state Exclusive or Modified has no remote holder — a remote read
// demotes it to Shared, a remote allocating write demotes then
// invalidates it, a remote non-allocating write invalidates it without
// acquiring a copy — so the write hits that stay silent have nothing to
// invalidate, and "after a write by PE p to line L no other PE holds L"
// holds under both protocols. Both promote on every hit, fill on every
// read miss and on a write miss iff WriteAllocate, and evict the LRU
// line. By induction over the trace the two hold the same lines in the
// same LRU order in every cache, so hits, misses, victims, the snoop
// directory and the invalidation counts are identical; only the bus
// traffic differs, and write-through's is a closed form
// (writeThroughStats).
//
// Hybrid is not twinned: a Local-tagged write leaves remote copies of
// the line in place (environment control words and permanent variables
// share lines), so its residency diverges. WriteThroughBroadcast
// updates remote copies instead of invalidating them.
func planSims(cfgs []Config) (build []Config, slot []int) {
	class := make(map[Config]int, len(cfgs))
	slot = make([]int, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Protocol == WriteThrough {
			cfg.Protocol = WriteInBroadcast
		}
		j, ok := class[cfg]
		if !ok {
			j = len(build)
			class[cfg] = j
			build = append(build, cfg)
		}
		slot[i] = j
	}
	return build, slot
}

// writeThroughStats derives a write-through-invalidate cache's
// statistics from its write-in broadcast twin's run over the same
// trace: references, misses, fills and invalidations carry over (same
// residency, see planSims); a write-through cache never holds a dirty
// line and never broadcasts an update, and its bus carries every line
// fill plus one word per write.
func writeThroughStats(st Stats, lineWords int) Stats {
	st.WriteBacks, st.Updates = 0, 0
	st.WriteThroughs = st.Writes
	st.BusWords = st.LineFills*int64(lineWords) + st.Writes
	return st
}

// SimulateAllShards is SimulateAll with each set-shardable
// configuration (see EffectiveShards) replayed by up to shards workers
// partitioned by cache set and merged by the deterministic reduction
// in Sharded.Close — bit-identical to SimulateAll. No product code
// calls it: it is retained, with sharded.go, for the benchmark
// harness's per-layer probe (cache.sharded2_mrefcfg_s).
func SimulateAllShards(buf *trace.Buffer, cfgs []Config, shards int) ([]Stats, error) {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	sinks := make([]trace.Sink, len(cfgs))
	for i, cfg := range cfgs {
		if EffectiveShards(cfg, shards) > 1 {
			sinks[i] = NewSharded(cfg, shards)
		} else {
			sinks[i] = New(cfg)
		}
	}
	buf.ReplayAll(sinks...)
	out := make([]Stats, len(cfgs))
	for i, sink := range sinks {
		switch s := sink.(type) {
		case *Sharded:
			s.Close()
			out[i] = s.Stats()
		case *Sim:
			out[i] = s.Stats()
		}
	}
	return out, nil
}
