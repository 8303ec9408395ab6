package cache

import (
	"slices"

	"repro/internal/trace"
)

// SimulateAll replays one buffered trace through every configuration in
// a single concurrent pass: one simulator per residency class (see
// SimulateAllStream), each fed the full trace in order on its own
// goroutine by the fan-out dispatcher, through the replay loops
// (batch.go, multisize.go). Because each simulator still sees the
// references in emission order, the returned statistics are identical
// to running the configurations one by one with Buffer.Replay —
// SimulateAll only changes the wall-clock cost, from one trace walk per
// configuration to one walk total.
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
// Two rules shrink the plan (planSims). A WriteThrough configuration is
// simulated as its WriteInBroadcast twin (same residency; shared when
// both are requested) and its Stats are derived afterwards. Fully
// associative write-in broadcast, hybrid or copyback configurations
// that differ only in SizeWords are simulated by one multi-size
// structure (multisize.go): perfect-LRU caches under one allocation
// policy obey inclusion, so one recency list per PE serves every size.
// WriteThroughBroadcast, set-associative and lone configurations each
// keep a Sim.
func SimulateAllStream(cfgs []Config, replay func(sinks []trace.Sink) error) ([]Stats, error) {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	units, slot := planSims(cfgs)
	sinks := make([]trace.Sink, len(units))
	for i, u := range units {
		if len(u.sizes) == 1 {
			sinks[i] = New(u.cfg)
		} else {
			sinks[i] = newMultiSim(u.cfg, u.sizes)
		}
	}
	if err := replay(sinks); err != nil {
		return nil, err
	}
	out := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		switch s := sinks[slot[i].unit].(type) {
		case *Sim:
			out[i] = s.Stats()
		case *multiSim:
			out[i] = s.stats(slot[i].size)
		}
		if cfg.Protocol == WriteThrough {
			out[i] = writeThroughStats(out[i], cfg.LineWords)
		}
	}
	return out, nil
}

// Simulators returns how many simulators SimulateAllStream builds for
// cfgs: one per structure of the plan, at most len(cfgs).
func Simulators(cfgs []Config) int {
	units, _ := planSims(cfgs)
	return len(units)
}

// simUnit is one structure of a simulation plan: cfg at each of sizes
// (words, ascending, distinct; cfg.SizeWords is sizes[0]). One size is
// served by a Sim, several by a multiSim.
type simUnit struct {
	cfg   Config
	sizes []int
}

// simSlot locates a requested configuration's statistics in a plan.
type simSlot struct {
	unit int // index into the plan's units
	size int // index into that unit's sizes
}

// planSims groups configurations into the structures that simulate
// them, in order of first request (a class split for its size count
// lists its chunks by ascending size); slot[i] serves cfgs[i].
//
// Rule 1: two configurations share a residency class when they are
// equal once WriteThrough is replaced by WriteInBroadcast.
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
//
// Rule 2: fully associative residency classes under WriteInBroadcast,
// Hybrid or Copyback that are equal but for SizeWords — same PEs,
// LineWords and WriteAllocate — share one multi-size structure, up to
// maxSizes sizes each. The argument is in multisize.go; it needs one
// allocation policy (a no-write-allocate cache can keep a line its
// larger write-allocate neighbour evicted), and nothing asks for
// set-indexed or update-protocol size sweeps, so those stay apart.
func planSims(cfgs []Config) (units []simUnit, slot []simSlot) {
	type class struct {
		cfg   Config // SizeWords zeroed when sizes may share a structure
		sizes []int  // distinct, sorted before the split
		first int    // the class's first unit
	}
	var classes []class
	index := make(map[Config]int, len(cfgs))
	of := make([]int, len(cfgs)) // class of cfgs[i]
	for i, cfg := range cfgs {
		if cfg.Protocol == WriteThrough {
			cfg.Protocol = WriteInBroadcast
		}
		size := cfg.SizeWords
		if cfg.Assoc == 0 && cfg.Protocol != WriteThroughBroadcast {
			cfg.SizeWords = 0
		}
		j, ok := index[cfg]
		if !ok {
			j = len(classes)
			index[cfg] = j
			classes = append(classes, class{cfg: cfg})
		}
		if !slices.Contains(classes[j].sizes, size) {
			classes[j].sizes = append(classes[j].sizes, size)
		}
		of[i] = j
	}
	for j := range classes {
		c := &classes[j]
		slices.Sort(c.sizes)
		c.first = len(units)
		for lo := 0; lo < len(c.sizes); lo += maxSizes {
			u := simUnit{cfg: c.cfg, sizes: c.sizes[lo:min(lo+maxSizes, len(c.sizes))]}
			u.cfg.SizeWords = u.sizes[0]
			units = append(units, u)
		}
	}
	slot = make([]simSlot, len(cfgs))
	for i, cfg := range cfgs {
		c := &classes[of[i]]
		k, _ := slices.BinarySearch(c.sizes, cfg.SizeWords)
		slot[i] = simSlot{unit: c.first + k/maxSizes, size: k % maxSizes}
	}
	return units, slot
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

// IndexBytes returns the residency index footprint, in bytes at
// capacity, of a simulator SimulateAllStream builds (a *Sim or a
// multi-size structure), and 0 for any other sink. Benchmarks report it
// beside their replay rates, so a kernel change shows its memory side.
func IndexBytes(sink trace.Sink) int {
	switch s := sink.(type) {
	case *Sim:
		return s.caches[0].idx.ix.bytes()
	case *multiSim:
		return s.pes[0].idx.ix.bytes()
	}
	return 0
}
