package cache

import "repro/internal/trace"

// SimulateAll replays one buffered trace through every configuration in
// a single concurrent pass: one simulator per configuration, each fed
// the full trace in order on its own goroutine by the fan-out
// dispatcher, through the batch kernels (batch.go). Because each
// simulator still sees the references in emission order, the returned
// statistics are identical to running the configurations one by one
// with Buffer.Replay — SimulateAll only changes the wall-clock cost,
// from one trace walk per configuration to one walk total.
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
// validates every configuration, builds one simulator per
// configuration, hands their sinks to replay — which must deliver the
// full stream to each sink in emission order (e.g. via trace.FanOut or
// a store's chunked decode) — and collects per-configuration
// statistics. The experiments grid uses it to stream traces from disk
// without materializing them.
func SimulateAllStream(cfgs []Config, replay func(sinks []trace.Sink) error) ([]Stats, error) {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	sims := make([]*Sim, len(cfgs))
	sinks := make([]trace.Sink, len(cfgs))
	for i, cfg := range cfgs {
		sims[i] = New(cfg)
		sinks[i] = sims[i]
	}
	if err := replay(sinks); err != nil {
		return nil, err
	}
	out := make([]Stats, len(cfgs))
	for i, sim := range sims {
		out[i] = sim.Stats()
	}
	return out, nil
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
