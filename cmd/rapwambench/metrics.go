package main

// The declared metrics. BENCHMARK.json lists exactly these names (a
// test holds the two together): every workload reports every
// end-to-end metric on an untraced run and every per-layer metric on a
// traced run, a per-layer metric reading 0 on a workload that never
// calls the layer.

type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// exact marks a simulated quantity or an operation count: it must
	// be identical on any two runs of the same seed and emulator
	// version, and -compare treats any difference as a failure.
	exact bool
}

// The end-to-end metrics are the same five on every workload. The
// three rates are what the workload's three phases completed per
// second of host time; what a phase is, and the unit of work it
// counts, is the workload's (see phases in each wl_*.go, and README).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "phase1_rate", unit: "work/s", better: "higher"},
	{name: "phase2_rate", unit: "work/s", better: "higher"},
	{name: "phase3_rate", unit: "work/s", better: "higher"},
}

var perLayer = []metricDef{
	{name: "parse.ms", unit: "ms", better: "lower"},
	{name: "parse.clauses", unit: "count", better: "lower", exact: true},
	{name: "compile.ms", unit: "ms", better: "lower"},
	{name: "compile.instrs", unit: "count", better: "lower", exact: true},

	{name: "core.run_s", unit: "s", better: "lower"},
	{name: "core.seq_ns_per_instr", unit: "ns", better: "lower"},
	{name: "core.par8_ns_per_ref", unit: "ns", better: "lower"},
	{name: "core.sink_ns_per_ref", unit: "ns", better: "lower"},
	{name: "core.execshards2_mrefs_s", unit: "Mrefs/s", better: "higher"},
	{name: "core.instrs", unit: "count", better: "lower", exact: true},
	{name: "core.cycles", unit: "count", better: "lower", exact: true},
	{name: "core.refs", unit: "count", better: "lower", exact: true},

	{name: "trace.buffer_ns_per_ref", unit: "ns", better: "lower"},
	{name: "trace.encode_mrefs_s", unit: "Mrefs/s", better: "higher"},
	{name: "trace.encode_w2_mrefs_s", unit: "Mrefs/s", better: "higher"},
	{name: "trace.decode_mrefs_s", unit: "Mrefs/s", better: "higher"},
	{name: "trace.fanout_ns_per_ref", unit: "ns", better: "lower"},
	{name: "trace.bytes_per_ref", unit: "B", better: "lower", exact: true},

	{name: "tracestore.put_s", unit: "s", better: "lower"},
	{name: "tracestore.replay_mrefs_s", unit: "Mrefs/s", better: "higher"},
	{name: "tracestore.load_s", unit: "s", better: "lower"},
	{name: "tracestore.sidecar_us", unit: "us", better: "lower"},
	{name: "tracestore.bytes", unit: "count", better: "lower", exact: true},
	{name: "tracestore.cold_hits", unit: "count", better: "higher", exact: true},
	{name: "tracestore.cold_misses", unit: "count", better: "lower", exact: true},
	{name: "tracestore.cold_puts", unit: "count", better: "lower", exact: true},
	{name: "tracestore.warm_hits", unit: "count", better: "higher", exact: true},
	{name: "tracestore.warm_misses", unit: "count", better: "lower", exact: true},

	{name: "storage.dir_put_mb_s", unit: "MB/s", better: "higher"},
	{name: "storage.dir_get_mb_s", unit: "MB/s", better: "higher"},
	{name: "storage.peer_get_p50_us", unit: "us", better: "lower"},

	{name: "cache.fa_ns_per_ref.wt", unit: "ns", better: "lower"},
	{name: "cache.fa_ns_per_ref.wib", unit: "ns", better: "lower"},
	{name: "cache.fa_ns_per_ref.hyb", unit: "ns", better: "lower"},
	{name: "cache.fa_ns_per_ref.64w", unit: "ns", better: "lower"},
	{name: "cache.fa_ns_per_ref.8192w", unit: "ns", better: "lower"},
	{name: "cache.sa_ns_per_ref.w1", unit: "ns", better: "lower"},
	{name: "cache.sa_ns_per_ref.w4", unit: "ns", better: "lower"},
	{name: "cache.sharded2_mrefcfg_s", unit: "Mrefcfg/s", better: "higher"},
	{name: "cache.allocs_per_replay", unit: "count", better: "lower"},
	{name: "cache.refs", unit: "count", better: "lower", exact: true},
	{name: "cache.misses", unit: "count", better: "lower", exact: true},
	{name: "cache.bus_words", unit: "count", better: "lower", exact: true},

	{name: "bench.ensure_stored_s", unit: "s", better: "lower"},
	{name: "bench.engine_runs", unit: "count", better: "lower", exact: true},
	{name: "bench.warm_engine_runs", unit: "count", better: "lower", exact: true},

	{name: "experiments.fig2_ms", unit: "ms", better: "lower"},
	{name: "experiments.table2_ms", unit: "ms", better: "lower"},
	{name: "experiments.table3_ms", unit: "ms", better: "lower"},
	{name: "experiments.fig4_ms", unit: "ms", better: "lower"},
	{name: "experiments.mlips_ms", unit: "ms", better: "lower"},
	{name: "experiments.bus_ms", unit: "ms", better: "lower"},
	{name: "experiments.ablations_ms", unit: "ms", better: "lower"},
	{name: "experiments.render_us", unit: "us", better: "lower"},
	{name: "experiments.par1_cold_s", unit: "s", better: "lower"},
	{name: "experiments.cold_cpu_s", unit: "s", better: "lower"},
	{name: "experiments.warm_cpu_s", unit: "s", better: "lower"},

	{name: "service.warm_p50_us", unit: "us", better: "lower"},
	{name: "service.warm_p99_us", unit: "us", better: "lower"},
	{name: "service.mem_hit_p50_us", unit: "us", better: "lower"},
	{name: "service.disk_hit_p50_us", unit: "us", better: "lower"},
	{name: "service.peer_fetch_p50_us", unit: "us", better: "lower"},
	{name: "service.proxy_cold_ms", unit: "ms", better: "lower"},
	{name: "service.cold_overhead_ms", unit: "ms", better: "lower"},
	{name: "service.warm_1client_rps", unit: "req/s", better: "higher"},
	{name: "service.computes", unit: "count", better: "lower"},
	{name: "service.sheds", unit: "count", better: "lower"},
	{name: "service.requests_by_source.memory", unit: "count", better: "higher"},
	{name: "service.requests_by_source.disk", unit: "count", better: "higher"},
	{name: "service.requests_by_source.computed", unit: "count", better: "lower"},
	{name: "service.requests_by_source.peer", unit: "count", better: "higher"},
	{name: "service.requests_by_source.proxied", unit: "count", better: "lower"},

	{name: "self_ms.parse", unit: "ms", better: "lower"},
	{name: "self_ms.compile", unit: "ms", better: "lower"},
	{name: "self_ms.core", unit: "ms", better: "lower"},
	{name: "self_ms.trace", unit: "ms", better: "lower"},
	{name: "self_ms.tracestore", unit: "ms", better: "lower"},
	{name: "self_ms.storage", unit: "ms", better: "lower"},
	{name: "self_ms.cache", unit: "ms", better: "lower"},
	{name: "self_ms.bench", unit: "ms", better: "lower"},
	{name: "self_ms.experiments", unit: "ms", better: "lower"},
	{name: "self_ms.service", unit: "ms", better: "lower"},
	{name: "self_ms.harness", unit: "ms", better: "lower"},

	{name: "harness.calib_ms_before", unit: "ms", better: "lower"},
	{name: "harness.calib_ms_after", unit: "ms", better: "lower"},
	{name: "harness.traced_wall_ms", unit: "ms", better: "lower"},
	{name: "harness.attributed_pct", unit: "%", better: "higher"},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
}
