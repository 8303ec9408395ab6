package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// replay-large: the cache simulator (and trace.FanOut) do nearly all
// the work and the emulator none in the timed part. fa and sa drive
// the same layer through its two residency structures — the fully
// associative lookup/LRU and the set-indexed path — so a gain for one
// that costs the other shows; stream adds trace decode and store reads
// at a working set far above the modelled caches.
type replayWorkload struct {
	cells  []cell
	keys   []rapwam.TraceKey
	traces []*rapwam.Trace
	store  *rapwam.TraceStore
	rounds int
}

func (w *replayWorkload) roundsPerPass() int { return len(replayPhases) }

func (w *replayWorkload) phases() [3]phase {
	return [3]phase{
		{"replay_fa_mrefcfg_s", "Mrefcfg/s", same},
		{"replay_sa_mrefcfg_s", "Mrefcfg/s", same},
		{"replay_stream_mrefcfg_s", "Mrefcfg/s", same},
	}
}

var cacheSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// faGroups is the Figure-4 grid — 3 protocols x 8 sizes, fully
// associative, the paper's write-allocate policy — one group per size.
// A group is what one replay call is handed, and so one timed unit: a
// seventh of a second on the large trace, short enough that some of a
// run's units fall between a shared host's disturbances.
func faGroups(pes int) [][]rapwam.CacheConfig {
	var out [][]rapwam.CacheConfig
	for _, size := range cacheSizes {
		var g []rapwam.CacheConfig
		for _, p := range []rapwam.Protocol{rapwam.WriteInBroadcast, rapwam.Hybrid, rapwam.WriteThrough} {
			g = append(g, faConfig(pes, p, size))
		}
		out = append(out, g)
	}
	return out
}

func faConfigs(pes int) []rapwam.CacheConfig { return slices.Concat(faGroups(pes)...) }

// faConfig is one fully associative configuration: four-word lines and
// the paper's write-allocate policy for the protocol and size.
func faConfig(pes int, p rapwam.Protocol, size int) rapwam.CacheConfig {
	return rapwam.CacheConfig{PEs: pes, SizeWords: size, LineWords: 4, Protocol: p, WriteAllocate: rapwam.PaperWriteAllocate(p, size)}
}

// saGroups is ways 1,2,4,8 x sizes 256..8192, write-in broadcast, one
// group per size.
func saGroups(pes int) [][]rapwam.CacheConfig {
	var out [][]rapwam.CacheConfig
	for _, size := range cacheSizes[2:] {
		var g []rapwam.CacheConfig
		for _, ways := range []int{1, 2, 4, 8} {
			g = append(g, rapwam.CacheConfig{PEs: pes, SizeWords: size, LineWords: 4, Protocol: rapwam.WriteInBroadcast, WriteAllocate: true, Assoc: ways})
		}
		out = append(out, g)
	}
	return out
}

func saConfigs(pes int) []rapwam.CacheConfig { return slices.Concat(saGroups(pes)...) }

// groups are the configuration groups of a phase; a group's name is
// its cache size.
func groups(phase string, pes int) [][]rapwam.CacheConfig {
	if phase == "sa" {
		return saGroups(pes)
	}
	return faGroups(pes)
}

// timedSims builds one simulator per configuration, each behind a
// timed sink.
func timedSims(cfgs []rapwam.CacheConfig) ([]*cache.Sim, []*timedSink, []trace.Sink) {
	sims := make([]*cache.Sim, len(cfgs))
	timed := make([]*timedSink, len(cfgs))
	sinks := make([]trace.Sink, len(cfgs))
	for i, cfg := range cfgs {
		sims[i] = cache.New(cfg)
		timed[i] = &timedSink{inner: sims[i]}
		sinks[i] = timed[i]
	}
	return sims, timed, sinks
}

func configKey(c rapwam.CacheConfig) string {
	return fmt.Sprintf("%s-%dw-a%d", c.Protocol, c.SizeWords, c.Assoc)
}

// setup stores the three traces (one engine run each, streamed into
// the store) and loads them back into RAM.
func (w *replayWorkload) setup(e *env) (err error) {
	defer guard(&err)
	z := drawSizes(e.seed, e.smoke)
	w.cells = []cell{par8("qsort-%d", z.qsort8), par8("matrix-%d", z.matrix), seq1("primes-%d", z.primes)}
	dir := filepath.Join(e.work, "replay-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := rapwam.SetTraceDir(dir)
	if err != nil {
		return err
	}
	w.store, w.keys, w.traces = store, nil, nil
	ctx := context.Background()
	for _, c := range w.cells {
		b, err := c.benchmark()
		if err != nil {
			return err
		}
		k, err := rapwam.EnsureTraceStored(ctx, b, c.pes, c.seq)
		if err != nil {
			return err
		}
		tr, err := rapwam.TraceBenchmark(ctx, b, c.pes, c.seq)
		if err != nil {
			return err
		}
		w.keys, w.traces = append(w.keys, k), append(w.traces, tr)
	}
	return nil
}

func (w *replayWorkload) close() {
	rapwam.SetTraceStore(nil)
	w.traces = nil
}

// check pins every configuration's simulated counts.
func (w *replayWorkload) check(e *env, c cell, cfgs []rapwam.CacheConfig, stats []rapwam.CacheStats, refs int64) {
	for i, st := range stats {
		key := "cache/" + c.String() + "/" + configKey(cfgs[i])
		if st.Refs != refs {
			e.fail("%s: simulated %d references of %d", key, st.Refs, refs)
		}
		e.count(key+"/misses", st.Misses())
		e.count(key+"/bus_words", st.BusWords)
	}
}

// streamReplay feeds cfgs from the store, as the experiments grid does
// with a store attached: chunked decode from disk into a fan-out.
func (w *replayWorkload) streamReplay(k rapwam.TraceKey, cfgs []rapwam.CacheConfig) ([]rapwam.CacheStats, error) {
	return cache.SimulateAllStream(cfgs, func(sinks []trace.Sink) error {
		f := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
		_, err := w.store.Replay(k, f)
		f.Close()
		return err
	})
}

var replayPhases = []string{"fa", "sa", "stream"}

// round is one phase over the three traces, the phases taking turns.
func (w *replayWorkload) round(e *env) {
	w.phase(e, w.rounds%len(replayPhases))
	w.rounds++
}

// phase replays every trace through every group of the phase's
// configurations, one timed unit per trace and group.
func (w *replayWorkload) phase(e *env, phaseNo int) {
	name := replayPhases[phaseNo]
	for i, c := range w.cells {
		e.pulse()
		refs := int64(w.traces[i].Len())
		for _, cfgs := range groups(name, c.pes) {
			e.op()
			var stats []rapwam.CacheStats
			var err error
			runtime.GC() // every replay starts from the same heap
			t0 := time.Now()
			if name == "stream" {
				stats, err = w.streamReplay(w.keys[i], cfgs)
			} else {
				stats, err = w.traces[i].ReplayAll(cfgs)
			}
			d := time.Since(t0)
			if err != nil {
				e.fail("%s %s: %v", name, c, err)
				continue
			}
			w.check(e, c, cfgs, stats, refs)
			unit := fmt.Sprintf("%s %dw", c, cfgs[0].SizeWords)
			e.unit(fmt.Sprintf("phase%d_rate", phaseNo+1), unit, float64(refs)*float64(len(cfgs))/1e6, d)
		}
	}
}

func (w *replayWorkload) traced(e *env) {
	// The same three phases, with the harness building the simulators
	// itself so that each one's time is measured at its sink boundary.
	var equiv time.Duration
	bufs := make([]*trace.Buffer, len(w.cells))
	for i, c := range w.cells {
		e.rec.do(e.rootSpan, "tracestore", "Load "+c.String(), func() {
			buf, _, err := w.store.Load(w.keys[i])
			if err != nil {
				e.fail("load %s: %v", c, err)
				buf = &trace.Buffer{}
			}
			bufs[i] = buf
		})
	}
	for _, name := range replayPhases {
		phaseSpan := e.rec.start(e.rootSpan, "harness", name)
		for i, c := range w.cells {
			for _, cfgs := range groups(name, c.pes) {
				w.tracedReplay(e, phaseSpan, name, c, w.keys[i], bufs[i], cfgs)
			}
		}
		equiv += e.rec.end(phaseSpan, nil)
	}
	e.set("harness.trace_overhead_pct", 100*(equiv.Seconds()-e.reference.Seconds())/e.reference.Seconds())

	w.tracedLayers(e, w.cells[0], w.keys[0], bufs[0], bufs[1])
}

// tracedReplay is one unit of a phase with the simulators built by
// the harness. They run concurrently behind the fan-out: their span is
// the time any of them was running, and what is left of the fan-out's
// own span is dispatch and waiting.
func (w *replayWorkload) tracedReplay(e *env, phaseSpan int, phase string, c cell, k rapwam.TraceKey, buf *trace.Buffer, cfgs []rapwam.CacheConfig) {
	e.op()
	var sims []*cache.Sim
	var timed []*timedSink
	var sinks []trace.Sink
	e.rec.do(phaseSpan, "cache", "New", func() { sims, timed, sinks = timedSims(cfgs) })
	var fanSpan int
	if phase == "stream" {
		storeSpan := e.rec.start(phaseSpan, "tracestore", "Replay "+c.String())
		fanOut := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
		fan := &timedSink{inner: fanOut}
		_, err := w.store.Replay(k, fan)
		// Close drains the consumers, so it belongs to the fan-out.
		t0 := time.Now()
		fanOut.Close()
		drain := time.Since(t0)
		e.rec.end(storeSpan, nil)
		if err != nil {
			e.fail("traced stream %s: %v", c, err)
		}
		fanSpan = e.rec.folded(storeSpan, "trace", "FanOut", fan.busy+drain, fan.counts())
	} else {
		fanSpan = e.rec.start(phaseSpan, "trace", "Buffer.ReplayAll "+c.String())
		buf.ReplayAll(sinks...)
		e.rec.end(fanSpan, nil)
	}
	union, counts := busyUnion(timed)
	e.rec.folded(fanSpan, "cache", fmt.Sprintf("Sim.AddBatch x%d", len(timed)), union, counts)
	stats := make([]rapwam.CacheStats, len(cfgs))
	for j := range timed {
		stats[j] = sims[j].Stats()
	}
	w.check(e, c, cfgs, stats, int64(buf.Len()))
}

// tracedLayers measures the trace, tracestore, storage and cache
// layers one call at a time on the large trace (allocation counting
// on the smaller one).
func (w *replayWorkload) tracedLayers(e *env, c cell, k rapwam.TraceKey, buf, small *trace.Buffer) {
	refs := float64(buf.Len())
	mrefs := func(d time.Duration) float64 { return refs / 1e6 / d.Seconds() }
	root := e.rootSpan
	// The count is declared up front, as WriteCompact does, so that the
	// streaming encoders write the same header it does.
	meta := trace.Meta{Benchmark: k.Benchmark, PEs: k.PEs, Sequential: k.Sequential, EmulatorVersion: k.EmulatorVersion, Refs: int64(buf.Len())}

	// Both encoders write into pre-grown memory, so neither is timed
	// reallocating its output.
	var encoded, encoded2 bytes.Buffer
	encoded.Grow(buf.Len() * 4)
	encoded2.Grow(buf.Len() * 4)
	d := e.rec.do(root, "trace", "WriteCompact", func() {
		if err := buf.WriteCompact(&encoded, meta); err != nil {
			e.fail("WriteCompact: %v", err)
		}
	})
	e.set("trace.encode_mrefs_s", mrefs(d))
	e.set("trace.bytes_per_ref", float64(encoded.Len())/refs)
	e.count("trace/"+c.String()+"/bytes", int64(encoded.Len()))

	d = e.rec.do(root, "trace", "ParallelChunkWriter(2)", func() {
		cw, err := trace.NewParallelChunkWriter(&encoded2, meta, 2)
		if err != nil {
			e.fail("NewParallelChunkWriter: %v", err)
			return
		}
		buf.Replay(cw)
		if err := cw.Close(); err != nil {
			e.fail("ParallelChunkWriter.Close: %v", err)
		}
	})
	if !bytes.Equal(encoded.Bytes(), encoded2.Bytes()) {
		e.fail("parallel encoder wrote %d bytes that differ from the sequential encoder's %d", encoded2.Len(), encoded.Len())
	}
	e.set("trace.encode_w2_mrefs_s", mrefs(d))

	d = e.rec.do(root, "trace", "ReadCompact", func() {
		got, _, err := trace.ReadCompact(bytes.NewReader(encoded.Bytes()))
		if err != nil {
			e.fail("ReadCompact: %v", err)
		} else if got.Len() != buf.Len() {
			e.fail("ReadCompact: %d references of %d", got.Len(), buf.Len())
		}
	})
	e.set("trace.decode_mrefs_s", mrefs(d))

	d = e.rec.do(root, "trace", "FanOut x24 discard", func() {
		sinks := make([]trace.Sink, 24)
		for i := range sinks {
			sinks[i] = trace.Discard
		}
		buf.ReplayAll(sinks...)
	})
	e.set("trace.fanout_ns_per_ref", float64(d.Nanoseconds())/refs)

	// tracestore: one put, one streamed replay, one load, on a fresh store.
	s2, err := tracestore.Open(filepath.Join(e.work, "traced-store"))
	if err != nil {
		e.fail("tracestore.Open: %v", err)
		return
	}
	d = e.rec.do(root, "tracestore", "Put", func() {
		err := s2.Put(k, func(sink trace.Sink) error { buf.Replay(sink); return nil })
		if err != nil {
			e.fail("tracestore.Put: %v", err)
		}
	})
	e.set("tracestore.put_s", d.Seconds())
	if _, size, err := s2.Meta(k); err != nil {
		e.fail("tracestore.Meta: %v", err)
	} else {
		e.set("tracestore.bytes", float64(size))
		e.count("trace/"+c.String()+"/bytes", size)
	}
	d = e.rec.do(root, "tracestore", "Replay", func() {
		var counter trace.Counter
		if _, err := s2.Replay(k, &counter); err != nil {
			e.fail("tracestore.Replay: %v", err)
		} else if counter.Total() != int64(buf.Len()) {
			e.fail("tracestore.Replay: %d references of %d", counter.Total(), buf.Len())
		}
	})
	e.set("tracestore.replay_mrefs_s", mrefs(d))
	d = e.rec.do(root, "tracestore", "Load", func() {
		if _, _, err := s2.Load(k); err != nil {
			e.fail("tracestore.Load: %v", err)
		}
	})
	e.set("tracestore.load_s", d.Seconds())
	d = e.rec.do(root, "tracestore", "LoadSidecar", func() {
		var rec bench.RunRecord
		if ok, err := w.store.LoadSidecar(k, &rec); err != nil || !ok {
			e.fail("tracestore.LoadSidecar: ok=%t err=%v", ok, err)
		}
	})
	e.set("tracestore.sidecar_us", float64(d.Nanoseconds())/1e3)

	// storage: the encoded trace as one object through a Dir backend.
	dir, err := storage.NewDir(filepath.Join(e.work, "traced-dir"), time.Hour)
	if err != nil {
		e.fail("storage.NewDir: %v", err)
		return
	}
	mb := float64(encoded.Len()) / 1e6
	d = e.rec.do(root, "storage", "Dir.Put", func() {
		err := dir.Put("blob", func(out io.Writer) error { _, err := out.Write(encoded.Bytes()); return err })
		if err != nil {
			e.fail("Dir.Put: %v", err)
		}
	})
	e.set("storage.dir_put_mb_s", mb/d.Seconds())
	d = e.rec.do(root, "storage", "Dir.Get", func() {
		rc, err := dir.Get("blob")
		if err != nil {
			e.fail("Dir.Get: %v", err)
			return
		}
		defer rc.Close()
		if n, err := io.Copy(io.Discard, rc); err != nil || n != int64(encoded.Len()) {
			e.fail("Dir.Get: read %d bytes of %d: %v", n, encoded.Len(), err)
		}
	})
	e.set("storage.dir_get_mb_s", mb/d.Seconds())

	// cache: one configuration at a time, no fan-out.
	single := func(metric string, cfg rapwam.CacheConfig) rapwam.CacheStats {
		var sim *cache.Sim
		d := e.rec.do(root, "cache", "New+Replay "+configKey(cfg), func() {
			sim = cache.New(cfg)
			buf.Replay(sim)
		})
		e.set(metric, float64(d.Nanoseconds())/refs)
		return sim.Stats()
	}
	fa := func(p rapwam.Protocol, size int) rapwam.CacheConfig { return faConfig(c.pes, p, size) }
	sa := func(ways int) rapwam.CacheConfig {
		return rapwam.CacheConfig{PEs: c.pes, SizeWords: 1024, LineWords: 4, Protocol: rapwam.WriteInBroadcast, WriteAllocate: true, Assoc: ways}
	}
	single("cache.fa_ns_per_ref.wt", fa(rapwam.WriteThrough, 1024))
	pinned := single("cache.fa_ns_per_ref.wib", fa(rapwam.WriteInBroadcast, 1024))
	single("cache.fa_ns_per_ref.hyb", fa(rapwam.Hybrid, 1024))
	single("cache.fa_ns_per_ref.64w", fa(rapwam.WriteInBroadcast, 64))
	single("cache.fa_ns_per_ref.8192w", fa(rapwam.WriteInBroadcast, 8192))
	single("cache.sa_ns_per_ref.w1", sa(1))
	single("cache.sa_ns_per_ref.w4", sa(4))
	e.set("cache.refs", float64(pinned.Refs))
	e.set("cache.misses", float64(pinned.Misses()))
	e.set("cache.bus_words", float64(pinned.BusWords))

	cfgs := saConfigs(c.pes)
	d = e.rec.do(root, "cache", "SimulateAllShards(2)", func() {
		stats, err := cache.SimulateAllShards(buf, cfgs, 2)
		if err != nil {
			e.fail("SimulateAllShards: %v", err)
			return
		}
		w.check(e, c, cfgs, stats, int64(buf.Len()))
	})
	e.set("cache.sharded2_mrefcfg_s", refs*float64(len(cfgs))/1e6/d.Seconds())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.rec.do(root, "cache", "SimulateAll (allocs)", func() {
		if _, err := cache.SimulateAll(small, faConfigs(8)); err != nil {
			e.fail("SimulateAll: %v", err)
		}
	})
	runtime.ReadMemStats(&after)
	e.set("cache.allocs_per_replay", float64(after.Mallocs-before.Mallocs))
}
