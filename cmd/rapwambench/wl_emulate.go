package main

import (
	"context"
	"runtime"
	"time"

	"repro"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/parse"
	"repro/internal/trace"
)

// emulate-large: parse, compile, core and mem do nearly all the work
// and the cache simulator none. An emulator change must show here and
// nowhere in replay-large.
type emulateWorkload struct {
	par, seq []cell
}

func (w *emulateWorkload) roundsPerPass() int { return 1 }

func (w *emulateWorkload) phases() [3]phase {
	return [3]phase{
		{"emu_seq_mlips", "Minstr/s", same},
		{"emu_par8_mrefs_s", "Mrefs/s", same},
		{"emu_capture_mrefs_s", "Mrefs/s", same},
	}
}

// setup generates the inputs and runs every cell once, so the engine's
// memory slabs are pooled and the code is paged in before timing.
func (w *emulateWorkload) setup(e *env) (err error) {
	defer guard(&err)
	z := drawSizes(e.seed, e.smoke)
	w.par = []cell{par8("qsort-%d", z.qsort8), par8("matrix-%d", z.matrix), par8("deriv-%d", z.deriv)}
	w.seq = []cell{seq1("qsort-%d", z.qsortSeq), seq1("primes-%d", z.primes), seq1("nrev-%d", z.nrev), seq1("queens-%d", z.queens)}
	for _, c := range w.all() {
		b, err := c.benchmark()
		if err != nil {
			return err
		}
		if _, err := rapwam.RunBenchmark(context.Background(), b, c.pes, c.seq); err != nil {
			return err
		}
	}
	return nil
}

func (w *emulateWorkload) close() {}

func (w *emulateWorkload) all() []cell { return append(append([]cell(nil), w.par...), w.seq...) }

// emuRun is what one engine run of a cell yielded.
type emuRun struct {
	wall   time.Duration
	instrs int64
	refs   int64
}

// run executes c once: with no sink ("run"), into a counting sink
// ("stream") or into an in-RAM trace buffer ("capture"). Any engine
// error — a layout overflow included — and any count that differs
// from the cell's other runs is a failed operation.
func (w *emulateWorkload) run(e *env, c cell, mode string) (emuRun, bool) {
	e.op()
	// Every run starts from the same heap, whatever ran before: the
	// collections its own allocation causes fall inside it, in every
	// unit alike, so a kind's fastest unit has paid for them too.
	runtime.GC()
	out, err := w.timed(e, c, mode)
	if err != nil {
		e.fail("%s %s: %v", mode, c, err)
		return out, false
	}
	e.count("cell/"+c.String()+"/refs", out.refs)
	return out, true
}

func (w *emulateWorkload) timed(e *env, c cell, mode string) (out emuRun, err error) {
	defer guard(&err)
	b, err := c.benchmark()
	if err != nil {
		return out, err
	}
	ctx := context.Background()
	t0 := time.Now()
	if mode == "capture" {
		tr, err := rapwam.TraceBenchmark(ctx, b, c.pes, c.seq)
		out.wall = time.Since(t0)
		if err != nil {
			return out, err
		}
		out.refs = int64(tr.Len())
		return out, nil
	}
	var counter rapwam.RefCounter
	var res *rapwam.Result
	if mode == "run" {
		res, err = rapwam.RunBenchmark(ctx, b, c.pes, c.seq)
	} else {
		res, err = rapwam.TraceBenchmarkTo(ctx, b, c.pes, c.seq, &counter)
	}
	out.wall = time.Since(t0)
	if err != nil {
		return out, err
	}
	out.instrs, out.refs = res.Stats.TotalInstructions(), res.Refs.Total()
	e.count("cell/"+c.String()+"/instrs", out.instrs)
	e.count("cell/"+c.String()+"/cycles", res.Stats.Cycles)
	if mode == "stream" {
		e.count("cell/"+c.String()+"/refs", counter.Total())
	}
	return out, nil
}

// round is one pass: run over the sequential cells, stream over the
// 8-PE cells, capture over all of them. Every engine run is one unit.
func (w *emulateWorkload) round(e *env) {
	for _, c := range w.seq {
		if r, ok := w.run(e, c, "run"); ok {
			e.unit("phase1_rate", c.String(), float64(r.instrs)/1e6, r.wall)
		}
	}
	e.pulse()
	for _, c := range w.par {
		if r, ok := w.run(e, c, "stream"); ok {
			e.unit("phase2_rate", c.String(), float64(r.refs)/1e6, r.wall)
		}
	}
	e.pulse()
	for _, c := range w.all() {
		if r, ok := w.run(e, c, "capture"); ok {
			e.unit("phase3_rate", c.String(), float64(r.refs)/1e6, r.wall)
		}
	}
}

// frontEnd takes c through the layers ahead of the engine, one span
// each under parent: bench (input generation), parse, compile. A nil
// code means a failure, already counted.
func frontEnd(e *env, parent int, c cell) (b rapwam.Benchmark, code *isa.Code, clauses int64, parseD, compileD time.Duration) {
	var err error
	e.rec.do(parent, "bench", "ByName", func() { b, err = c.benchmark() })
	if err != nil {
		e.fail("%v", err)
		return b, nil, 0, 0, 0
	}
	parseD = e.rec.do(parent, "parse", "Program+OneTerm", func() {
		terms, err := parse.Program(b.Source)
		if err != nil {
			e.fail("parse %s: %v", c, err)
		}
		if _, err := parse.OneTerm(b.Query); err != nil {
			e.fail("parse query %s: %v", c, err)
		}
		clauses = int64(len(terms))
	})
	compileD = e.rec.do(parent, "compile", "Compile", func() {
		code, err = compile.Compile(b.Source, b.Query, compile.Options{Sequential: c.seq})
	})
	if err != nil {
		e.fail("compile %s: %v", c, err)
		return b, nil, 0, parseD, compileD
	}
	return b, code, clauses, parseD, compileD
}

// runEngine is core.New + Run + Close, a machine fault an error.
func runEngine(code *isa.Code, cfg core.Config) (res *core.Result, err error) {
	defer guard(&err)
	eng, err := core.New(code, cfg)
	if err != nil {
		return nil, err
	}
	res, err = eng.Run()
	if err != nil {
		return nil, err
	}
	eng.Close()
	return res, nil
}

// traced walks every cell through the layers itself: bench (input
// generation), parse, compile, then the engine with no sink, with a
// counting sink and with a trace buffer, the sink's share measured at
// its boundary.
func (w *emulateWorkload) traced(e *env) {
	var equiv time.Duration // the traced spans that mirror one round
	var parseNS, compileNS, clauses, instrsCompiled int64
	var run, stream, capture time.Duration
	var seqRun, par8Run, shards2 time.Duration
	var instrs, cycles, refs, seqInstrs, par8Refs int64
	for _, c := range w.all() {
		cellSpan := e.rec.start(e.rootSpan, "harness", c.String())
		b, compiled, nClauses, parseD, compileD := frontEnd(e, cellSpan, c)
		if compiled == nil {
			e.rec.end(cellSpan, nil)
			continue
		}
		clauses += nClauses
		parseNS += parseD.Nanoseconds()
		// compile.Compile parses the text again itself; its own share
		// is what it takes beyond the standalone parse.
		compileNS += max(compileD-parseD, 0).Nanoseconds()
		instrsCompiled += int64(len(compiled.Instrs))

		engine := func(name string, sink *timedSink, shards int) (time.Duration, *core.Result) {
			e.op()
			id := e.rec.start(cellSpan, "core", name)
			cfg := core.Config{PEs: c.pes, ExecShards: shards}
			if sink != nil {
				cfg.Sink = sink
			}
			res, err := runEngine(compiled, cfg)
			if err != nil {
				e.rec.end(id, nil)
				e.fail("%s %s: %v", name, c, err)
				return 0, nil
			}
			if b.Check != nil {
				if err := b.Check(res); err != nil {
					e.fail("%s %s: wrong answer: %v", name, c, err)
				}
			}
			d := e.rec.end(id, map[string]int64{"instrs": res.Stats.TotalInstructions(), "cycles": res.Stats.Cycles, "refs": res.Refs.Total()})
			if sink != nil {
				e.rec.folded(id, "trace", "sink.AddBatch", sink.busy, sink.counts())
				e.count("cell/"+c.String()+"/refs", sink.refs)
			}
			e.count("cell/"+c.String()+"/instrs", res.Stats.TotalInstructions())
			e.count("cell/"+c.String()+"/cycles", res.Stats.Cycles)
			return d, res
		}

		runD, res := engine("New+Run", nil, 1)
		if res == nil {
			e.rec.end(cellSpan, nil)
			continue
		}
		streamD, _ := engine("New+Run/counter", &timedSink{inner: &trace.Counter{}}, 1)
		buf := trace.NewBuffer(1 << 20)
		captureD, _ := engine("New+Run/buffer", &timedSink{inner: buf}, 1)

		n, r := res.Stats.TotalInstructions(), res.Refs.Total()
		run, stream, capture = run+runD, stream+streamD, capture+captureD
		instrs, cycles, refs = instrs+n, cycles+res.Stats.Cycles, refs+r
		equiv += compileD + captureD
		if c.seq {
			seqRun, seqInstrs = seqRun+runD, seqInstrs+n
			equiv += compileD + runD
		} else {
			par8Run, par8Refs = par8Run+runD, par8Refs+r
			equiv += compileD + streamD
			d, _ := engine("New+Run/counter/execshards2", &timedSink{inner: &trace.Counter{}}, 2)
			shards2 += d
		}
		e.rec.end(cellSpan, nil)
	}

	e.set("parse.ms", float64(parseNS)/1e6)
	e.set("parse.clauses", float64(clauses))
	e.set("compile.ms", float64(compileNS)/1e6)
	e.set("compile.instrs", float64(instrsCompiled))
	e.set("core.run_s", run.Seconds())
	e.set("core.seq_ns_per_instr", float64(seqRun.Nanoseconds())/float64(seqInstrs))
	e.set("core.par8_ns_per_ref", float64(par8Run.Nanoseconds())/float64(par8Refs))
	e.set("core.sink_ns_per_ref", float64((stream-run).Nanoseconds())/float64(refs))
	e.set("core.execshards2_mrefs_s", float64(par8Refs)/1e6/shards2.Seconds())
	e.set("core.instrs", float64(instrs))
	e.set("core.cycles", float64(cycles))
	e.set("core.refs", float64(refs))
	e.set("trace.buffer_ns_per_ref", float64((capture-stream).Nanoseconds())/float64(refs))
	e.set("harness.trace_overhead_pct", 100*(equiv.Seconds()-e.reference.Seconds())/e.reference.Seconds())
}
