package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro"

	"repro/internal/core"
	"repro/internal/trace"
)

// paper-grid: the real `experiments -exp all` binary, a fresh process
// per run. It is the user-visible unit of the paper reproduction and a
// mix of every layer: replay is about 70 % of a cold run, in-RAM trace
// materialization 12 %, the emulator 11 %. The store phases write
// traces beside reading them, so a codec change that speeds decode but
// slows encode shows as warm against store-cold.
type gridWorkload struct {
	bin string
	// exp is the CLI's -exp argument: "all", or under -smoke the
	// cheapest experiment that still stores traces. The oracle keys
	// carry it, so only the real thing meets the pinned digests.
	exp string
}

func (w *gridWorkload) roundsPerPass() int { return 1 }

func (w *gridWorkload) phases() [3]phase {
	return [3]phase{
		{"grid_cold_s", "s", inverse(1)},
		{"grid_store_cold_s", "s", inverse(1)},
		{"grid_warm_s", "s", inverse(1)},
	}
}

// setup builds the CLI and runs it once, so the binary is in the page
// cache before timing.
func (w *gridWorkload) setup(e *env) error {
	bin, err := e.build("experiments")
	if err != nil {
		return err
	}
	w.bin, w.exp = bin, "all"
	if e.smoke {
		w.exp = "table2"
	}
	if r := runChild(bin, "-exp", w.exp); r.err != nil {
		return fmt.Errorf("experiments -exp %s: %v\n%s", w.exp, r.err, r.stderr)
	}
	return nil
}

func (w *gridWorkload) close() {}

var storeSummary = regexp.MustCompile(`(\d+) hits, (\d+) misses, (\d+) traces written, (\d+) emulator runs`)

// run is one `experiments -exp all`; dir "" means no store. kind names
// the phase in the oracle: the stdout digest is one key for all
// phases, the store counters one set per store phase.
func (w *gridWorkload) run(e *env, kind, dir string) (childRun, bool) {
	e.op()
	args := []string{"-exp", w.exp}
	if dir != "" {
		args = append(args, "-tracedir", dir)
	}
	r := runChild(w.bin, args...)
	if r.err != nil {
		e.fail("experiments %s (%s): %v: %s", strings.Join(args, " "), kind, r.err, r.stderr)
		return r, false
	}
	e.digest("grid/"+w.exp+"/stdout", r.stdout)
	if dir != "" {
		m := storeSummary.FindSubmatch(r.stderr)
		if m == nil {
			e.fail("experiments (%s): no store summary on stderr: %s", kind, r.stderr)
			return r, false
		}
		for i, name := range []string{"hits", "misses", "puts", "engine_runs"} {
			n, _ := strconv.ParseInt(string(m[i+1]), 10, 64)
			e.count("grid/"+w.exp+"/"+kind+"/"+name, n)
		}
		if runs, _ := strconv.Atoi(string(m[4])); kind == "warm" && runs != 0 {
			e.fail("warm run performed %d emulator runs", runs)
		}
	}
	return r, true
}

// round is one run of each phase, interleaved so that host drift
// falls on all three alike.
func (w *gridWorkload) round(e *env) {
	dir := filepath.Join(e.work, "grid-store")
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil {
		e.fail("%v", err)
		return
	}
	for i, kind := range []string{"cold", "store-cold", "warm"} {
		storeDir := dir
		if kind == "cold" {
			storeDir = ""
		}
		if r, ok := w.run(e, kind, storeDir); ok {
			e.unit(fmt.Sprintf("phase%d_rate", i+1), kind, 1, r.wall)
			e.pulse()
			if kind == "cold" { // the phases' footprints differ; one population per metric
				e.sample("peak_rss_mb", r.rssMB)
			}
		}
	}
}

// gridDriver is one experiment of `-exp all`, called in-process with
// the CLI's default parameters.
type gridDriver struct {
	name string
	run  func(ctx context.Context) ([]fmt.Stringer, error)
}

func one[T fmt.Stringer](v T, err error) ([]fmt.Stringer, error) {
	return []fmt.Stringer{v}, err
}

var gridDrivers = []gridDriver{
	{"fig2", func(ctx context.Context) ([]fmt.Stringer, error) {
		return one(rapwam.RunFigure2(ctx, []int{1, 2, 4, 8, 12, 16}))
	}},
	{"table2", func(ctx context.Context) ([]fmt.Stringer, error) { return one(rapwam.RunTable2(ctx, 8)) }},
	{"table3", func(ctx context.Context) ([]fmt.Stringer, error) { return one(rapwam.RunTable3(ctx)) }},
	{"fig4", func(ctx context.Context) ([]fmt.Stringer, error) {
		return one(rapwam.RunFigure4(ctx, []int{1, 2, 4, 8}, cacheSizes))
	}},
	{"mlips", func(ctx context.Context) ([]fmt.Stringer, error) { return one(rapwam.RunMLIPS(ctx, 256, 2)) }},
	{"bus", func(ctx context.Context) ([]fmt.Stringer, error) {
		bs, err := rapwam.RunBusStudy(ctx, 8, 256)
		if err != nil {
			return nil, err
		}
		des, err := rapwam.RunBusDES(ctx, "qsort", 8, 256, 4)
		return []fmt.Stringer{bs, des}, err
	}},
	{"ablations", func(ctx context.Context) ([]fmt.Stringer, error) {
		var out []fmt.Stringer
		g, err := rapwam.RunGranularitySweep(ctx, []int{0, 1, 2, 3, 4, 6})
		if err != nil {
			return nil, err
		}
		l, err := rapwam.RunLineSizeSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 16})
		if err != nil {
			return nil, err
		}
		out = append(out, g, l)
		for _, b := range []string{"deriv", "qsort", "matrix"} {
			ls, err := rapwam.RunLockShare(ctx, b, 8)
			if err != nil {
				return nil, err
			}
			out = append(out, ls)
		}
		a, err := rapwam.RunAssocSweep(ctx, "qsort", 4, 1024, []int{1, 2, 4, 8, 0})
		return append(out, a), err
	}},
}

// drivers runs every driver once under parent, one span each plus one
// for rendering, and returns the summed driver time. tag separates the
// passes in span names; rendered text is held to the oracle, so every
// pass must print the same tables.
func (w *gridWorkload) drivers(e *env, parent int, tag string, perDriver func(name string, d time.Duration)) time.Duration {
	ctx := context.Background()
	var total, render time.Duration
	for _, drv := range gridDrivers {
		e.op()
		var results []fmt.Stringer
		var err error
		d := e.rec.do(parent, "experiments", drv.name+tag, func() { results, err = drv.run(ctx) })
		if err != nil {
			e.fail("%s%s: %v", drv.name, tag, err)
			continue
		}
		total += d
		if perDriver != nil {
			perDriver(drv.name, d)
		}
		var text strings.Builder
		render += e.rec.do(parent, "experiments", drv.name+".String"+tag, func() {
			for _, r := range results {
				text.WriteString(r.String())
			}
		})
		e.digest("render/"+drv.name, []byte(text.String()))
	}
	if perDriver != nil {
		perDriver("render", render)
	}
	return total + render
}

func (w *gridWorkload) traced(e *env) {
	root := e.rootSpan

	// The CLI itself, once per phase: CPU time and the store's own
	// counters, and the warmed store the cell walk reads.
	dir := filepath.Join(e.work, "grid-store")
	defer os.RemoveAll(dir)
	cli := func(kind, dir string) (r childRun, ok bool) {
		e.rec.do(root, "experiments", "CLI -exp "+w.exp+" "+kind, func() { r, ok = w.run(e, kind, dir) })
		return r, ok
	}
	cold, okCold := cli("cold", "")
	storeCold, okStore := cli("store-cold", dir)
	warm, okWarm := cli("warm", dir)
	if !okCold || !okStore || !okWarm {
		return
	}
	e.set("experiments.cold_cpu_s", cold.cpu.Seconds())
	e.set("experiments.warm_cpu_s", warm.cpu.Seconds())
	for kind, r := range map[string]childRun{"cold": storeCold, "warm": warm} {
		m := storeSummary.FindSubmatch(r.stderr)
		num := func(i int) float64 { n, _ := strconv.ParseFloat(string(m[i]), 64); return n }
		e.set("tracestore."+kind+"_hits", num(1))
		e.set("tracestore."+kind+"_misses", num(2))
		if kind == "cold" {
			e.set("tracestore.cold_puts", num(3))
			e.set("bench.engine_runs", num(4))
		} else {
			e.set("bench.warm_engine_runs", num(4))
		}
	}

	// In-process, cold, no store: where the CLI's cold time goes,
	// driver by driver.
	rapwam.SetTraceStore(nil)
	rapwam.ResetTraceCache()
	coldSpan := e.rec.start(root, "harness", "drivers cold")
	equiv := w.drivers(e, coldSpan, "", func(name string, d time.Duration) {
		if name == "render" {
			e.set("experiments.render_us", float64(d.Nanoseconds())/1e3)
		} else {
			e.set("experiments."+name+"_ms", float64(d.Nanoseconds())/1e6)
		}
	})
	e.rec.end(coldSpan, nil)
	// Against the CLI's cold run: the in-process pass skips process
	// start-up and Table 1, so this can read below zero.
	e.set("harness.trace_overhead_pct", 100*(equiv.Seconds()-cold.wall.Seconds())/cold.wall.Seconds())

	w.walkCells(e, dir)

	// The same drivers one cell at a time: the ratio to the cold time
	// above is the grid's scaling on this host's cores.
	rapwam.SetParallelism(1)
	rapwam.ResetTraceCache()
	par1Span := e.rec.start(root, "harness", "drivers cold par1")
	e.set("experiments.par1_cold_s", w.drivers(e, par1Span, "/par1", nil).Seconds())
	e.rec.end(par1Span, nil)
	rapwam.SetParallelism(0)
	rapwam.ResetTraceCache()
}

// walkCells lists the store the CLI warmed and takes each cell through
// the stages a cold grid run spends its time in, one layer call at a
// time: generate the input, parse, compile, emulate, materialize the
// trace in RAM, encode and store it, and replay it from the store
// through the Figure-4 configurations.
func (w *gridWorkload) walkCells(e *env, warmed string) {
	store, err := rapwam.OpenTraceStore(warmed)
	if err != nil {
		e.fail("open %s: %v", warmed, err)
		return
	}
	var entries []rapwam.TraceStoreEntry
	e.rec.do(e.rootSpan, "tracestore", "List", func() { entries, err = store.List() })
	if err != nil {
		e.fail("list %s: %v", warmed, err)
		return
	}
	e.count("grid/"+w.exp+"/stored_cells", int64(len(entries)))

	fresh, err := rapwam.SetTraceDir(filepath.Join(e.work, "grid-walk-store"))
	if err != nil {
		e.fail("%v", err)
		return
	}
	defer rapwam.SetTraceStore(nil)
	defer os.RemoveAll(fresh.Dir())

	ctx := context.Background()
	var ensure time.Duration
	for _, ent := range entries {
		c := cell{name: ent.Meta.Benchmark, pes: ent.Meta.PEs, seq: ent.Meta.Sequential}
		if e.smoke && !strings.HasPrefix(c.name, "deriv") && !strings.HasPrefix(c.name, "qsort") {
			continue
		}
		cellSpan := e.rec.start(e.rootSpan, "harness", "cell "+c.String())
		b, code, _, _, _ := frontEnd(e, cellSpan, c)
		if code == nil {
			e.rec.end(cellSpan, nil)
			continue
		}
		e.op()
		buf := &timedSink{inner: trace.NewBuffer(1 << 20)}
		id := e.rec.start(cellSpan, "core", "New+Run/buffer")
		_, err = runEngine(code, core.Config{PEs: c.pes, Sink: buf})
		e.rec.end(id, nil)
		e.rec.folded(id, "trace", "Buffer.AddBatch", buf.busy, buf.counts())
		if err != nil {
			e.fail("run %s: %v", c, err)
		} else if buf.refs != ent.Meta.Refs {
			e.fail("run %s: %d references, the stored trace declares %d", c, buf.refs, ent.Meta.Refs)
		}

		e.op()
		ensure += e.rec.do(cellSpan, "bench", "EnsureStored", func() {
			if _, err := rapwam.EnsureTraceStored(ctx, b, c.pes, c.seq); err != nil {
				e.fail("EnsureTraceStored %s: %v", c, err)
			}
		})

		e.op()
		cfgs := faConfigs(c.pes)
		_, sims, sinks := timedSims(cfgs)
		fan := trace.NewFanOut(trace.FanOutConfig{}, sinks...)
		replaySpan := e.rec.start(cellSpan, "tracestore", "Replay")
		_, err = store.Replay(rapwam.TraceStoreKey(c.name, c.pes, c.seq), fan)
		fan.Close()
		e.rec.end(replaySpan, nil)
		if err != nil {
			e.fail("replay %s: %v", c, err)
		}
		// Close drained the consumers inside the store span; the
		// simulators' share of it is the time any of them was running.
		union, counts := busyUnion(sims)
		e.rec.folded(replaySpan, "cache", fmt.Sprintf("Sim.AddBatch x%d", len(sims)), union, counts)
		for i, s := range sims {
			if s.refs != ent.Meta.Refs {
				e.fail("replay %s %s: %d references of %d", c, configKey(cfgs[i]), s.refs, ent.Meta.Refs)
			}
		}
		e.rec.end(cellSpan, nil)
	}
	e.set("bench.ensure_stored_s", ensure.Seconds())
}
