package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/bench"
	"repro/internal/busmodel"
	"repro/internal/cache"
	"repro/internal/objcodec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// This file holds the ablation studies (docs/ARCHITECTURE.md,
// "Ablations"): design choices of the RAP-WAM/simulation stack varied
// one at a time.

// GranularityPoint is one depth setting of the granularity sweep.
type GranularityPoint struct {
	Depth         int
	GoalsParallel int64
	RefsOverhead  float64 // parallel refs / sequential refs - 1
	Speedup8      float64 // cycles(1 PE seq) / cycles(8 PEs)
}

// GranularitySweep varies deriv's parallelism depth budget: depth 0 is
// sequential; each level doubles available parallelism but also
// parallelism-management overhead. This quantifies the granularity
// control implicit in the paper's benchmark annotations.
type GranularitySweep struct {
	Points []GranularityPoint
}

// RunGranularitySweep measures deriv at the given depths, serving
// per-cell statistics from the grid's memo layer.
func RunGranularitySweep(ctx context.Context, r *bench.Runner, depths []int) (*GranularitySweep, error) {
	cells := []TraceTarget{{bench.DerivDepth(0), 1, true}}
	for _, d := range depths {
		cells = append(cells, TraceTarget{bench.DerivDepth(d), 8, false})
	}
	sts, err := runStatsGrid(ctx, r, cells)
	if err != nil {
		return nil, err
	}
	baseRefs := float64(sts[0].TotalWorkRefs())
	baseCycles := float64(sts[0].Cycles)
	out := &GranularitySweep{}
	for i, d := range depths {
		st := sts[i+1]
		out.Points = append(out.Points, GranularityPoint{
			Depth:         d,
			GoalsParallel: st.GoalsParallel,
			RefsOverhead:  float64(st.TotalWorkRefs())/baseRefs - 1,
			Speedup8:      baseCycles / float64(st.Cycles),
		})
	}
	return out, nil
}

// String renders the sweep.
func (g *GranularitySweep) String() string {
	t := stats.NewTable("Ablation: CGE granularity depth (deriv, 8 PEs)",
		"depth", "goals//", "refs overhead", "speedup")
	for _, p := range g.Points {
		t.AddRow(p.Depth, p.GoalsParallel, fmt.Sprintf("%.1f%%", 100*p.RefsOverhead), p.Speedup8)
	}
	return t.String()
}

// LineSizeSweep varies the cache line size at a fixed capacity — the
// paper fixes four-word lines; this shows where that sits.
type LineSizeSweep struct {
	SizeWords int
	LineWords []int
	Ratio     []float64
	MissRatio []float64
	Benchmark string
	PEs       int
}

// RunLineSizeSweep replays one benchmark trace across line sizes; all
// line sizes are simulated concurrently in a single pass over the
// memoized trace, as one grid cell.
func RunLineSizeSweep(ctx context.Context, r *bench.Runner, benchName string, pes, sizeWords int, lines []int) (*LineSizeSweep, error) {
	b, ok := bench.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	cfgs := make([]cache.Config, len(lines))
	for i, lw := range lines {
		cfgs[i] = paperConfig(pes, sizeWords, cache.WriteInBroadcast)
		cfgs[i].LineWords = lw
	}
	sts, err := inCell(ctx, r, func() ([]cache.Stats, error) { return simulateAll(ctx, r, b, pes, pes == 1, cfgs) })
	if err != nil {
		return nil, err
	}
	out := &LineSizeSweep{SizeWords: sizeWords, Benchmark: benchName, PEs: pes}
	for i, lw := range lines {
		out.LineWords = append(out.LineWords, lw)
		out.Ratio = append(out.Ratio, sts[i].TrafficRatio())
		out.MissRatio = append(out.MissRatio, sts[i].MissRatio())
	}
	return out, nil
}

// String renders the sweep.
func (l *LineSizeSweep) String() string {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: line size (%s, %d PEs, %d-word caches, write-in broadcast)",
			l.Benchmark, l.PEs, l.SizeWords),
		"line (words)", "traffic ratio", "miss ratio")
	for i := range l.LineWords {
		t.AddRow(l.LineWords[i], l.Ratio[i], l.MissRatio[i])
	}
	return t.String()
}

// LockShare reports the fraction of references spent on locked objects
// (goal stack, parcall counters, messages) — the synchronization cost
// Table 1's lock column identifies.
type LockShare struct {
	Benchmark string
	PEs       int
	Locked    int64
	Total     int64
}

// RunLockShare measures one benchmark, as one grid cell; the Table 1
// reference counter comes from the cell's run sidecar.
func RunLockShare(ctx context.Context, r *bench.Runner, benchName string, pes int) (*LockShare, error) {
	b, ok := bench.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	refs, err := inCell(ctx, r, func() (*trace.Counter, error) {
		_, refs, err := runStats(ctx, r, b, pes, false)
		return refs, err
	})
	if err != nil {
		return nil, err
	}
	out := &LockShare{Benchmark: benchName, PEs: pes}
	for obj, ops := range refs.ByObj {
		n := ops[0] + ops[1]
		out.Total += n
		if trace.ObjType(obj).Locked() {
			out.Locked += n
		}
	}
	return out, nil
}

// Share returns the locked fraction.
func (l *LockShare) Share() float64 {
	if l.Total == 0 {
		return 0
	}
	return float64(l.Locked) / float64(l.Total)
}

// String renders the measurement.
func (l *LockShare) String() string {
	return fmt.Sprintf("Lock traffic share (%s, %d PEs): %.2f%% (%d of %d references)\n",
		l.Benchmark, l.PEs, 100*l.Share(), l.Locked, l.Total)
}

// BusDES runs the discrete-event bus simulation on real transaction
// streams from the cache simulator (the paper defers this to Tick's
// queueing model; the analytic M/M/1 is cross-checked here against an
// actual event-by-event replay).
type BusDES struct {
	Benchmark        string
	PEs              int
	BusWordsPerCycle float64
	DES              busmodel.Result
	Analytic         busmodel.Result
}

// BusRecord is the stored result of one bus DES (result kind "des",
// keyed by cache configuration and bus width, stamped with the versions
// of both simulators). It embeds the replay's cache Stats because the
// analytic half needs their traffic ratio, and asking simulateAll for
// it would be a second UseCell and results lookup per call. It is
// exported for the trace store's object-format tests.
type BusRecord struct {
	DES   busmodel.Result
	Stats cache.Stats
}

// Encode writes the record in the trace store's object format: the DES
// result's floats as their IEEE-754 bits, then the cache Stats. A field
// added to BusRecord or busmodel.Result goes here and into Decode, and
// moves the pinned bytes of tracestore's TestObjectGoldenBytes (bump
// tracestore.ObjectVersion); TestObjectFieldCoverage fails until then.
func (b BusRecord) Encode(e *objcodec.Encoder) {
	e.Float(b.DES.Utilization)
	e.Float(b.DES.MeanWaitCycles)
	e.Float(b.DES.Efficiency)
	e.Bool(b.DES.Saturated)
	b.Stats.Encode(e)
}

// Decode reads what Encode wrote.
func (b *BusRecord) Decode(d *objcodec.Decoder) {
	b.DES.Utilization = d.Float()
	b.DES.MeanWaitCycles = d.Float()
	b.DES.Efficiency = d.Float()
	b.DES.Saturated = d.Bool()
	b.Stats.Decode(d)
}

// desVersion stamps des result objects: a record moves with either simulator.
const desVersion = cache.SimVersion + "+" + busmodel.Version

// RunBusDES runs one benchmark's bus transactions through the DES bus
// and the analytic model: from the cell's stored results, or a replay,
// as one grid cell.
func RunBusDES(ctx context.Context, r *bench.Runner, benchName string, pes, cacheWords int, busWordsPerCycle float64) (*BusDES, error) {
	b, ok := bench.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	cfg := paperConfig(pes, cacheWords, cache.WriteInBroadcast)
	key := cfg.Key() + "|bus=" + strconv.FormatFloat(busWordsPerCycle, 'g', -1, 64)
	plan := func([]int) (string, func(*tracestore.Store, tracestore.Key) ([]BusRecord, error)) {
		return "replaying the bus transactions", func(s *tracestore.Store, k tracestore.Key) ([]BusRecord, error) {
			// The DES needs the bus-transaction event stream in global
			// order, so this replay is sequential (a single OnBus
			// observer) and feeds the bus as the transactions happen.
			bus, err := busmodel.NewBus(pes, busWordsPerCycle)
			if err != nil {
				return nil, err
			}
			sim := cache.New(cfg)
			sim.OnBus = func(pe, words int, refIndex int64) {
				// The reference index divided by the PE count approximates
				// the per-PE clock of the interleaved machine. A failed
				// Add is what Result reports.
				_ = bus.Add(busmodel.Event{PE: pe, Time: float64(refIndex) / float64(pes), Words: words})
			}
			if err := replayCell(s, k, sim); err != nil {
				return nil, err
			}
			des, _, err := bus.Result()
			return []BusRecord{{DES: des, Stats: sim.Stats()}}, err
		}
	}
	recs, err := inCell(ctx, r, func() ([]BusRecord, error) {
		return cellResults(ctx, r, b, pes, pes == 1, "des", desVersion, []string{key}, plan)
	})
	if err != nil {
		return nil, err
	}
	ana, err := busmodel.Analytic(busmodel.Params{
		PEs: pes, RefsPerCycle: 1,
		TrafficRatio:     recs[0].Stats.TrafficRatio(),
		BusWordsPerCycle: busWordsPerCycle,
	})
	if err != nil {
		return nil, err
	}
	return &BusDES{
		Benchmark: benchName, PEs: pes, BusWordsPerCycle: busWordsPerCycle,
		DES: recs[0].DES, Analytic: ana,
	}, nil
}

// String renders the comparison.
func (b *BusDES) String() string {
	return fmt.Sprintf(
		"Bus DES vs analytic (%s, %d PEs, %.1f words/cycle):\n"+
			"  DES:      utilization %.3f, mean wait %.2f cycles, efficiency %.3f\n"+
			"  analytic: utilization %.3f, mean wait %.2f cycles, efficiency %.3f\n",
		b.Benchmark, b.PEs, b.BusWordsPerCycle,
		b.DES.Utilization, b.DES.MeanWaitCycles, b.DES.Efficiency,
		b.Analytic.Utilization, b.Analytic.MeanWaitCycles, b.Analytic.Efficiency)
}

// AssocSweep compares the paper's fully associative cache model with
// hardware-realizable set-associative caches of the same capacity.
type AssocSweep struct {
	Benchmark string
	PEs       int
	SizeWords int
	Ways      []int // 0 = fully associative
	Ratio     []float64
}

// RunAssocSweep replays one benchmark trace across associativities; all
// ways are simulated concurrently in a single pass over the memoized
// trace, as one grid cell.
func RunAssocSweep(ctx context.Context, r *bench.Runner, benchName string, pes, sizeWords int, ways []int) (*AssocSweep, error) {
	b, ok := bench.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	cfgs := make([]cache.Config, len(ways))
	for i, w := range ways {
		cfgs[i] = paperConfig(pes, sizeWords, cache.WriteInBroadcast)
		cfgs[i].Assoc = w
	}
	sts, err := inCell(ctx, r, func() ([]cache.Stats, error) { return simulateAll(ctx, r, b, pes, pes == 1, cfgs) })
	if err != nil {
		return nil, err
	}
	out := &AssocSweep{Benchmark: benchName, PEs: pes, SizeWords: sizeWords}
	for i, w := range ways {
		out.Ways = append(out.Ways, w)
		out.Ratio = append(out.Ratio, sts[i].TrafficRatio())
	}
	return out, nil
}

// String renders the sweep.
func (a *AssocSweep) String() string {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: associativity (%s, %d PEs, %d-word caches)",
			a.Benchmark, a.PEs, a.SizeWords),
		"ways", "traffic ratio")
	for i, w := range a.Ways {
		label := fmt.Sprintf("%d", w)
		if w == 0 {
			label = "full (paper)"
		}
		t.AddRow(label, a.Ratio[i])
	}
	return t.String()
}
