package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/trace"
)

// This file is the experiment registry: the paper's evaluation suite as
// one ordered list of entries — the order `experiments -exp all` prints
// them and /v1/experiments lists them. Each entry owns its parameters'
// defaults, bounds and canonicalization (the result cache's key
// contract: two requests meaning the same computation canonicalize to
// the same parameters) and the computation; its result renders itself
// as the CLI's text and as CSV rows. cmd/experiments, the results
// service and the tests all run this one list.

// Param is one canonical (name, value) parameter pair.
type Param struct{ Name, Value string }

// Canonical is a prepared entry's parameters in canonical order.
type Canonical []Param

// String renders the result cache key's parameter component.
func (ps Canonical) String() string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Name + "=" + p.Value
	}
	return strings.Join(parts, "&")
}

// Query renders the parameters as a request query — what a proxied
// compute sends the owner, which must canonicalize it back to the same
// key.
func (ps Canonical) Query() url.Values {
	q := make(url.Values, len(ps))
	for _, p := range ps {
		q.Set(p.Name, p.Value)
	}
	return q
}

// Map renders the parameters as the result envelope's map.
func (ps Canonical) Map() map[string]string {
	m := make(map[string]string, len(ps))
	for _, p := range ps {
		m[p.Name] = p.Value
	}
	return m
}

// ParamDoc documents one parameter for /v1/experiments, docs/API.md and
// the CLI's flag defaults.
type ParamDoc struct {
	Name    string `json:"name"`
	Default string `json:"default"`
	Doc     string `json:"doc"`
}

// Experiment is one registry entry.
type Experiment struct {
	// Name is the -exp value and the endpoint path component.
	Name string `json:"name"`
	// Summary is the one-line description served by /v1/experiments.
	Summary string `json:"summary"`
	// Params documents the accepted parameters.
	Params []ParamDoc `json:"params"`
	// After names the earlier entries whose stored results this one
	// reuses: a suite run (Schedule) starts it once they have finished,
	// so which entry computes a shared result — and with it the store's
	// counters — does not depend on timing.
	After []string `json:"-"`

	// Prepare validates and canonicalizes the parameters — q holds them
	// by name; an absent one takes its default — and binds the
	// computation. A rejected parameter is a *ParamError.
	Prepare func(q url.Values) (Canonical, Run, error) `json:"-"`
	// Fresh returns a zero result to decode a stored one into.
	Fresh func() Result `json:"-"`
}

// Run is one bound computation, run on the caller's Runner.
type Run func(ctx context.Context, r *bench.Runner) (Result, error)

// Result is an entry's JSON-encodable result: String renders the CLI's
// text (the service's ?format=text body), WriteCSV its CSV rows.
type Result interface {
	String() string
	WriteCSV(w *csv.Writer)
}

// WriteCSV renders v as a CSV document.
func WriteCSV(w io.Writer, v Result) error {
	cw := csv.NewWriter(w)
	v.WriteCSV(cw)
	cw.Flush()
	return cw.Error()
}

// Suite is an ordered list of entries.
type Suite []*Experiment

// Lookup finds an entry by name.
func (s Suite) Lookup(name string) (*Experiment, bool) {
	for _, e := range s {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// Names lists the entries' names in order.
func (s Suite) Names() []string {
	names := make([]string, len(s))
	for i, e := range s {
		names[i] = e.Name
	}
	return names
}

// ParamError is a rejected parameter. Its message names the parameter
// and the value as given — the service's 400 — and Param and Reason let
// the CLI name its flag instead.
type ParamError struct {
	Param string
	// Value is the offending value as the message shows it.
	Value  string
	Reason string
}

func (e *ParamError) Error() string {
	return "parameter " + e.Param + "=" + e.Value + ": " + e.Reason
}

// --- parameter helpers ---

// IntParam parses q[name] as an integer in [lo, hi], defaulting when
// absent.
func IntParam(q url.Values, name string, def, lo, hi int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < lo || n > hi {
		return 0, &ParamError{name, strconv.Quote(s), fmt.Sprintf("need an integer in [%d, %d]", lo, hi)}
	}
	return n, nil
}

// floatParam parses q[name] as a finite positive float, defaulting when
// absent. NaN and ±Inf are refused here: they would pass a plain
// f <= 0 test, run the whole computation, then fail to marshal.
func floatParam(q url.Values, name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f > 0) || math.IsInf(f, 1) {
		return 0, &ParamError{name, strconv.Quote(s), "need a finite positive number"}
	}
	return f, nil
}

// intListParam parses q[name] as a comma-separated ascending-sorted
// deduplicated integer list in [lo, hi], defaulting when absent.
func intListParam(q url.Values, name string, def []int, lo, hi int) ([]int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < lo || n > hi {
			return nil, &ParamError{name, strconv.Quote(s), fmt.Sprintf("%q is not an integer in [%d, %d]", tok, lo, hi)}
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, &ParamError{name, strconv.Quote(s), "empty list"}
	}
	sort.Ints(out)
	return out, nil
}

// cacheParam parses q[name] as a cache size the drivers' simulators
// accept (CheckCacheWords), so a bad geometry is refused before any
// computation rather than failing one mid-run.
func cacheParam(q url.Values, name string, def int) (int, error) {
	words, err := IntParam(q, name, def, 1, 1<<22)
	if err != nil {
		return 0, err
	}
	return words, checkCacheWords(name, words)
}

// checkCacheWords holds each of sizes to CheckCacheWords.
func checkCacheWords(name string, sizes ...int) error {
	for _, words := range sizes {
		if err := CheckCacheWords(words); err != nil {
			return &ParamError{name, strconv.Itoa(words), err.Error()}
		}
	}
	return nil
}

// ints renders an int list canonically.
func ints(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// fs renders a float canonically (shortest round-trip form) — used
// for cache-key parameter values and CSV cells alike, so the two can
// never disagree.
func fs(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// is is the CSV cell rendering for integers.
func is(n int64) string { return strconv.FormatInt(n, 10) }

// fig2Counts expands maxpes into the Figure 2 sweep: 1, 2, 4, 8, then
// steps of 4 up to maxpes (8 included even for smaller maxpes).
func fig2Counts(maxPEs int) []int {
	counts := []int{1, 2, 4, 8}
	for n := 12; n <= maxPEs; n += 4 {
		counts = append(counts, n)
	}
	return counts
}

// bound binds a computation that takes no parameters.
func bound(run Run) func(url.Values) (Canonical, Run, error) {
	return func(url.Values) (Canonical, Run, error) { return nil, run, nil }
}

// Registry returns the paper's experiment suite in order.
func Registry() Suite {
	pesDoc := fmt.Sprintf("comma-separated PE counts, each in [1, %d]", trace.MaxPEs)
	peDoc := fmt.Sprintf("PE count in [1, %d]", trace.MaxPEs)
	return Suite{
		{
			Name:    "table1",
			Summary: "storage-object characteristics (paper Table 1; architecture constants, no emulation)",
			Prepare: bound(func(context.Context, *bench.Runner) (Result, error) { return Table1(), nil }),
			Fresh:   func() Result { return new(Table1Result) },
		},
		{
			Name:    "fig2",
			Summary: "RAP-WAM work/overhead vs number of PEs for deriv (paper Figure 2)",
			Params: []ParamDoc{
				{Name: "pes", Default: "", Doc: pesDoc + " (overrides maxpes)"},
				{Name: "maxpes", Default: "16", Doc: "largest PE count of the default 1,2,4,8,12,... sweep"},
			},
			Prepare: func(q url.Values) (Canonical, Run, error) {
				maxPEs, err := IntParam(q, "maxpes", 16, 1, trace.MaxPEs)
				if err != nil {
					return nil, nil, err
				}
				counts, err := intListParam(q, "pes", fig2Counts(maxPEs), 1, trace.MaxPEs)
				if err != nil {
					return nil, nil, err
				}
				return Canonical{{"pes", ints(counts)}}, func(ctx context.Context, r *bench.Runner) (Result, error) {
					return RunFigure2(ctx, r, counts)
				}, nil
			},
			Fresh: func() Result { return new(Figure2) },
		},
		{
			Name:    "table2",
			Summary: "benchmark statistics at P processors (paper Table 2)",
			Params:  []ParamDoc{{Name: "pes", Default: "8", Doc: peDoc}},
			Prepare: func(q url.Values) (Canonical, Run, error) {
				pes, err := IntParam(q, "pes", 8, 1, trace.MaxPEs)
				if err != nil {
					return nil, nil, err
				}
				return Canonical{{"pes", strconv.Itoa(pes)}}, func(ctx context.Context, r *bench.Runner) (Result, error) {
					return RunTable2(ctx, r, pes)
				}, nil
			},
			Fresh: func() Result { return new(Table2) },
		},
		{
			Name:    "table3",
			Summary: "fit of small benchmarks to the large-benchmark locality (paper Table 3)",
			Prepare: bound(func(ctx context.Context, r *bench.Runner) (Result, error) { return RunTable3(ctx, r) }),
			Fresh:   func() Result { return new(Table3) },
		},
		{
			Name:    "fig4",
			Summary: "traffic ratio of the coherency schemes vs cache size (paper Figure 4)",
			Params: []ParamDoc{
				{Name: "pes", Default: "1,2,4,8", Doc: pesDoc},
				{Name: "sizes", Default: "64,128,256,512,1024,2048,4096,8192", Doc: "comma-separated cache sizes in words"},
			},
			Prepare: func(q url.Values) (Canonical, Run, error) {
				pes, err := intListParam(q, "pes", []int{1, 2, 4, 8}, 1, trace.MaxPEs)
				if err != nil {
					return nil, nil, err
				}
				sizes, err := intListParam(q, "sizes", []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}, 1, 1<<22)
				if err != nil {
					return nil, nil, err
				}
				if err := checkCacheWords("sizes", sizes...); err != nil {
					return nil, nil, err
				}
				return Canonical{{"pes", ints(pes)}, {"sizes", ints(sizes)}}, func(ctx context.Context, r *bench.Runner) (Result, error) {
					return RunFigure4(ctx, r, pes, sizes)
				}, nil
			},
			Fresh: func() Result { return new(Figure4) },
		},
		{
			Name:    "mlips",
			After:   []string{"fig4"},
			Summary: "the 2 MLIPS feasibility calculation from measured statistics (paper section 3.3)",
			Params: []ParamDoc{
				{Name: "cache", Default: "256", Doc: "cache size in words for the capture ratio"},
				{Name: "target", Default: "2", Doc: "MLIPS performance target (finite positive)"},
			},
			Prepare: func(q url.Values) (Canonical, Run, error) {
				cacheWords, err := cacheParam(q, "cache", 256)
				if err != nil {
					return nil, nil, err
				}
				target, err := floatParam(q, "target", 2)
				if err != nil {
					return nil, nil, err
				}
				return Canonical{{"cache", strconv.Itoa(cacheWords)}, {"target", fs(target)}}, func(ctx context.Context, r *bench.Runner) (Result, error) {
					return RunMLIPS(ctx, r, cacheWords, target)
				}, nil
			},
			Fresh: func() Result { return new(MLIPS) },
		},
		{
			Name:    "bus",
			After:   []string{"fig4"},
			Summary: "bus contention: analytic M/M/1 study plus the discrete-event cross-check",
			Params: []ParamDoc{
				{Name: "pes", Default: "8", Doc: peDoc},
				{Name: "cache", Default: "256", Doc: "cache size in words"},
				{Name: "bw", Default: "4", Doc: "bus words per cycle for the DES cross-check (finite positive)"},
				{Name: "desbench", Default: "qsort", Doc: "benchmark replayed through the DES bus"},
			},
			Prepare: func(q url.Values) (Canonical, Run, error) {
				pes, err := IntParam(q, "pes", 8, 1, trace.MaxPEs)
				if err != nil {
					return nil, nil, err
				}
				cacheWords, err := cacheParam(q, "cache", 256)
				if err != nil {
					return nil, nil, err
				}
				bw, err := floatParam(q, "bw", 4)
				if err != nil {
					return nil, nil, err
				}
				desBench := q.Get("desbench")
				if desBench == "" {
					desBench = "qsort"
				}
				if !bench.Known(desBench) {
					return nil, nil, &ParamError{"desbench", strconv.Quote(desBench), "unknown benchmark"}
				}
				ps := Canonical{
					{"bw", fs(bw)}, {"cache", strconv.Itoa(cacheWords)},
					{"desbench", desBench}, {"pes", strconv.Itoa(pes)},
				}
				return ps, func(ctx context.Context, r *bench.Runner) (Result, error) {
					study, err := RunBusStudy(ctx, r, pes, cacheWords)
					if err != nil {
						return nil, err
					}
					des, err := RunBusDES(ctx, r, desBench, pes, cacheWords, bw)
					if err != nil {
						return nil, err
					}
					return &BusResult{Study: study, DES: des}, nil
				}, nil
			},
			Fresh: func() Result { return new(BusResult) },
		},
		{
			Name:    "ablations",
			After:   []string{"fig4"},
			Summary: "design-choice ablations: CGE granularity, line size, lock share, associativity",
			Params: []ParamDoc{
				{Name: "pes", Default: "8", Doc: fmt.Sprintf("PE count for the lock-share study, in [1, %d]", trace.MaxPEs)},
			},
			Prepare: func(q url.Values) (Canonical, Run, error) {
				pes, err := IntParam(q, "pes", 8, 1, trace.MaxPEs)
				if err != nil {
					return nil, nil, err
				}
				return Canonical{{"pes", strconv.Itoa(pes)}}, func(ctx context.Context, r *bench.Runner) (Result, error) {
					return runAblations(ctx, r, pes)
				}, nil
			},
			Fresh: func() Result { return new(AblationsResult) },
		},
	}
}

// BusResult pairs the analytic bus study with its discrete-event
// cross-check.
type BusResult struct {
	Study *BusStudy `json:"study"`
	DES   *BusDES   `json:"des"`
}

// String renders the study, then the cross-check.
func (b *BusResult) String() string { return b.Study.String() + "\n" + b.DES.String() }

// WriteCSV writes one row per analytic bus speed, then the DES and its
// analytic twin.
func (b *BusResult) WriteCSV(w *csv.Writer) {
	w.Write([]string{"section", "bus_words_per_cycle", "utilization", "efficiency", "mean_wait_cycles"})
	for i := range b.Study.Bandwidths {
		w.Write([]string{"analytic", fs(b.Study.Bandwidths[i]), fs(b.Study.Utilization[i]), fs(b.Study.Efficiency[i]), ""})
	}
	w.Write([]string{"des", fs(b.DES.BusWordsPerCycle), fs(b.DES.DES.Utilization), fs(b.DES.DES.Efficiency), fs(b.DES.DES.MeanWaitCycles)})
	w.Write([]string{"des_analytic", fs(b.DES.BusWordsPerCycle), fs(b.DES.Analytic.Utilization), fs(b.DES.Analytic.Efficiency), fs(b.DES.Analytic.MeanWaitCycles)})
}

// AblationsResult bundles the ablation studies.
type AblationsResult struct {
	Granularity *GranularitySweep `json:"granularity"`
	LineSize    *LineSizeSweep    `json:"line_size"`
	LockShare   []*LockShare      `json:"lock_share"`
	Assoc       *AssocSweep       `json:"assoc"`
}

// runAblations runs the four studies at the paper's settings, the lock
// share at pes.
func runAblations(ctx context.Context, r *bench.Runner, pes int) (*AblationsResult, error) {
	out := &AblationsResult{}
	var err error
	if out.Granularity, err = RunGranularitySweep(ctx, r, []int{0, 1, 2, 3, 4, 6}); err != nil {
		return nil, err
	}
	if out.LineSize, err = RunLineSizeSweep(ctx, r, "qsort", 4, 1024, []int{1, 2, 4, 8, 16}); err != nil {
		return nil, err
	}
	for _, b := range []string{"deriv", "qsort", "matrix"} {
		ls, err := RunLockShare(ctx, r, b, pes)
		if err != nil {
			return nil, err
		}
		out.LockShare = append(out.LockShare, ls)
	}
	if out.Assoc, err = RunAssocSweep(ctx, r, "qsort", 4, 1024, []int{1, 2, 4, 8, 0}); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the studies one after another.
func (a *AblationsResult) String() string {
	var sb strings.Builder
	sb.WriteString(a.Granularity.String())
	sb.WriteByte('\n')
	sb.WriteString(a.LineSize.String())
	sb.WriteByte('\n')
	for _, ls := range a.LockShare {
		sb.WriteString(ls.String())
	}
	sb.WriteByte('\n')
	sb.WriteString(a.Assoc.String())
	return sb.String()
}

// WriteCSV writes every study's points as (study, x, value, extra) rows.
func (a *AblationsResult) WriteCSV(w *csv.Writer) {
	w.Write([]string{"study", "x", "value", "extra"})
	for _, p := range a.Granularity.Points {
		w.Write([]string{"granularity_speedup8", is(int64(p.Depth)), fs(p.Speedup8), is(p.GoalsParallel)})
	}
	for i, lw := range a.LineSize.LineWords {
		w.Write([]string{"line_size_traffic", is(int64(lw)), fs(a.LineSize.Ratio[i]), fs(a.LineSize.MissRatio[i])})
	}
	for _, ls := range a.LockShare {
		w.Write([]string{"lock_share", ls.Benchmark, fs(ls.Share()), is(ls.Total)})
	}
	for i, ways := range a.Assoc.Ways {
		w.Write([]string{"assoc_traffic", is(int64(ways)), fs(a.Assoc.Ratio[i]), ""})
	}
}
