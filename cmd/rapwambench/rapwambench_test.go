package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be Python's statistics.quantiles(v, n=4): the
// acceptance driver computes this benchmark's spreads with it.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.v), c.med) {
			t.Errorf("%v: q1 %g median %g q3 %g, want %g %g %g", c.v, q1, median(c.v), q3, c.q1, c.med, c.q3)
		}
	}
	if q1, q3 := quartiles(nil); q1 != 0 || q3 != 0 || median(nil) != 0 {
		t.Errorf("empty input: %g %g %g, want zeros", q1, median(nil), q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 0.5: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one value = %g", got)
	}
}

// Self time is duration minus the union of the children's intervals:
// nested children count once at each level, overlapping siblings are
// not double-counted, and a child running past its parent is clipped.
func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "harness", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "trace", StartNS: 10, EndNS: 60},   // has a child
		{ID: 3, Parent: 2, Layer: "cache", StartNS: 20, EndNS: 50},   // nested
		{ID: 4, Parent: 1, Layer: "cache", StartNS: 40, EndNS: 80},   // overlaps span 2
		{ID: 5, Parent: 1, Layer: "core", StartNS: 90, EndNS: 130},   // runs past the parent
		{ID: 6, Parent: 3, Layer: "storage", StartNS: 25, EndNS: 25}, // empty
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (70 + 10), // children cover [10,80] and [90,100]
		2: 50 - 30,
		3: 30,
		4: 40,
		5: 40,
		6: 0,
	} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
	by := layerSelfMS(spans)
	if !near(by["cache"], 70e-6) || !near(by["harness"], 20e-6) {
		t.Errorf("layer self times %v", by)
	}
}

func TestBusyUnionOfConcurrentSinks(t *testing.T) {
	a := &timedSink{calls: [][2]int64{{0, 10}, {30, 40}}, busy: 20}
	b := &timedSink{calls: [][2]int64{{5, 20}, {32, 35}}, busy: 18}
	union, counts := busyUnion([]*timedSink{a, b})
	if union != 30 || counts["cpu_ns"] != 38 || counts["batches"] != 4 {
		t.Errorf("union %d counts %v, want 30 ns of wall for 38 ns of work in 4 calls", union, counts)
	}
}

// A phase's rate is its work over each kind's fastest unit; a round's
// sample is its work over its time as the clock saw it.
func TestBestRateTakesEachKindsFastestUnit(t *testing.T) {
	e := &env{samples: map[string][]float64{}, units: map[string]map[string]*kind{}, round: map[string]tally{}}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, round := range [][2]time.Duration{{ms(100), ms(300)}, {ms(50), ms(400)}, {ms(80), ms(200)}} {
		e.unit("phase1_rate", "small", 1, round[0])
		e.unit("phase1_rate", "large", 3, round[1])
		e.endRound()
	}
	if got := bestRate(e.units["phase1_rate"]); !near(got, 4/0.250) {
		t.Errorf("best rate %g, want 4 units of work in 50+200 ms", got)
	}
	want := []float64{4 / 0.4, 4 / 0.45, 4 / 0.28}
	for i, got := range e.samples["phase1_rate"] {
		if !near(got, want[i]) {
			t.Errorf("round %d: sample %g, want %g", i, got, want[i])
		}
	}
	if bestRate(nil) != 0 {
		t.Error("a phase with no unit has no rate")
	}
}

// The host factor is the lower quartile of the pulses over the nominal
// kernel time; with no pulse taken, times stand as the clock saw them.
func TestHostFactorIsTheLowerQuartileOfThePulses(t *testing.T) {
	e := &env{}
	if e.hostFactor() != 1 {
		t.Error("no pulses: factor must be 1")
	}
	for _, sum := range []float64{0.050, 0.044, 0.088, 0.066} {
		e.pulses = append(e.pulses, [2]float64{sum - 0.019, 0.019})
	}
	q1, _ := quartiles([]float64{0.050, 0.044, 0.088, 0.066})
	if got := e.hostFactor(); !near(got, q1/calibNominal) || got <= 1 || got >= 0.050/calibNominal {
		t.Errorf("factor %g, want the lower quartile %g over %g", got, q1, calibNominal)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(v, q1, q3 float64, samples ...float64) measured {
		return measured{Value: v, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
	}
	for _, c := range []struct {
		name   string
		better string
		a, b   measured
		want   string
	}{
		{"lower: 20% slower", "lower", m(10, 9.9, 10.1), m(12, 11.9, 12.1), "worse"},
		{"higher: 20% less", "higher", m(100, 99, 101), m(80, 79, 81), "worse"},
		{"within bound, tight", "lower", m(10, 9.9, 10.1), m(10.5, 10.4, 10.6), "same"},
		{"improved beyond the parent's spread", "higher", m(100, 99, 101), m(105, 104, 106), "better"},
		{"improved within the parent's spread", "higher", m(100, 97, 103), m(102, 101, 103), "same"},
		{"spread wider than the bound", "lower", m(10, 9, 11, 9, 10, 11), m(10.2, 9, 11.4, 9, 10.2, 11.4), "unresolved"},
		{"wide spread but every run better", "lower", m(10, 9, 11, 9, 10, 11), m(7, 6, 8, 6, 7, 8), "better"},
		{"no baseline", "lower", m(0, 0, 0), m(1, 1, 1), "unresolved"},
	} {
		if got := verdict(c.better, 0.10, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || !metricUnit.MatchString(m.unit) {
			t.Errorf("metric %q unit %q: bad syntax", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, l := range layers {
		if !seen["self_ms."+l] {
			t.Errorf("layer %s has no self_ms metric", l)
		}
	}
}

// BENCHMARK.json and the harness declare the same workloads and the
// same metrics, name for name, and the file keeps to its contract.
func TestDeclarationMatchesHarness(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads declared, the harness has %d", len(decl.Workloads), len(workloadOrder))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d: declared %q, harness %q", i, w.Name, workloadOrder[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared []declaredMetric, have []metricDef) {
		if len(declared) != len(have) {
			t.Errorf("%s: %d declared, the harness emits %d", kind, len(declared), len(have))
		}
		for i := 0; i < min(len(declared), len(have)); i++ {
			d, h := declared[i], have[i]
			if d.Name != h.name || d.Unit != h.unit || d.Better != h.better {
				t.Errorf("%s[%d]: declared %+v, harness %+v", kind, i, d, h)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	if decl.EndToEnd[0].Name != "setup_s" || decl.EndToEnd[0].Unit != "s" || decl.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", decl.EndToEnd[0])
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", decl.RunSeconds)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "cmd/rapwambench" {
		t.Errorf("paths %v", decl.Paths)
	}
}

func TestDrawSizesStayInsideTheVerifiedBands(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		z := drawSizes(seed, false)
		if z.qsort8 < 5000 || z.qsort8 > 9000 || z.qsort8%10 != 0 || z.qsortSeq < 4000 || z.qsortSeq > 6000 ||
			z.primes < 4000 || z.primes > 5000 || z.nrev < 400 || z.nrev > 600 {
			t.Fatalf("seed %d: %+v leaves a verified band", seed, z)
		}
		if z != drawSizes(seed, false) {
			t.Fatalf("seed %d: draw is not a function of the seed", seed)
		}
	}
	if drawSizes(1, false) == drawSizes(2, false) {
		t.Error("seeds 1 and 2 draw the same sizes")
	}
}

// The smoke run: the harness binary, all four workloads each in its
// own process at tiny sizes, one untraced round and the traced pass,
// every digest in expected.json that applies checked.
func TestSmokeAllWorkloadsTracedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs three binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rapwambench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	reportPath := filepath.Join(dir, "report.json")
	cmd := exec.Command(bin, "-smoke", "-trace", "1", "-out", reportPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("rapwambench -smoke -trace 1: %v\n%s", err, out)
	}
	rep, err := readReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		res, tr := rep.Workloads[name], rep.Traced[name]
		if res == nil || tr == nil {
			t.Fatalf("%s: missing from the report", name)
		}
		if res.Failed != 0 || tr.Failed != 0 || res.Attempted == 0 || tr.Attempted == 0 {
			t.Errorf("%s: untraced %d/%d failed, traced %d/%d", name, res.Failed, res.Attempted, tr.Failed, tr.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v", name, m.name, v.Value)
			}
			if !strings.Contains(string(out), m.name) {
				t.Errorf("report does not print %s", m.name)
			}
		}
		for _, m := range perLayer {
			if _, ok := tr.Metrics[m.name]; !ok {
				t.Errorf("%s: traced run lacks %s", name, m.name)
			}
		}
		// The separation the workloads were built for.
		self := func(layer string) float64 { return tr.Metrics["self_ms."+layer].Value }
		switch name {
		case "emulate-large":
			if self("cache") != 0 || self("core") == 0 {
				t.Errorf("emulate-large: cache self %g ms (want 0), core self %g ms (want > 0)", self("cache"), self("core"))
			}
		case "replay-large":
			if self("core") != 0 || self("cache") == 0 {
				t.Errorf("replay-large: core self %g ms (want 0), cache self %g ms (want > 0)", self("core"), self("cache"))
			}
		case "service-mix":
			if self("service") == 0 || self("cache") != 0 {
				t.Errorf("service-mix: service self %g ms (want > 0), cache self %g ms (want 0)", self("service"), self("cache"))
			}
		}
	}
	// Every per-layer metric is measured by at least one workload.
	for _, m := range perLayer {
		measuredSomewhere := false
		for _, tr := range rep.Traced {
			measuredSomewhere = measuredSomewhere || tr.Metrics[m.name].Value != 0
		}
		// Zero is a legitimate reading for these on a healthy run
		// (cold_hits only under -smoke, whose `-exp table2` reads no
		// trace twice).
		legitZero := map[string]bool{"service.sheds": true, "bench.warm_engine_runs": true, "tracestore.warm_misses": true, "tracestore.cold_hits": true}
		if !measuredSomewhere && !legitZero[m.name] {
			t.Errorf("%s reads 0 on every workload", m.name)
		}
	}
	if _, err := os.Stat(reportPath); err != nil {
		t.Error(err)
	}
}
