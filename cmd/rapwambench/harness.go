package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"
)

// A workload is one set of inputs run in its own OS process. setup is
// everything before the first timed operation and is called several
// times in one run (close between), so that setup_s is a median; round
// is one fixed-size untraced step — all three phases, or one of them
// in turn where a phase alone takes seconds;
// traced is the one decomposed pass that yields the per-layer numbers
// (the harness runs one untraced round before it, for the overhead).
type workload interface {
	setup(e *env) error
	round(e *env)
	traced(e *env)
	close()
	// phases names, in order, what phase1_rate..phase3_rate mean here.
	phases() [3]phase
	// roundsPerPass is how many rounds cover all three phases once.
	roundsPerPass() int
}

// phase is the per-workload meaning of one generic rate metric: the
// name the issue tracker and README use for it, that name's unit, and
// how to get it from the rate.
type phase struct {
	alias    string
	unit     string
	fromRate func(rate float64) float64
}

func same(r float64) float64 { return r }
func inverse(scale float64) func(float64) float64 {
	return func(r float64) float64 { return scale / r }
}

var workloads = map[string]func() workload{
	"paper-grid":    func() workload { return &gridWorkload{} },
	"emulate-large": func() workload { return &emulateWorkload{} },
	"replay-large":  func() workload { return &replayWorkload{} },
	"service-mix":   func() workload { return &serviceWorkload{} },
}

// workloadOrder is the order a full run uses and reports in.
var workloadOrder = []string{"paper-grid", "emulate-large", "replay-large", "service-mix"}

// A run sets up several times, for a median setup_s: three times at
// least, and on as long as the set-ups have taken less than
// setupBudget together, nine times at most.
const (
	setupRepeatsMin = 3
	setupRepeatsMax = 9
	setupBudget     = 3 * time.Second
)

// env is what a workload sees of the run: where to work, what was
// asked, and where measurements, failures and observed outputs go.
type env struct {
	root   string // repository root
	work   string // this run's scratch directory, inside the checkout
	seed   uint64
	smoke  bool
	oracle *oracle

	mu        sync.Mutex
	attempted int64
	failed    int64
	samples   map[string][]float64        // end-to-end metric -> one value per round (per set-up, per process)
	units     map[string]map[string]*kind // rate metric -> the kinds of unit its phase is made of
	round     map[string]tally            // rate metric -> the round under way
	kernel    *calibKernel
	pulses    [][2]float64       // the calibration kernel's two halves, in seconds, each time the pulse was taken
	layer     map[string]float64 // per-layer metric -> value (traced run)
	rec       *recorder          // nil on an untraced run
	rootSpan  int                // the traced run's root span
	reference time.Duration      // traced run: the units' time in one untraced pass, taken first
}

// op counts one attempted operation.
func (e *env) op() {
	e.mu.Lock()
	e.attempted++
	e.mu.Unlock()
}

// fail counts one failed operation and says why on stderr.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	e.failed++
	e.mu.Unlock()
	fmt.Fprintf(os.Stderr, "rapwambench: FAILED: "+format+"\n", args...)
}

// sample records one value of an end-to-end metric that is not a
// rate: one set-up's time, one process's peak RSS.
func (e *env) sample(metric string, v float64) {
	e.mu.Lock()
	e.samples[metric] = append(e.samples[metric], v)
	e.mu.Unlock()
}

// kind is one kind of timed unit of a phase — one cell's engine run,
// one trace's replay, one burst of requests: every unit of a kind does
// the same work, so their times differ by what the host did to them.
type kind struct {
	work    float64   // per unit
	seconds []float64 // one per unit, in the order run
}

// tally is work done and the seconds it took.
type tally struct{ work, seconds float64 }

// unit records that one unit of the named kind, work units of work,
// took d. A failed operation is counted where it fails and yields no
// unit.
func (e *env) unit(metric, name string, work float64, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kinds := e.units[metric]
	if kinds == nil {
		kinds = map[string]*kind{}
		e.units[metric] = kinds
	}
	k := kinds[name]
	if k == nil {
		k = &kind{work: work}
		kinds[name] = k
	}
	k.seconds = append(k.seconds, d.Seconds())
	r := e.round[metric]
	e.round[metric] = tally{r.work + work, r.seconds + d.Seconds()}
}

// endRound closes the round under way: each rate's work over its time
// in this round is one sample, kept for the quartiles reported beside
// the metric's value.
func (e *env) endRound() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for metric, r := range e.round {
		e.samples[metric] = append(e.samples[metric], r.work/r.seconds)
		e.reference += time.Duration(r.seconds * float64(time.Second))
	}
	clear(e.round)
}

// bestRate is a phase's work over the time of its units at their
// fastest: one unit of each kind, each kind's fastest. On a shared
// host every disturbance — a neighbour in the last-level cache or on
// the memory bus — makes a unit slower and none makes it faster, so a kind's fastest unit is the one the host disturbed
// least, and over ten runs of one binary it repeats several times
// better than the median unit does (README, "Host noise").
func bestRate(kinds map[string]*kind) float64 {
	if len(kinds) == 0 {
		return 0 // every unit failed, and was counted
	}
	var work, seconds float64
	for _, k := range kinds {
		work += k.work
		seconds += slices.Min(k.seconds)
	}
	return work / seconds
}

// set records a per-layer metric of the traced run; a ratio whose
// denominator failed to materialize reads 0, like a layer not called.
func (e *env) set(metric string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	e.mu.Lock()
	e.layer[metric] = v
	e.mu.Unlock()
}

// measured is one metric of one workload as reported: its value, and
// beside it the median, quartiles and count of the samples — one per
// round for a rate — and the samples themselves. The value of a rate
// is bestRate over its units, of setup_s the median, of peak_rss_mb the
// lower quartile. Times are in the host's calibrated seconds (see
// hostFactor): Raw is the value by the wall clock.
type measured struct {
	Value   float64   `json:"value"`
	Raw     float64   `json:"raw"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
	// Units are the wall times, in seconds, of every unit of each kind.
	Units map[string][]float64 `json:"units,omitempty"`
}

// summarize reports a metric from its samples, as their median. scale
// takes wall-clock values to calibrated ones.
func summarize(unit string, samples []float64, scale float64) measured {
	scaled := make([]float64, len(samples))
	for i, v := range samples {
		scaled[i] = v * scale
	}
	q1, q3 := quartiles(scaled)
	med := median(scaled)
	return measured{Value: med, Raw: median(samples), Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(samples), Samples: scaled}
}

// result is one workload's run, as written to -report and collected
// by a full run.
type result struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Seconds   int        `json:"seconds"`
	Traced    bool       `json:"traced"`
	Smoke     bool       `json:"smoke,omitempty"`
	Unstable  bool       `json:"unstable"`
	CalibMS   [2]float64 `json:"calib_ms"`
	Attempted int64      `json:"attempted"`
	Failed    int64      `json:"failed"`
	WallS     float64    `json:"wall_s"`
	// HostFactor is what wall-clock rates were multiplied by, and
	// Pulses the calibration passes, [table walk, arithmetic] in
	// seconds, it is the lower quartile of.
	HostFactor float64             `json:"host_factor,omitempty"`
	Pulses     [][2]float64        `json:"pulses,omitempty"`
	Metrics    map[string]measured `json:"metrics"`
}

// unstableShare is how far the calibration kernel may drift across a
// workload before its numbers are marked as taken on a noisy host.
const unstableShare = 0.10

// runWorkload runs one workload in this process and returns what it
// measured. seconds bounds the untraced measuring loop; a traced run
// is one fixed decomposed pass.
func runWorkload(e *env, name string, seconds int, traced bool, spansPath string) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := mk()
	start := time.Now()
	res := &result{Workload: name, Seed: e.seed, Seconds: seconds, Traced: traced, Smoke: e.smoke, Metrics: map[string]measured{}}
	calibReps := 9
	if e.smoke {
		calibReps = 3
	}
	res.CalibMS[0] = e.kernel.best(calibReps)

	setupStart := time.Now()
	for i := 1; ; i++ {
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		e.sample("setup_s", time.Since(t0).Seconds())
		e.pulse()
		if traced || e.smoke || i == setupRepeatsMax || (i >= setupRepeatsMin && time.Since(setupStart) > setupBudget) {
			break
		}
		// The next set-up starts from an empty heap, so the process's
		// peak RSS is one set-up's, not two overlapping.
		w.close()
		debug.FreeOSMemory()
	}
	defer w.close()

	if traced {
		// One untraced pass over the phases first, outside the root
		// span: its units' time (e.reference) is what the traced
		// pass's overhead is measured against.
		for i := 0; i < w.roundsPerPass(); i++ {
			w.round(e)
			e.endRound()
		}
		e.rec = newRecorder(name)
		root := e.rec.start(0, "harness", name)
		e.rootSpan = root
		w.traced(e)
		wall := e.rec.end(root, nil)
		spans := e.rec.snapshot()
		// Self times are summed over goroutines, so concurrent layer
		// calls can add up to more than the wall; what is attributed
		// is the share of the wall the harness did not spend itself.
		self := layerSelfMS(spans)
		for _, l := range layers {
			e.set("self_ms."+l, self[l])
		}
		wallMS := float64(wall.Nanoseconds()) / 1e6
		e.set("harness.traced_wall_ms", wallMS)
		e.set("harness.attributed_pct", 100*(1-self["harness"]/wallMS))
		if spansPath != "" {
			if err := e.rec.write(spansPath); err != nil {
				return nil, err
			}
		}
	} else {
		measureStart := time.Now()
		budget := time.Duration(seconds) * time.Second
		for rounds := 0; ; {
			w.round(e)
			e.endRound()
			e.pulse()
			rounds++
			if rounds < w.roundsPerPass() {
				continue // every phase is measured at least once
			}
			elapsed := time.Since(measureStart)
			// Another round only if at least half of it fits: a run
			// ends within half a round of the time asked for.
			if e.smoke || elapsed+elapsed/time.Duration(2*rounds) > budget {
				break
			}
		}
	}

	res.CalibMS[1] = e.kernel.best(calibReps)
	drift := (res.CalibMS[1] - res.CalibMS[0]) / res.CalibMS[0]
	res.Unstable = drift > unstableShare || drift < -unstableShare
	if res.Unstable {
		fmt.Fprintf(os.Stderr, "rapwambench: %s: UNSTABLE host: calibration kernel %.1f ms before, %.1f ms after\n", name, res.CalibMS[0], res.CalibMS[1])
	}

	if traced {
		e.set("harness.calib_ms_before", res.CalibMS[0])
		e.set("harness.calib_ms_after", res.CalibMS[1])
		for _, m := range perLayer {
			v := e.layer[m.name]
			res.Metrics[m.name] = measured{Value: v, Raw: v, Unit: m.unit, Median: v, Q1: v, Q3: v, N: 1}
		}
	} else {
		// In-process workloads: this process. Otherwise the workload
		// sampled its CLI runs or daemons as they ended.
		if len(e.samples["peak_rss_mb"]) == 0 {
			e.sample("peak_rss_mb", float64(selfMaxRSS())/1024)
		}
		// A second of a slow host holds less than a second of a quiet
		// one: rates are scaled up by the host's factor, the set-up
		// time down, memory not at all.
		res.HostFactor = e.hostFactor()
		for _, m := range endToEnd {
			if len(e.samples[m.name]) == 0 {
				e.fail("%s: no sample of %s", name, m.name)
			}
			var v measured
			switch kinds := e.units[m.name]; m.name {
			case "setup_s":
				v = summarize(m.unit, e.samples[m.name], 1/res.HostFactor)
			case "peak_rss_mb":
				// A process's peak depends on where its collector's
				// cycles fall: the same daemon peaks at 115 MB in most
				// rounds and at 170 or 215 MB in some, and a median
				// flips between the modes from run to run. The lower
				// quartile stays on the common one, and moves with
				// the live heap like the rest.
				v = summarize(m.unit, e.samples[m.name], 1)
				v.Value, v.Raw = v.Q1, v.Q1
			default: // a phase's rate
				v = summarize(m.unit, e.samples[m.name], res.HostFactor)
				v.Raw = bestRate(kinds)
				v.Value = v.Raw * res.HostFactor
				v.Units = map[string][]float64{}
				for name, k := range kinds {
					v.Units[name] = k.seconds
				}
			}
			res.Metrics[m.name] = v
		}
	}
	if err := e.oracle.finish(); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = e.attempted, e.failed
	res.Pulses = e.pulses
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// driverLine is the last line of standard output of a single-workload
// run, in the form the acceptance driver reads.
func driverLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for name, m := range res.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	return string(line)
}

func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss // KB on Linux
}

// The calibration kernel touches no code of the system under test. It
// has two halves of about equal time on a quiet host: a xorshift walk
// over a 4 MiB table, whose time is the last-level cache's and the
// memory's, and the same arithmetic with no table, whose time is the
// core's alone. What disturbs a shared host is its neighbours' use of
// cache and memory; the system under test slows by about half of what
// the table walk does, and so does the two halves' sum (README, "Host
// noise").
type calibKernel struct{ table []uint32 }

func newCalibKernel() *calibKernel {
	k := &calibKernel{table: make([]uint32, 1<<20)}
	k.run() // faults the table in
	return k
}

var calibSink uint32 // keeps the kernel's results live

// run is one pass of the kernel: the seconds its two halves took.
func (k *calibKernel) run() (mem, alu float64) {
	x := uint32(2463534242)
	t0 := time.Now()
	for i := 0; i < 8<<20; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.table[x&(1<<20-1)] += x
	}
	t1 := time.Now()
	y := uint32(88172645)
	for i := 0; i < 8<<20; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		y = y*1664525 + 1013904223 + x
	}
	t2 := time.Now()
	calibSink = k.table[1] + y
	return t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
}

// best is the fastest of reps passes, in milliseconds.
func (k *calibKernel) best(reps int) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		mem, alu := k.run()
		best = min(best, 1e3*(mem+alu))
	}
	return best
}

// calibNominal is the calibration kernel's time, in seconds, as the
// pulses find it on the recorded host when its neighbours are quiet:
// the host speed every time is reported at. (Back to back the table
// walk takes 20 ms and the arithmetic 19 ms; between units that have
// emptied the cache, 25 and 19.)
const calibNominal = 0.044

// hostFactor is how much slower than nominal the host ran during this
// run: the lower quartile of the pulses over calibNominal. The units'
// fastest times are reported, so it is the pulse's faster side that
// matches them; not its fastest, because a 40 ms pass finds a quiet
// moment that no unit ten times as long can.
func (e *env) hostFactor() float64 {
	if len(e.pulses) == 0 {
		return 1
	}
	sums := make([]float64, len(e.pulses))
	for i, p := range e.pulses {
		sums[i] = p[0] + p[1]
	}
	q1, _ := quartiles(sums)
	return q1 / calibNominal
}

// pulse takes the host's pulse between two units of the workload: the
// faster of two passes of the calibration kernel, the first of which
// also brings the table back into the cache the workload took.
func (e *env) pulse() {
	mem, alu := e.kernel.run()
	mem2, alu2 := e.kernel.run()
	mem, alu = min(mem, mem2), min(alu, alu2)
	e.mu.Lock()
	e.pulses = append(e.pulses, [2]float64{mem, alu})
	e.mu.Unlock()
}

// newEnv makes the run's scratch directory inside the checkout.
func newEnv(root string, seed uint64, smoke, update bool) (*env, error) {
	base := filepath.Join(root, ".bench_build", "rapwambench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	or, err := loadOracle(root, update)
	if err != nil {
		return nil, err
	}
	return &env{
		root: root, work: work, seed: seed, smoke: smoke, oracle: or,
		samples: map[string][]float64{}, layer: map[string]float64{},
		units: map[string]map[string]*kind{}, round: map[string]tally{},
		kernel: newCalibKernel(),
	}, nil
}
