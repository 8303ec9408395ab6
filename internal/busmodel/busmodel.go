// Package busmodel estimates shared-bus contention for the two-level
// memory organization of the paper's Figure 3. Section 3.3 of the paper
// defers the "time penalty to access shared memory due to contention"
// to a queueing model (Tick's); this package implements both an
// analytic M/M/1 approximation and a deterministic discrete-event
// simulation of a single shared bus fed by per-PE miss streams.
package busmodel

import (
	"fmt"
	"math"
)

// Params describes the bus and the offered load.
type Params struct {
	// PEs is the number of processors.
	PEs int
	// RefsPerCycle is each PE's memory-reference rate while working
	// (references per processor cycle; ~1 for a reference-per-cycle
	// abstract machine).
	RefsPerCycle float64
	// TrafficRatio is the cache simulator's bus words per reference.
	TrafficRatio float64
	// BusWordsPerCycle is the bus bandwidth in words per processor
	// cycle (>1 models a wide or overlapped bus + interleaved memory).
	BusWordsPerCycle float64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.PEs <= 0 {
		return fmt.Errorf("busmodel: PEs = %d", p.PEs)
	}
	if p.RefsPerCycle <= 0 || p.TrafficRatio < 0 || p.BusWordsPerCycle <= 0 {
		return fmt.Errorf("busmodel: non-positive rate parameters")
	}
	return nil
}

// Result summarizes a contention estimate.
type Result struct {
	// Utilization is the fraction of bus capacity in use (ρ).
	Utilization float64
	// MeanWaitCycles is the average queueing delay per bus word.
	MeanWaitCycles float64
	// Efficiency is the fraction of peak PE throughput retained after
	// bus stalls (1 = no slowdown).
	Efficiency float64
	// Saturated reports offered load at or above bus capacity.
	Saturated bool
}

// Analytic evaluates an M/M/1 approximation: the bus is a single server
// with service rate BusWordsPerCycle, offered P·r·t words per cycle.
func Analytic(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	offered := float64(p.PEs) * p.RefsPerCycle * p.TrafficRatio
	rho := offered / p.BusWordsPerCycle
	if rho >= 1 {
		return Result{Utilization: rho, Saturated: true}, nil
	}
	service := 1 / p.BusWordsPerCycle
	wait := service * rho / (1 - rho) // M/M/1 queueing delay
	// A PE stalls `wait` cycles for each of its r·t bus words/cycle.
	stallPerCycle := p.RefsPerCycle * p.TrafficRatio * wait
	eff := 1 / (1 + stallPerCycle)
	return Result{Utilization: rho, MeanWaitCycles: wait, Efficiency: eff}, nil
}

// MaxPEs returns the largest PE count keeping analytic efficiency at or
// above target (0 < target < 1).
func MaxPEs(p Params, target float64) (int, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("busmodel: target %v out of (0,1)", target)
	}
	best := 0
	for n := 1; n <= 4096; n++ {
		q := p
		q.PEs = n
		r, err := Analytic(q)
		if err != nil {
			return 0, err
		}
		if r.Saturated || r.Efficiency < target {
			break
		}
		best = n
	}
	if best == 0 {
		return 0, fmt.Errorf("busmodel: even 1 PE misses target %.2f", target)
	}
	return best, nil
}

// Version identifies the Bus's observable behaviour, as cache.SimVersion
// does the cache kernels': stored DES results are stamped with both, so
// bump it whenever a change moves any Result a Bus returns
// (experiments.TestBusDESGolden fails when one moves and this does not).
const Version = "des1"

// Event is one bus transaction for the discrete-event simulation.
type Event struct {
	// PE is the requesting processor.
	PE int
	// Time is the issue time in cycles (monotone per PE).
	Time float64
	// Words is the transaction length.
	Words int
}

// Bus is the discrete-event simulation: a FIFO single-server bus fed
// one transaction at a time, in issue-time order, as a replay produces
// them — no event is stored. An event issued before its predecessor is
// an error; so is one from a PE out of range. The first failed Add is
// also what Result reports.
type Bus struct {
	pes              int
	busWordsPerCycle float64
	stall            []float64
	busFree          float64 // time the bus becomes free
	busBusy          float64 // accumulated service time
	lastEnd          float64
	totalWait        float64
	lastTime         float64 // issue time of the previous event
	events           int64
	err              error
}

// NewBus returns an idle bus for pes processors with the given
// bandwidth in words per cycle.
func NewBus(pes int, busWordsPerCycle float64) (*Bus, error) {
	if pes <= 0 || busWordsPerCycle <= 0 {
		return nil, fmt.Errorf("busmodel: bad simulate params")
	}
	return &Bus{pes: pes, busWordsPerCycle: busWordsPerCycle, stall: make([]float64, pes)}, nil
}

// Add serves one transaction.
func (b *Bus) Add(ev Event) error {
	if b.err != nil {
		return b.err
	}
	switch {
	case ev.PE < 0 || ev.PE >= b.pes:
		b.err = fmt.Errorf("busmodel: event PE %d out of range", ev.PE)
	case b.events > 0 && ev.Time < b.lastTime:
		b.err = fmt.Errorf("busmodel: event issued at %v after one issued at %v", ev.Time, b.lastTime)
	}
	if b.err != nil {
		return b.err
	}
	start := math.Max(ev.Time, b.busFree)
	service := float64(ev.Words) / b.busWordsPerCycle
	wait := start - ev.Time
	b.stall[ev.PE] += wait
	b.totalWait += wait
	b.busFree = start + service
	b.busBusy += service
	b.lastEnd = b.busFree
	b.lastTime = ev.Time
	b.events++
	return nil
}

// Result returns the aggregate result and per-PE stall totals of the
// transactions added so far.
func (b *Bus) Result() (Result, []float64, error) {
	if b.err != nil {
		return Result{}, nil, b.err
	}
	stall := append([]float64(nil), b.stall...)
	if b.events == 0 {
		return Result{Efficiency: 1}, stall, nil
	}
	util := b.busBusy / b.lastEnd
	mean := b.totalWait / float64(b.events)
	// Efficiency: useful time over useful+stall, averaged over PEs.
	var eff float64
	for pe := 0; pe < b.pes; pe++ {
		eff += b.lastEnd / (b.lastEnd + stall[pe])
	}
	eff /= float64(b.pes)
	return Result{Utilization: util, MeanWaitCycles: mean, Efficiency: eff}, stall, nil
}
