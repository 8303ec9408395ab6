package busmodel

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Simulate runs a FIFO single-server bus over the given transactions
// and returns per-PE stall totals plus the aggregate result. Events
// need not be globally sorted; they are ordered by issue time (ties in
// the order given) and fed to a Bus. It is the reference over a stored
// event list that TestBusMatchesSimulate holds the streaming Bus to.
func Simulate(events []Event, pes int, busWordsPerCycle float64) (Result, []float64, error) {
	b, err := NewBus(pes, busWordsPerCycle)
	if err != nil {
		return Result{}, nil, err
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	for _, ev := range evs {
		if err := b.Add(ev); err != nil {
			return Result{}, nil, err
		}
	}
	return b.Result()
}

func TestAnalyticZeroTrafficIsPerfect(t *testing.T) {
	r, err := Analytic(Params{PEs: 8, RefsPerCycle: 1, TrafficRatio: 0, BusWordsPerCycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Efficiency != 1 || r.Utilization != 0 {
		t.Errorf("got %+v, want perfect efficiency", r)
	}
}

func TestAnalyticSaturation(t *testing.T) {
	r, err := Analytic(Params{PEs: 8, RefsPerCycle: 1, TrafficRatio: 0.5, BusWordsPerCycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Saturated {
		t.Errorf("offered 4 words/cycle on a 1-word bus should saturate: %+v", r)
	}
}

func TestAnalyticMonotoneInBandwidth(t *testing.T) {
	var prev float64
	for i, bw := range []float64{1, 2, 4, 8, 16} {
		r, err := Analytic(Params{PEs: 8, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: bw})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && r.Efficiency < prev {
			t.Errorf("efficiency fell from %.3f to %.3f at bw=%v", prev, r.Efficiency, bw)
		}
		prev = r.Efficiency
	}
}

func TestAnalyticMonotoneInPEsProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := seed % 100
		if m < 0 {
			m = -m
		}
		traffic := 0.05 + float64(m)/1000
		var prev float64 = 2
		for _, pes := range []int{1, 2, 4, 8, 16} {
			r, err := Analytic(Params{PEs: pes, RefsPerCycle: 1, TrafficRatio: traffic, BusWordsPerCycle: 8})
			if err != nil {
				return false
			}
			eff := r.Efficiency
			if r.Saturated {
				eff = 0
			}
			if eff > prev {
				return false // more PEs cannot improve per-PE efficiency
			}
			prev = eff
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAnalyticRejectsBadParams(t *testing.T) {
	bad := []Params{
		{PEs: 0, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 1},
		{PEs: 1, RefsPerCycle: 0, TrafficRatio: 0.1, BusWordsPerCycle: 1},
		{PEs: 1, RefsPerCycle: 1, TrafficRatio: -1, BusWordsPerCycle: 1},
		{PEs: 1, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 0},
	}
	for i, p := range bad {
		if _, err := Analytic(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestMaxPEs(t *testing.T) {
	p := Params{PEs: 1, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 4}
	n, err := MaxPEs(p, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("MaxPEs = %d", n)
	}
	// Verify the boundary: n meets the target, n+1 does not (or saturates).
	p.PEs = n
	r, _ := Analytic(p)
	if r.Efficiency < 0.9 {
		t.Errorf("MaxPEs=%d but efficiency %.3f < target", n, r.Efficiency)
	}
	p.PEs = n + 1
	r, _ = Analytic(p)
	if !r.Saturated && r.Efficiency >= 0.9 {
		t.Errorf("n+1=%d still meets target (eff %.3f)", n+1, r.Efficiency)
	}
}

func TestMaxPEsRejectsBadTarget(t *testing.T) {
	p := Params{PEs: 1, RefsPerCycle: 1, TrafficRatio: 0.1, BusWordsPerCycle: 4}
	for _, target := range []float64{0, 1, -0.5, 2} {
		if _, err := MaxPEs(p, target); err == nil {
			t.Errorf("target %v accepted", target)
		}
	}
}

func TestSimulateNoContention(t *testing.T) {
	// Well-spaced events: no waiting.
	events := []Event{
		{PE: 0, Time: 0, Words: 4},
		{PE: 1, Time: 100, Words: 4},
		{PE: 0, Time: 200, Words: 4},
	}
	r, stall, err := Simulate(events, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanWaitCycles != 0 {
		t.Errorf("mean wait = %v, want 0", r.MeanWaitCycles)
	}
	if stall[0] != 0 || stall[1] != 0 {
		t.Errorf("stalls = %v", stall)
	}
	if r.Efficiency != 1 {
		t.Errorf("efficiency = %v", r.Efficiency)
	}
}

func TestSimulateFullContention(t *testing.T) {
	// Two simultaneous 4-word transactions on a 1-word/cycle bus: the
	// second waits 4 cycles.
	events := []Event{
		{PE: 0, Time: 0, Words: 4},
		{PE: 1, Time: 0, Words: 4},
	}
	r, stall, err := Simulate(events, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stall[0] != 0 || stall[1] != 4 {
		t.Errorf("stalls = %v, want [0 4]", stall)
	}
	if math.Abs(r.Utilization-1.0) > 1e-9 {
		t.Errorf("utilization = %v, want 1", r.Utilization)
	}
}

func TestSimulateEmpty(t *testing.T) {
	r, _, err := Simulate(nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Efficiency != 1 {
		t.Errorf("empty simulation efficiency = %v", r.Efficiency)
	}
}

func TestSimulateRejectsBadEvents(t *testing.T) {
	if _, _, err := Simulate([]Event{{PE: 5, Time: 0, Words: 1}}, 2, 1); err == nil {
		t.Error("out-of-range PE accepted")
	}
	if _, _, err := Simulate(nil, 0, 1); err == nil {
		t.Error("zero PEs accepted")
	}
}

func TestSimulateAgreesWithAnalyticTrend(t *testing.T) {
	// Dense periodic load: higher bandwidth -> less waiting.
	mk := func() []Event {
		var evs []Event
		for i := 0; i < 500; i++ {
			evs = append(evs, Event{PE: i % 4, Time: float64(i), Words: 2})
		}
		return evs
	}
	slow, _, err := Simulate(mk(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := Simulate(mk(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanWaitCycles > slow.MeanWaitCycles {
		t.Errorf("faster bus waits more: %v vs %v", fast.MeanWaitCycles, slow.MeanWaitCycles)
	}
	if fast.Efficiency < slow.Efficiency {
		t.Errorf("faster bus less efficient: %v vs %v", fast.Efficiency, slow.Efficiency)
	}
}

// TestBusMatchesSimulate: events fed in issue-time order through a Bus
// give Simulate's result bit for bit.
func TestBusMatchesSimulate(t *testing.T) {
	var evs []Event
	for i := 0; i < 500; i++ {
		evs = append(evs, Event{PE: i * 7 % 4, Time: float64(i/3) * 0.75, Words: 1 + i%4})
	}
	want, wantStall, err := Simulate(evs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := b.Add(ev); err != nil {
			t.Fatal(err)
		}
	}
	got, gotStall, err := b.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Bus %+v, Simulate %+v", got, want)
	}
	for pe := range wantStall {
		if gotStall[pe] != wantStall[pe] {
			t.Errorf("PE %d stall: Bus %v, Simulate %v", pe, gotStall[pe], wantStall[pe])
		}
	}
}

// TestBusRejectsOutOfOrderEvent: a Bus serves transactions as they are
// issued, so one issued before its predecessor is an error — from Add
// and, sticky, from every later Add and from Result.
func TestBusRejectsOutOfOrderEvent(t *testing.T) {
	b, err := NewBus(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Event{{PE: 0, Time: 5, Words: 1}, {PE: 1, Time: 5, Words: 1}} {
		if err := b.Add(ev); err != nil {
			t.Fatalf("equal issue times rejected: %v", err)
		}
	}
	if err := b.Add(Event{PE: 0, Time: 4, Words: 1}); err == nil {
		t.Fatal("an event issued before its predecessor was accepted")
	}
	if err := b.Add(Event{PE: 0, Time: 6, Words: 1}); err == nil {
		t.Error("Add after a rejected event succeeded")
	}
	if _, _, err := b.Result(); err == nil {
		t.Error("Result after a rejected event succeeded")
	}
	if _, err := NewBus(0, 1); err == nil {
		t.Error("zero PEs accepted")
	}
}
