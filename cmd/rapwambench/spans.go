package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers are this repository's packages; every span belongs to one.
// "harness" is the benchmark itself: whatever the root span spent that
// no layer call covers.
var layers = []string{
	"parse", "compile", "core", "trace", "tracestore", "storage",
	"cache", "bench", "experiments", "service", "harness",
}

// span is one call the harness made into a layer. Spans are recorded
// only by the harness, around the call; nothing inside the program is
// instrumented. ID 0 is "no span", so a root span has Parent 0.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. Safe for use from
// the harness's client goroutines.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// start opens a span under parent and returns its id.
func (r *recorder) start(parent int, layer, name string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Layer: layer, Name: name, StartNS: now, EndNS: now})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int, counts map[string]int64) time.Duration {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = now
	s.Counts = counts
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a finished span whose start the caller measured (an HTTP
// round trip timed by the client goroutine that made it).
func (r *recorder) add(parent int, layer, name string, start time.Time, d time.Duration, counts map[string]int64) {
	a := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Workload: r.workload, Layer: layer, Name: name, StartNS: a, EndNS: a + d.Nanoseconds(), Counts: counts})
}

// do runs f inside a span and returns the span's duration.
func (r *recorder) do(parent int, layer, name string, f func()) time.Duration {
	id := r.start(parent, layer, name)
	f()
	return r.end(id, nil)
}

// folded records many short calls into a layer as one span of their
// summed duration, placed at the parent's start: a sink that the
// engine calls once per reference batch cannot afford a span per call.
// The duration is measured (see timedSink); only the position is
// synthetic, which self-time arithmetic does not depend on.
func (r *recorder) folded(parent int, layer, name string, busy time.Duration, counts map[string]int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent-1].StartNS
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Layer: layer, Name: name, StartNS: start, EndNS: start + busy.Nanoseconds(), Counts: counts})
	return id
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its direct children cover. Children may overlap
// one another (concurrent clients, fan-out consumers), so the covered
// part is the union of their intervals clipped to the parent, never
// their sum.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	children := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if b > a {
			children[s.Parent] = append(children[s.Parent], iv{a, b})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64
		end = s.StartNS
		for _, c := range ivs {
			if c.b <= end {
				continue
			}
			covered += c.b - max(c.a, end)
			end = c.b
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// layerSelfMS sums self time by layer, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e6
	}
	return out
}
