package main

import (
	"fmt"
	"sort"
	"time"

	"repro"

	"repro/internal/trace"
)

// rng is splitmix64: the same seed gives the same inputs on every Go
// version, which math/rand does not promise.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// between draws from [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// sizes are the N of the sized benchmark variants. The verified bands
// — 8-PE qsort 5000-9000 (every multiple of 10 was run), sequential
// qsort 4000-6000, primes 4000-5000, nrev 400-600 — are where the
// variants run under mem.DefaultLayout. bench.ByName accepts larger
// ones that die of heap, trail or control-stack overflow: nrev-1000,
// primes-6000, sequential qsort-8000, and about one 8-PE qsort in
// seven from 12000 up (qsort-17540, -17580, -17610, ...), where one PE
// is left with more than its local stack or trail holds. A draw takes
// the middle of each band: the rates are per reference and barely move
// with N, but peak RSS is proportional to it, and seeds must not
// differ by more than the metric's bound.
type sizes struct {
	qsort8, qsortSeq, primes, nrev int
	matrix, deriv, queens          int
}

func drawSizes(seed uint64, smoke bool) sizes {
	if smoke {
		return sizes{qsort8: 1500, qsortSeq: 400, primes: 400, nrev: 80, matrix: 8, deriv: 64, queens: 6}
	}
	r := &rng{s: seed}
	return sizes{
		qsortSeq: r.between(4750, 5250),
		primes:   r.between(4400, 4600),
		nrev:     r.between(480, 520),
		qsort8:   10 * r.between(625, 675),
		matrix:   32, deriv: 512, queens: 12,
	}
}

// cell is one (benchmark, PEs, sequential) engine run. The program
// under test sees only the generated name.
type cell struct {
	name string
	pes  int
	seq  bool
}

func (c cell) String() string {
	mode := "par"
	if c.seq {
		mode = "seq"
	}
	return fmt.Sprintf("%s@%d%s", c.name, c.pes, mode)
}

// guard turns an engine panic into the error of the function that
// defers it. The emulator reports a machine fault — a heap, stack or
// trail overflow — by panicking out of Run; to the harness that is one
// failed operation, not the end of the run.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("engine panic: %v", r)
	}
}

func (c cell) benchmark() (rapwam.Benchmark, error) {
	b, ok := rapwam.BenchmarkByName(c.name)
	if !ok {
		return b, fmt.Errorf("no benchmark named %q", c.name)
	}
	return b, nil
}

func par8(format string, n int) cell { return cell{name: fmt.Sprintf(format, n), pes: 8} }
func seq1(format string, n int) cell { return cell{name: fmt.Sprintf(format, n), pes: 1, seq: true} }

// timedSink measures the time a reference stream spends inside a sink
// at the sink's boundary. The engine and the decoders hand references
// over in batches of thousands, so two clock reads per batch are noise.
// It keeps every call's interval, because sinks behind a fan-out run
// concurrently and their time is the union of those intervals, not
// the sum.
type timedSink struct {
	inner trace.BatchSink
	calls [][2]int64 // start and end of each AddBatch, ns since harnessStart
	busy  time.Duration
	refs  int64
}

var harnessStart = time.Now()

func (t *timedSink) Add(r trace.Ref) { t.AddBatch([]trace.Ref{r}) }

func (t *timedSink) AddBatch(refs []trace.Ref) {
	a := time.Since(harnessStart)
	t.inner.AddBatch(refs)
	b := time.Since(harnessStart)
	t.calls = append(t.calls, [2]int64{a.Nanoseconds(), b.Nanoseconds()})
	t.busy += b - a
	t.refs += int64(len(refs))
}

func (t *timedSink) counts() map[string]int64 {
	return map[string]int64{"batches": int64(len(t.calls)), "refs": t.refs, "cpu_ns": t.busy.Nanoseconds()}
}

// busyUnion is how long at least one of the sinks was inside AddBatch,
// with the calls and time they spent there summed over all of them.
func busyUnion(sinks []*timedSink) (time.Duration, map[string]int64) {
	var all [][2]int64
	counts := map[string]int64{"sinks": int64(len(sinks))}
	for _, t := range sinks {
		all = append(all, t.calls...)
		counts["batches"] += int64(len(t.calls))
		counts["cpu_ns"] += t.busy.Nanoseconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i][0] < all[j][0] })
	var union, end int64
	for _, c := range all {
		if c[1] <= end {
			continue
		}
		union += c[1] - max(c[0], end)
		end = c[1]
	}
	return time.Duration(union), counts
}
