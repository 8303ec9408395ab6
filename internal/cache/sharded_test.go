package cache

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// Determinism matrix for set-sharded replay: for every protocol, on
// real deriv and qsort engine traces, replay with shards ∈ {1, 2, 7,
// NumCPU} must produce Stats, per-PE bus words and per-PE reference
// vectors bit-identical to the sequential kernels — and, via the
// golden-parity suite's reference simulator, to the seed refsim.

// shardCounts is the required shard matrix. 7 deliberately does not
// divide the set counts evenly, exercising uneven shard ranges.
func shardCounts() []int {
	counts := []int{1, 2, 7}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// runSharded replays buf through a K-shard simulator via the batch
// path (the same delivery the fan-out and grid use).
func runSharded(buf *trace.Buffer, cfg Config, k int) (Stats, []int64, []int64) {
	s := NewSharded(cfg, k)
	s.AddBatchStable(buf.Refs)
	s.Close()
	return s.Stats(), s.PerPEBusWords(), s.PerPERefs()
}

// shardConfigs enumerates set-associative configurations (the ones
// that actually shard) plus the fully associative clamp case.
func shardConfigs(p Protocol, pes int) []Config {
	var cfgs []Config
	for _, wa := range []bool{false, true} {
		for _, assoc := range []int{0, 2, 4} {
			cfgs = append(cfgs, Config{
				PEs: pes, SizeWords: 256, LineWords: 4,
				Protocol: p, WriteAllocate: wa, Assoc: assoc,
			})
		}
	}
	return cfgs
}

func TestShardedReplayDeterminism(t *testing.T) {
	for _, benchName := range []string{"deriv", "qsort"} {
		for _, p := range Protocols() {
			pes, sequential := 4, false
			if p == Copyback {
				pes, sequential = 1, true
			}
			buf := parityTrace(t, benchName, pes, sequential)
			for _, cfg := range shardConfigs(p, pes) {
				cfg := cfg
				name := fmt.Sprintf("%s/%v/wa=%v/assoc=%d", benchName, p, cfg.WriteAllocate, cfg.Assoc)
				t.Run(name, func(t *testing.T) {
					// Sequential kernels (pinned to the seed refsim by
					// the golden-parity suite) are the ground truth.
					wantStats, wantBus, wantRefs, _ := runNew(buf, cfg, false)
					refStats, refBus, refRefs, _ := runRef(buf, cfg, false)
					if wantStats != refStats || !eqVec(wantBus, refBus) || !eqVec(wantRefs, refRefs) {
						t.Fatalf("sequential kernels disagree with refsim; parity suite should have caught this")
					}
					for _, k := range shardCounts() {
						gotStats, gotBus, gotRefs := runSharded(buf, cfg, k)
						if gotStats != wantStats {
							t.Errorf("shards=%d stats differ:\n got %+v\nwant %+v", k, gotStats, wantStats)
						}
						if !eqVec(gotBus, wantBus) {
							t.Errorf("shards=%d per-PE bus differ:\n got %v\nwant %v", k, gotBus, wantBus)
						}
						if !eqVec(gotRefs, wantRefs) {
							t.Errorf("shards=%d per-PE refs differ:\n got %v\nwant %v", k, gotRefs, wantRefs)
						}
					}
				})
			}
		}
	}
}

func TestEffectiveShards(t *testing.T) {
	fullAssoc := Config{PEs: 4, SizeWords: 256, LineWords: 4, Assoc: 0}
	setAssoc := Config{PEs: 4, SizeWords: 256, LineWords: 4, Assoc: 2} // 32 sets
	cases := []struct {
		cfg  Config
		k    int
		want int
	}{
		{fullAssoc, 1, 1},
		{fullAssoc, 8, 1},  // one global LRU pool: cannot shard
		{fullAssoc, 0, 1},  // k <= 0 treated as 1
		{setAssoc, -3, 1},  //
		{setAssoc, 1, 1},   //
		{setAssoc, 7, 7},   // uneven division is fine
		{setAssoc, 32, 32}, // one worker per set
		{setAssoc, 64, 32}, // clamped to set count
	}
	for _, c := range cases {
		if got := EffectiveShards(c.cfg, c.k); got != c.want {
			t.Errorf("EffectiveShards(assoc=%d, k=%d) = %d, want %d", c.cfg.Assoc, c.k, got, c.want)
		}
	}
}

// TestShardedWorkerRangesCoverAllSets checks the shard partition is a
// disjoint cover of [0, sets) for even and uneven worker counts.
func TestShardedWorkerRangesCoverAllSets(t *testing.T) {
	cfg := Config{PEs: 4, SizeWords: 256, LineWords: 4, Protocol: WriteThrough, Assoc: 2} // 32 sets
	for _, k := range []int{1, 2, 7, 31, 32} {
		s := NewSharded(cfg, k)
		next := int32(0)
		for i, w := range s.workers {
			if w.lo != next {
				t.Fatalf("k=%d worker %d: lo = %d, want %d", k, i, w.lo, next)
			}
			if w.hi < w.lo {
				t.Fatalf("k=%d worker %d: empty-inverted range [%d,%d)", k, i, w.lo, w.hi)
			}
			next = w.hi
		}
		if next != 32 {
			t.Fatalf("k=%d: ranges cover [0,%d), want [0,32)", k, next)
		}
		s.Close()
	}
}

// TestSimulateAllShardsMatchesSequential drives the public entry point
// over a mixed shardable/unshardable configuration list.
func TestSimulateAllShardsMatchesSequential(t *testing.T) {
	buf := parityTrace(t, "qsort", 4, false)
	var cfgs []Config
	for _, p := range []Protocol{WriteThrough, WriteInBroadcast, WriteThroughBroadcast, Hybrid} {
		for _, assoc := range []int{0, 2, 4} {
			cfgs = append(cfgs, Config{PEs: 4, SizeWords: 256, LineWords: 4, Protocol: p, WriteAllocate: true, Assoc: assoc})
		}
	}
	want, err := SimulateAll(buf, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range shardCounts() {
		got, err := SimulateAllShards(buf, cfgs, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if got[i] != want[i] {
				t.Errorf("shards=%d cfg %d (%v assoc=%d): stats differ:\n got %+v\nwant %+v",
					k, i, cfgs[i].Protocol, cfgs[i].Assoc, got[i], want[i])
			}
		}
	}
}

// TestShardedSingleRefPath exercises the per-reference Sink path.
func TestShardedSingleRefPath(t *testing.T) {
	buf := parityTrace(t, "deriv", 4, false)
	cfg := Config{PEs: 4, SizeWords: 256, LineWords: 4, Protocol: Hybrid, WriteAllocate: true, Assoc: 4}
	wantStats, _, _, _ := runNew(buf, cfg, false)
	s := NewSharded(cfg, 3)
	for _, r := range buf.Refs {
		s.Add(r)
	}
	s.Close()
	if got := s.Stats(); got != wantStats {
		t.Errorf("single-ref path stats differ:\n got %+v\nwant %+v", got, wantStats)
	}
}

// TestShardedReadBeforeClosePanics pins the misuse guard.
func TestShardedReadBeforeClosePanics(t *testing.T) {
	cfg := Config{PEs: 2, SizeWords: 256, LineWords: 4, Protocol: WriteThrough, Assoc: 2}
	s := NewSharded(cfg, 2)
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Error("Stats before Close did not panic")
		}
	}()
	_ = s.Stats()
}

// BenchmarkShardedReplay measures single-configuration replay
// throughput versus shard count on a set-associative configuration
// (1024 words, 4-word lines, 2-way: 128 sets). shards=1 takes the plain sequential kernel path
// via SimulateAllShards, so the baseline includes no fan-out overhead.
func BenchmarkShardedReplay(b *testing.B) {
	buf := parityTrace(b, "qsort", 4, false)
	cfg := Config{PEs: 4, SizeWords: 1024, LineWords: 4, Protocol: Hybrid, WriteAllocate: true, Assoc: 2}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(buf.Refs)))
			for i := 0; i < b.N; i++ {
				if _, err := SimulateAllShards(buf, []Config{cfg}, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf.Refs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
