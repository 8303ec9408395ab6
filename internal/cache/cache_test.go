package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func ref(pe int, op trace.Op, addr uint32, obj trace.ObjType) trace.Ref {
	return trace.Ref{Addr: addr, PE: uint8(pe), Op: op, Obj: obj}
}

func read(pe int, addr uint32) trace.Ref  { return ref(pe, trace.OpRead, addr, trace.ObjHeap) }
func write(pe int, addr uint32) trace.Ref { return ref(pe, trace.OpWrite, addr, trace.ObjHeap) }

func run(t *testing.T, cfg Config, refs []trace.Ref) *Sim {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	s := New(cfg)
	for _, r := range refs {
		s.Add(r)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: WriteThrough}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []Config{
		{PEs: 0, SizeWords: 64, LineWords: 4},
		{PEs: 1, SizeWords: 64, LineWords: 3},
		{PEs: 1, SizeWords: 2, LineWords: 4},
		{PEs: 1, SizeWords: 130, LineWords: 4}, // would simulate 128 words, labelled 130
		{PEs: 1, SizeWords: 12, LineWords: 8, Assoc: 1},
		{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: Copyback},
		{PEs: 1, SizeWords: 64, LineWords: 4, Protocol: Protocol(99)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPaperWriteAllocatePolicy(t *testing.T) {
	for _, p := range Protocols() {
		for _, size := range []int{64, 128, 256} {
			if PaperWriteAllocate(p, size) {
				t.Errorf("%v %d: small caches are no-write-allocate", p, size)
			}
		}
		if got, want := PaperWriteAllocate(p, 512), p != Hybrid; got != want {
			t.Errorf("%v 512: allocate = %v, want %v", p, got, want)
		}
		if !PaperWriteAllocate(p, 1024) {
			t.Errorf("%v 1024: want write-allocate", p)
		}
	}
}

func TestWriteThroughEveryWriteOnBus(t *testing.T) {
	// 10 writes to the same word: 10 bus words regardless of hits.
	refs := make([]trace.Ref, 10)
	for i := range refs {
		refs[i] = write(0, 0)
	}
	s := run(t, Config{PEs: 1, SizeWords: 64, LineWords: 4, Protocol: WriteThrough}, refs)
	if s.Stats().BusWords != 10 {
		t.Errorf("bus words = %d, want 10", s.Stats().BusWords)
	}
	if s.Stats().WriteThroughs != 10 {
		t.Errorf("write-throughs = %d, want 10", s.Stats().WriteThroughs)
	}
}

func TestWriteThroughReadMissFetchesLine(t *testing.T) {
	s := run(t, Config{PEs: 1, SizeWords: 64, LineWords: 4, Protocol: WriteThrough},
		[]trace.Ref{read(0, 0), read(0, 1), read(0, 2), read(0, 3)})
	st := s.Stats()
	if st.ReadMisses != 1 {
		t.Errorf("read misses = %d, want 1 (same line)", st.ReadMisses)
	}
	if st.BusWords != 4 {
		t.Errorf("bus words = %d, want 4 (one line fill)", st.BusWords)
	}
}

func TestWriteThroughInvalidatesRemoteCopies(t *testing.T) {
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: WriteThrough},
		[]trace.Ref{
			read(1, 0),  // PE1 caches the line
			write(0, 0), // PE0 write invalidates PE1's copy
			read(1, 0),  // PE1 must miss again
		})
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.ReadMisses != 2 {
		t.Errorf("read misses = %d, want 2", st.ReadMisses)
	}
}

func TestCopybackRepeatedWritesStayLocal(t *testing.T) {
	// Write-allocate copyback: first write fetches the line, subsequent
	// writes are silent; eviction writes the dirty line back.
	refs := []trace.Ref{write(0, 0), write(0, 1), write(0, 2), write(0, 3)}
	s := run(t, Config{PEs: 1, SizeWords: 64, LineWords: 4, Protocol: Copyback, WriteAllocate: true}, refs)
	st := s.Stats()
	if st.BusWords != 4 {
		t.Errorf("bus words = %d, want 4 (one fill only)", st.BusWords)
	}
	if st.WriteBacks != 0 {
		t.Errorf("write-backs = %d, want 0 before eviction", st.WriteBacks)
	}
}

func TestCopybackEvictionWritesBack(t *testing.T) {
	// Cache of 2 lines (8 words, 4-word lines). Dirty line 0, then touch
	// lines 1 and 2 to evict it.
	refs := []trace.Ref{
		write(0, 0), // fill line 0 dirty (4 words)
		read(0, 4),  // fill line 1 (4 words)
		read(0, 8),  // fill line 2 (4), evicts line 0 -> writeback (4)
	}
	s := run(t, Config{PEs: 1, SizeWords: 8, LineWords: 4, Protocol: Copyback, WriteAllocate: true}, refs)
	st := s.Stats()
	if st.WriteBacks != 1 {
		t.Errorf("write-backs = %d, want 1", st.WriteBacks)
	}
	if st.BusWords != 16 {
		t.Errorf("bus words = %d, want 16", st.BusWords)
	}
}

func TestCopybackFlushWritesDirtyLines(t *testing.T) {
	s := run(t, Config{PEs: 1, SizeWords: 64, LineWords: 4, Protocol: Copyback, WriteAllocate: true},
		[]trace.Ref{write(0, 0), write(0, 8)})
	before := s.Stats().BusWords
	s.Flush()
	if got := s.Stats().BusWords - before; got != 8 {
		t.Errorf("flush moved %d words, want 8 (two dirty lines)", got)
	}
	s.Flush()
	if got := s.Stats().BusWords - before; got != 8 {
		t.Errorf("second flush moved more words (total %d)", got)
	}
}

func TestWriteInBroadcastPrivateWritesSilent(t *testing.T) {
	// Read-miss fill (Exclusive) then many writes: only the fill on bus.
	refs := []trace.Ref{read(0, 0)}
	for i := 0; i < 20; i++ {
		refs = append(refs, write(0, 0))
	}
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: WriteInBroadcast, WriteAllocate: true}, refs)
	if s.Stats().BusWords != 4 {
		t.Errorf("bus words = %d, want 4", s.Stats().BusWords)
	}
}

func TestWriteInBroadcastSharedWriteInvalidates(t *testing.T) {
	refs := []trace.Ref{
		read(0, 0),  // PE0 fills Exclusive (4 words)
		read(1, 0),  // PE1 fills; both Shared (4 words)
		write(0, 0), // PE0 invalidates PE1 (1 word), goes Modified
		write(0, 0), // silent
		read(1, 0),  // PE1 misses; PE0 supplies + writes back (4+4)
	}
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: WriteInBroadcast, WriteAllocate: true}, refs)
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	want := int64(4 + 4 + 1 + 0 + 8)
	if st.BusWords != want {
		t.Errorf("bus words = %d, want %d", st.BusWords, want)
	}
}

func TestWriteThroughBroadcastUpdatesInsteadOfInvalidating(t *testing.T) {
	refs := []trace.Ref{
		read(0, 0),  // PE0 fill (4)
		read(1, 0),  // PE1 fill, both shared (4)
		write(0, 0), // update broadcast (1); PE1 keeps its copy
		read(1, 0),  // HIT for PE1
	}
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: WriteThroughBroadcast, WriteAllocate: true}, refs)
	st := s.Stats()
	if st.Updates != 1 {
		t.Errorf("updates = %d, want 1", st.Updates)
	}
	if st.ReadMisses != 2 {
		t.Errorf("read misses = %d, want 2 (PE1's second read hits)", st.ReadMisses)
	}
	if st.BusWords != 9 {
		t.Errorf("bus words = %d, want 9", st.BusWords)
	}
}

func TestWriteThroughBroadcastPromotesWhenLastCopy(t *testing.T) {
	// PE0 and PE1 share; PE1 evicts its copy by touching other lines;
	// then PE0's write finds no remote copy and promotes to private, so
	// a second write is silent.
	refs := []trace.Ref{
		read(0, 0),
		read(1, 0),
		read(1, 8), read(1, 16), // cache is 2 lines: line 0 evicted from PE1
		write(0, 0), // broadcast finds no copies -> promote, 1 word
		write(0, 0), // silent (Modified)
	}
	s := run(t, Config{PEs: 2, SizeWords: 8, LineWords: 4, Protocol: WriteThroughBroadcast, WriteAllocate: true}, refs)
	st := s.Stats()
	if st.BusWords != 4+4+4+4+1 {
		t.Errorf("bus words = %d, want 17", st.BusWords)
	}
}

func TestHybridLocalWritesCopyBack(t *testing.T) {
	// Local-tagged writes (trail) behave like copyback.
	refs := []trace.Ref{
		ref(0, trace.OpWrite, 0, trace.ObjTrail),
		ref(0, trace.OpWrite, 1, trace.ObjTrail),
		ref(0, trace.OpWrite, 2, trace.ObjTrail),
	}
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: Hybrid, WriteAllocate: true}, refs)
	if s.Stats().BusWords != 4 {
		t.Errorf("bus words = %d, want 4 (one fill)", s.Stats().BusWords)
	}
}

func TestHybridGlobalWritesWriteThrough(t *testing.T) {
	// Global-tagged writes (heap) always go to the bus.
	refs := []trace.Ref{
		ref(0, trace.OpWrite, 0, trace.ObjHeap),
		ref(0, trace.OpWrite, 0, trace.ObjHeap),
		ref(0, trace.OpWrite, 0, trace.ObjHeap),
	}
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: Hybrid, WriteAllocate: false}, refs)
	st := s.Stats()
	if st.WriteThroughs != 3 || st.BusWords != 3 {
		t.Errorf("write-throughs = %d bus = %d, want 3/3", st.WriteThroughs, st.BusWords)
	}
}

func TestHybridGlobalWriteInvalidatesRemote(t *testing.T) {
	refs := []trace.Ref{
		ref(1, trace.OpRead, 0, trace.ObjHeap),  // PE1 caches
		ref(0, trace.OpWrite, 0, trace.ObjHeap), // PE0 global write
		ref(1, trace.OpRead, 0, trace.ObjHeap),  // PE1 must miss
	}
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: Hybrid, WriteAllocate: false}, refs)
	st := s.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.ReadMisses != 2 {
		t.Errorf("read misses = %d, want 2", st.ReadMisses)
	}
}

func TestHybridGlobalWriteDoesNotDirtyLine(t *testing.T) {
	// A line filled by a global write-allocate stays clean: evicting it
	// must not cause a write-back.
	refs := []trace.Ref{
		ref(0, trace.OpWrite, 0, trace.ObjHeap), // fill + through
		ref(0, trace.OpRead, 8, trace.ObjHeap),  // fill line 1
		ref(0, trace.OpRead, 16, trace.ObjHeap), // fill line 2, evict line 0
	}
	s := run(t, Config{PEs: 1, SizeWords: 8, LineWords: 4, Protocol: Hybrid, WriteAllocate: true}, refs)
	if s.Stats().WriteBacks != 0 {
		t.Errorf("write-backs = %d, want 0", s.Stats().WriteBacks)
	}
}

func TestNoWriteAllocateBypassesCache(t *testing.T) {
	for _, p := range []Protocol{WriteThrough, WriteInBroadcast, WriteThroughBroadcast, Hybrid} {
		s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: p, WriteAllocate: false},
			[]trace.Ref{write(0, 0), read(0, 0)})
		if s.Stats().ReadMisses != 1 {
			t.Errorf("%v: read after NWA write should miss, misses = %d", p, s.Stats().ReadMisses)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 2-line cache; access lines 0,1 then re-touch 0, then 2: victim is 1.
	refs := []trace.Ref{read(0, 0), read(0, 4), read(0, 0), read(0, 8), read(0, 0)}
	s := run(t, Config{PEs: 1, SizeWords: 8, LineWords: 4, Protocol: WriteThrough}, refs)
	// final read(0,0) should HIT if line 0 survived
	if s.Stats().ReadMisses != 3 {
		t.Errorf("read misses = %d, want 3 (0,4,8 miss; final 0 hits)", s.Stats().ReadMisses)
	}
}

// storeWays are the geometries the store property tests cover: fully
// associative (0), direct-mapped and two small set sizes.
var storeWays = []int{0, 1, 2, 4}

// setCounts walks c's lists and returns the resident lines per set,
// failing when an entry sits in a set its line does not map to.
func setCounts(t *testing.T, c *assocCache) []int {
	t.Helper()
	counts := make([]int, len(c.cnt))
	for s := range c.cnt {
		for e := c.slab[s].next; e != int32(s); e = c.slab[e].next {
			if got := c.slab[e].line & c.setMask; got != int32(s) {
				t.Fatalf("line %d of set %d is on set %d's list", c.slab[e].line, got, s)
			}
			counts[s]++
		}
	}
	return counts
}

func TestSingleCacheNeverExceedsCapacity(t *testing.T) {
	for _, ways := range storeWays {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := newAssocCache(16, ways)
			for i := 0; i < 1000; i++ {
				line := int32(rng.Intn(64))
				switch rng.Intn(3) {
				case 0:
					if c.lookup(line) == 0 {
						c.insert(line, stateShared)
					}
				case 1:
					c.access(line)
				case 2:
					c.invalidate(line)
				}
				if c.len() > 16 {
					return false
				}
				for s, n := range setCounts(t, c) {
					if n > int(c.ways) || int32(n) != c.cnt[s] {
						t.Logf("ways %d: set %d holds %d lines, counted %d", ways, s, n, c.cnt[s])
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("ways %d: %v", ways, err)
		}
	}
}

func TestLRUMatchesReferenceModel(t *testing.T) {
	// Property: the intrusive-list cache behaves exactly like a naive
	// slice-based LRU model of each set, and a miss into a full set
	// evicts that set's own LRU line.
	const lines = 8
	for _, ways := range storeWays {
		sets := 1
		if ways > 0 {
			sets = lines / ways
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := newAssocCache(lines, ways)
			model := make([][]int32, sets) // per set, most recent first
			modelHas := func(line int32) (int, int) {
				s := int(line) & (sets - 1)
				for i, l := range model[s] {
					if l == line {
						return s, i
					}
				}
				return s, -1
			}
			for i := 0; i < 500; i++ {
				line := int32(rng.Intn(24))
				s, idx := modelHas(line)
				if rng.Intn(4) == 0 { // invalidate
					if c.invalidate(line) != (idx >= 0) {
						return false
					}
					if idx >= 0 {
						model[s] = append(model[s][:idx], model[s][idx+1:]...)
					}
					continue
				}
				// access (insert or touch)
				hit := c.access(line) != 0
				if hit != (idx >= 0) {
					return false
				}
				if hit {
					model[s] = append(model[s][:idx], model[s][idx+1:]...)
				} else {
					_, victim, _, evicted := c.insert(line, stateShared)
					if full := len(model[s]) == lines/sets; evicted != full {
						return false
					}
					if evicted {
						if lru := model[s][len(model[s])-1]; victim != lru || c.lookup(lru) != 0 {
							t.Logf("ways %d: evicted line %d, want set %d's LRU line %d", ways, victim, s, lru)
							return false
						}
						model[s] = model[s][:len(model[s])-1]
					}
				}
				model[s] = append([]int32{line}, model[s]...)
				// Every set's list must be its model, in recency order.
				var want, got []int32
				for _, m := range model {
					want = append(want, m...)
				}
				c.forEach(func(h int32) { got = append(got, c.slab[h].line) })
				if len(got) != len(want) || c.len() != len(want) {
					return false
				}
				for j := range got {
					if got[j] != want[j] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("ways %d: %v", ways, err)
		}
	}
}

func TestTrafficRatioNeverNegativeProperty(t *testing.T) {
	// Property: on random traces, every protocol yields sane stats:
	// refs preserved, traffic ratio >= 0, miss counts <= refs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]trace.Ref, 2000)
		for i := range refs {
			obj := trace.ObjHeap
			if rng.Intn(2) == 0 {
				obj = trace.ObjTrail
			}
			refs[i] = trace.Ref{
				Addr: uint32(rng.Intn(512)),
				PE:   uint8(rng.Intn(4)),
				Op:   trace.Op(rng.Intn(2)),
				Obj:  obj,
			}
		}
		for _, p := range []Protocol{WriteThrough, WriteInBroadcast, WriteThroughBroadcast, Hybrid} {
			for _, wa := range []bool{false, true} {
				s := New(Config{PEs: 4, SizeWords: 64, LineWords: 4, Protocol: p, WriteAllocate: wa})
				for _, r := range refs {
					s.Add(r)
				}
				st := s.Stats()
				if st.Refs != int64(len(refs)) {
					return false
				}
				if st.TrafficRatio() < 0 || st.Misses() > st.Refs {
					return false
				}
				if st.Reads+st.Writes != st.Refs {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestWriteThroughTrafficDominatesBroadcast(t *testing.T) {
	// On a write-heavy single-PE trace with locality, conventional
	// write-through must generate at least as much traffic as the
	// write-in broadcast cache — the paper's Figure 4 ordering.
	rng := rand.New(rand.NewSource(7))
	refs := make([]trace.Ref, 20000)
	for i := range refs {
		refs[i] = trace.Ref{
			Addr: uint32(rng.Intn(256)),
			PE:   0,
			Op:   trace.Op(rng.Intn(2)),
			Obj:  trace.ObjHeap,
		}
	}
	var ratios [2]float64
	for i, p := range []Protocol{WriteThrough, WriteInBroadcast} {
		s := New(Config{PEs: 1, SizeWords: 512, LineWords: 4, Protocol: p, WriteAllocate: true})
		for _, r := range refs {
			s.Add(r)
		}
		ratios[i] = s.Stats().TrafficRatio()
	}
	if ratios[0] < ratios[1] {
		t.Errorf("write-through ratio %.3f < broadcast ratio %.3f", ratios[0], ratios[1])
	}
}

func TestPerPEAccounting(t *testing.T) {
	s := run(t, Config{PEs: 2, SizeWords: 64, LineWords: 4, Protocol: WriteThrough},
		[]trace.Ref{read(0, 0), write(1, 64)})
	if s.PerPERefs()[0] != 1 || s.PerPERefs()[1] != 1 {
		t.Errorf("per-PE refs = %v", s.PerPERefs())
	}
	if s.PerPEBusWords()[0] != 4 || s.PerPEBusWords()[1] != 1 {
		t.Errorf("per-PE bus = %v", s.PerPEBusWords())
	}
}

func TestProtocolStrings(t *testing.T) {
	for _, p := range Protocols() {
		if p.String() == "" {
			t.Errorf("protocol %d has empty name", p)
		}
	}
}

// --- set-associative extension ---

func TestSetAssocValidation(t *testing.T) {
	good := Config{PEs: 1, SizeWords: 256, LineWords: 4, Protocol: WriteThrough, Assoc: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("4-way 64-line config rejected: %v", err)
	}
	bad := Config{PEs: 1, SizeWords: 256, LineWords: 4, Protocol: WriteThrough, Assoc: 7}
	if err := bad.Validate(); err == nil {
		t.Error("7-way of 64 lines accepted")
	}
}

func TestSetAssocBehavesLikeFullWhenOneSet(t *testing.T) {
	// ways == lines: one set covering the whole cache = fully assoc.
	rng := rand.New(rand.NewSource(3))
	refs := make([]trace.Ref, 5000)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint32(rng.Intn(600)), PE: 0, Op: trace.Op(rng.Intn(2)), Obj: trace.ObjHeap}
	}
	full := New(Config{PEs: 1, SizeWords: 128, LineWords: 4, Protocol: Copyback, WriteAllocate: true})
	ways := New(Config{PEs: 1, SizeWords: 128, LineWords: 4, Protocol: Copyback, WriteAllocate: true, Assoc: 32})
	for _, r := range refs {
		full.Add(r)
		ways.Add(r)
	}
	if full.Stats() != ways.Stats() {
		t.Errorf("single-set set-assoc differs from fully associative:\nfull %+v\nways %+v",
			full.Stats(), ways.Stats())
	}
}

func TestAssociativityMonotone(t *testing.T) {
	// More ways can only reduce (or keep) conflict misses on this
	// deliberately conflicting trace.
	var refs []trace.Ref
	for round := 0; round < 200; round++ {
		for k := 0; k < 6; k++ {
			// Addresses striding by the cache size: maximal conflict.
			refs = append(refs, trace.Ref{Addr: uint32(k * 256), PE: 0, Op: trace.OpRead, Obj: trace.ObjHeap})
		}
	}
	var prev int64 = 1 << 60
	for _, ways := range []int{1, 2, 4, 8} {
		s := New(Config{PEs: 1, SizeWords: 256, LineWords: 4, Protocol: Copyback, WriteAllocate: true, Assoc: ways})
		for _, r := range refs {
			s.Add(r)
		}
		m := s.Stats().Misses()
		if m > prev {
			t.Errorf("%d-way misses %d exceed %d-way's %d", ways, m, ways/2, prev)
		}
		prev = m
	}
}

func TestSetAssocFlush(t *testing.T) {
	s := New(Config{PEs: 1, SizeWords: 64, LineWords: 4, Protocol: Copyback, WriteAllocate: true, Assoc: 4})
	s.Add(write(0, 0))
	s.Add(write(0, 16))
	before := s.Stats().BusWords
	s.Flush()
	if got := s.Stats().BusWords - before; got != 8 {
		t.Errorf("flush moved %d words, want 8", got)
	}
}
