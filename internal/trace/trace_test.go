package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestObjTableMatchesPaperTable1(t *testing.T) {
	// Table 1 of the paper: area, WAM?, lock, locality per object type.
	cases := []struct {
		obj    ObjType
		area   Area
		wam    bool
		lock   bool
		global bool
	}{
		{ObjEnvControl, AreaLocal, true, false, false},
		{ObjEnvPVar, AreaLocal, true, false, true},
		{ObjChoicePoint, AreaControl, true, false, false},
		{ObjHeap, AreaHeap, true, false, true},
		{ObjTrail, AreaTrail, true, false, false},
		{ObjPDL, AreaPDL, true, false, false},
		{ObjParcallLocal, AreaLocal, false, false, false},
		{ObjParcallGlobal, AreaLocal, false, false, true},
		{ObjParcallCount, AreaLocal, false, true, true},
		{ObjMarker, AreaControl, false, false, false},
		{ObjGoalFrame, AreaGoal, false, true, true},
		{ObjMessage, AreaMsg, false, true, true},
	}
	for _, c := range cases {
		if got := c.obj.Area(); got != c.area {
			t.Errorf("%v: area = %v, want %v", c.obj, got, c.area)
		}
		if got := c.obj.WAM(); got != c.wam {
			t.Errorf("%v: WAM = %v, want %v", c.obj, got, c.wam)
		}
		if got := c.obj.Locked(); got != c.lock {
			t.Errorf("%v: Locked = %v, want %v", c.obj, got, c.lock)
		}
		if got := c.obj.Global(); got != c.global {
			t.Errorf("%v: Global = %v, want %v", c.obj, got, c.global)
		}
	}
	if len(cases) != len(ObjTypes()) {
		t.Errorf("covered %d object types, table has %d", len(cases), len(ObjTypes()))
	}
}

func TestLockedImpliesGlobal(t *testing.T) {
	// Locked objects are by definition accessed by several workers.
	for _, o := range ObjTypes() {
		if o.Locked() && !o.Global() {
			t.Errorf("%v is locked but not global", o)
		}
	}
}

func TestWAMObjectsHaveNoLocks(t *testing.T) {
	// The sequential WAM needs no locks; only RAP-WAM extensions lock.
	for _, o := range ObjTypes() {
		if o.WAM() && o.Locked() {
			t.Errorf("%v is a WAM object but locked", o)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(Ref{Addr: 1, PE: 0, Op: OpRead, Obj: ObjHeap})
	c.Add(Ref{Addr: 2, PE: 1, Op: OpWrite, Obj: ObjHeap})
	c.Add(Ref{Addr: 3, PE: 1, Op: OpWrite, Obj: ObjTrail})
	if got := c.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
	if got := c.Reads(); got != 1 {
		t.Errorf("Reads = %d, want 1", got)
	}
	if got := c.Writes(); got != 2 {
		t.Errorf("Writes = %d, want 2", got)
	}
	if got := c.ByPE[1]; got != 2 {
		t.Errorf("ByPE[1] = %d, want 2", got)
	}
	byArea := c.ByArea()
	if byArea[AreaHeap] != 2 || byArea[AreaTrail] != 1 {
		t.Errorf("ByArea = %v", byArea)
	}
	want := 2.0 / 3.0
	if got := c.GlobalShare(); got != want {
		t.Errorf("GlobalShare = %v, want %v", got, want)
	}
}

// randomRefs draws n references over every object type, both ops and
// PEs up to 255, so some fall outside ByPE (PE >= MaxPEs).
func randomRefs(rng *rand.Rand, n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{
			Addr: rng.Uint32(),
			PE:   uint8(rng.Intn(256)),
			Op:   Op(rng.Intn(2)),
			Obj:  ObjType(rng.Intn(NumObjTypes)),
		}
	}
	return refs
}

// TestCounterAddBatchMatchesAdd holds the two-bank AddBatch to
// per-reference Add on batches of odd and even length on both sides of
// counterBankMin, into a counter that already holds counts.
func TestCounterAddBatchMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, counterBankMin - 1, counterBankMin, counterBankMin + 1, 1000, 4097} {
		prior := randomRefs(rng, 50)
		refs := randomRefs(rng, n)
		var batched, single Counter
		for _, r := range prior {
			batched.Add(r)
			single.Add(r)
		}
		batched.AddBatch(refs)
		for _, r := range refs {
			single.Add(r)
		}
		if batched != single {
			t.Errorf("%d refs: AddBatch tallied %+v, Add %+v", n, batched, single)
		}
	}
}

// BenchmarkCounterAddBatch tallies a 64K-reference batch shaped like the
// engine's stream: runs of one PE and one object type.
func BenchmarkCounterAddBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	refs := make([]Ref, 1<<16)
	for i := range refs {
		refs[i] = Ref{Addr: uint32(i), PE: uint8(i >> 10 & 7), Op: Op(rng.Intn(2)), Obj: ObjType(1 + i>>3%4)}
	}
	var c Counter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddBatch(refs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(refs)), "ns/ref")
}

func TestBufferReplayPreservesOrder(t *testing.T) {
	b := NewBuffer(4)
	in := []Ref{
		{Addr: 10, PE: 0, Op: OpRead, Obj: ObjHeap},
		{Addr: 11, PE: 1, Op: OpWrite, Obj: ObjTrail},
		{Addr: 12, PE: 2, Op: OpRead, Obj: ObjGoalFrame},
	}
	for _, r := range in {
		b.Add(r)
	}
	var out []Ref
	b.Replay(sinkFunc(func(r Ref) { out = append(out, r) }))
	if len(out) != len(in) {
		t.Fatalf("replayed %d refs, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("ref %d: got %v, want %v", i, out[i], in[i])
		}
	}
}

type sinkFunc func(Ref)

func (f sinkFunc) Add(r Ref) { f(r) }

func TestTeeFansOut(t *testing.T) {
	a, b := NewBuffer(1), NewBuffer(1)
	tee := Tee{a, b}
	tee.Add(Ref{Addr: 5, Obj: ObjHeap})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("tee delivered %d/%d refs, want 1/1", a.Len(), b.Len())
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuffer(1000)
	for i := 0; i < 1000; i++ {
		b.Add(Ref{
			Addr: rng.Uint32(),
			PE:   uint8(rng.Intn(8)),
			Op:   Op(rng.Intn(2)),
			Obj:  ObjType(1 + rng.Intn(NumObjTypes-1)),
		})
	}
	var buf bytes.Buffer
	if err := b.WriteCompact(&buf, Meta{PEs: 8}); err != nil {
		t.Fatalf("WriteCompact: %v", err)
	}
	back, _, err := ReadCompact(&buf)
	if err != nil {
		t.Fatalf("ReadCompact: %v", err)
	}
	got, want := slices.Concat(back.Segments()...), slices.Concat(b.Segments()...)
	if len(got) != len(want) {
		t.Fatalf("round trip: %d refs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ref %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFileRejectsBadMagic(t *testing.T) {
	if _, _, err := ReadCompact(bytes.NewReader([]byte("XXXX\x00\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Error("ReadCompact accepted bad magic")
	}
	if _, err := NewChunkReader(bytes.NewReader([]byte("XXXX\x02\x00\x00\x00"))); err == nil || !strings.Contains(err.Error(), "not a compact trace") {
		t.Errorf("NewChunkReader on bad magic: %v, want a not-a-compact-trace error", err)
	}
}

func TestRefRoundTripProperty(t *testing.T) {
	// Property: any single Ref survives a file round trip.
	f := func(addr uint32, pe uint8, op bool, obj uint8) bool {
		r := Ref{Addr: addr, PE: pe, Op: OpRead, Obj: ObjType(obj % uint8(NumObjTypes))}
		if op {
			r.Op = OpWrite
		}
		var b Buffer
		b.Add(r)
		var buf bytes.Buffer
		if err := b.WriteCompact(&buf, Meta{PEs: int(pe) + 1}); err != nil {
			return false
		}
		back, _, err := ReadCompact(&buf)
		if err != nil {
			return false
		}
		got := slices.Concat(back.Segments()...)
		return len(got) == 1 && got[0] == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAreaStrings(t *testing.T) {
	for a := AreaNone; a <= AreaMsg; a++ {
		if a.String() == "" {
			t.Errorf("area %d has empty name", a)
		}
	}
	if AreaHeap.String() != "heap" {
		t.Errorf("AreaHeap = %q", AreaHeap.String())
	}
}

func TestGlobalMaskMatchesTable(t *testing.T) {
	for obj, info := range objTable {
		if got := ObjType(obj).Global(); got != info.global {
			t.Errorf("%v: Global() = %v, objTable says %v", ObjType(obj), got, info.global)
		}
	}
}
