package bench

import (
	"context"
	"fmt"
	"testing"
)

func TestPaperBenchmarksSequential(t *testing.T) {
	for _, b := range Paper() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: 1, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: instrs=%d refs=%d cycles=%d", b.Name,
				res.Stats.TotalInstructions(), res.Refs.Total(), res.Stats.Cycles)
		})
	}
}

func TestPaperBenchmarksParallel8(t *testing.T) {
	for _, b := range Paper() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: 8})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.GoalsParallel == 0 {
				t.Error("no parallel goals")
			}
			t.Logf("%s: instrs=%d refs=%d cycles=%d goals//=%d stolen=%d",
				b.Name, res.Stats.TotalInstructions(), res.Refs.Total(),
				res.Stats.Cycles, res.Stats.GoalsParallel, res.Stats.GoalsStolen)
		})
	}
}

func TestLargeBenchmarks(t *testing.T) {
	for _, b := range Large() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: 1, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: instrs=%d refs=%d", b.Name,
				res.Stats.TotalInstructions(), res.Refs.Total())
		})
	}
}

func TestParallelResultsMatchSequentialResults(t *testing.T) {
	for _, b := range Paper() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			seq, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: 1, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: 4})
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range seq.Bindings {
				if got := par.Bindings[name]; got != want {
					t.Errorf("%s: %s differs between parallel and sequential", b.Name, name)
				}
			}
		})
	}
}

// TestByName checks every fixed name resolves to the suite's own entry
// (Check is a func and not comparable: nil-ness stands in for it), and
// that resolving one builds that one only — it used to build all eight
// on every call (3.9 k allocations to validate a request's name, when
// constructors still formatted their lists element by element).
func TestByName(t *testing.T) {
	fixed := append(Paper(), Large()...)
	if len(fixed) != 8 {
		t.Fatalf("%d fixed benchmarks, want 8", len(fixed))
	}
	for _, want := range fixed {
		got, ok := ByName(want.Name)
		if !ok {
			t.Errorf("ByName(%q) missing", want.Name)
			continue
		}
		if got.Name != want.Name || got.Source != want.Source || got.Query != want.Query ||
			got.Parallel != want.Parallel || (got.Check == nil) != (want.Check == nil) {
			t.Errorf("ByName(%q) differs from the suite's entry", want.Name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName accepted unknown name")
	}
	one := testing.AllocsPerRun(20, func() { ByName("deriv") })
	all := testing.AllocsPerRun(20, func() { Paper(); Large() })
	if one > all/2 {
		t.Errorf("ByName(\"deriv\") allocates %.0f times, building every fixed benchmark %.0f: want at most half (deriv is a quarter of them)", one, all)
	}
}

// TestConstructorsDeferTheExpectedAnswer: a constructor renders its
// query into one buffer and leaves the expected answer to the Check
// (Qsort used to format 1400 list elements one Sprintf at a time, 2757
// allocations per name lookup) — and the Check still checks.
func TestConstructorsDeferTheExpectedAnswer(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { Qsort() }); n > 20 {
		t.Errorf("Qsort() allocates %.0f times, want at most 20", n)
	}
	// The benchmarks whose Check pins an answer binding, and its name.
	answers := map[string]string{"tak": "A", "qsort": "S", "matrix": "P", "nrev": "R", "primes": "Ps", "zebra": "Owner"}
	for _, b := range append(Paper(), Large()...) {
		name, pinned := answers[b.Name]
		if !pinned {
			continue
		}
		res, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: 1, Sequential: true})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := b.Check(res); err != nil {
			t.Errorf("%s: Check rejects the right answer: %v", b.Name, err)
		}
		res.Bindings[name] += " "
		if b.Check(res) == nil {
			t.Errorf("%s: Check accepts a wrong binding of %s", b.Name, name)
		}
	}
}

func TestDerivSpeedsUpWithPEs(t *testing.T) {
	b := Deriv()
	var prev int64
	for i, pes := range []int{1, 4} {
		res, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Stats.Cycles >= prev {
			t.Errorf("deriv with %d PEs: %d cycles, not faster than %d", pes, res.Stats.Cycles, prev)
		}
		prev = res.Stats.Cycles
	}
}

func TestTakValueIsClassic(t *testing.T) {
	if takValue(18, 12, 6) != 7 {
		t.Errorf("takValue(18,12,6) = %d, want 7", takValue(18, 12, 6))
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	if Deriv().Query != Deriv().Query {
		t.Error("deriv query not deterministic")
	}
	if Qsort().Query != Qsort().Query {
		t.Error("qsort query not deterministic")
	}
	if Matrix().Query != Matrix().Query {
		t.Error("matrix query not deterministic")
	}
}

func ExampleRunner_Run() {
	res, err := new(Runner).Run(context.Background(), Tak(), RunConfig{PEs: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("A =", res.Bindings["A"])
	// Output: A = 8
}
