package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestGranularitySweepTradeoff(t *testing.T) {
	g, err := RunGranularitySweep(context.Background(), shared, []int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) != 4 {
		t.Fatalf("points = %d", len(g.Points))
	}
	// Depth 0: no parallel goals, no overhead to speak of.
	if g.Points[0].GoalsParallel != 0 {
		t.Errorf("depth 0 spawned %d goals", g.Points[0].GoalsParallel)
	}
	// Goals and overhead grow monotonically with depth.
	for i := 1; i < len(g.Points); i++ {
		if g.Points[i].GoalsParallel < g.Points[i-1].GoalsParallel {
			t.Errorf("goals fell from depth %d to %d", g.Points[i-1].Depth, g.Points[i].Depth)
		}
	}
	// Some depth must beat depth 0's speedup.
	best := 0.0
	for _, p := range g.Points {
		if p.Speedup8 > best {
			best = p.Speedup8
		}
	}
	if best < 1.5 {
		t.Errorf("no depth produced speedup > 1.5 (best %.2f)", best)
	}
	if !strings.Contains(g.String(), "granularity") {
		t.Error("String() lacks title")
	}
}

func TestLineSizeSweep(t *testing.T) {
	l, err := RunLineSizeSweep(context.Background(), shared, "qsort", 4, 1024, []int{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Miss ratio must fall as lines grow (spatial locality).
	for i := 1; i < len(l.LineWords); i++ {
		if l.MissRatio[i] > l.MissRatio[i-1]*1.05 {
			t.Errorf("miss ratio rose from line %d to %d: %v",
				l.LineWords[i-1], l.LineWords[i], l.MissRatio)
		}
	}
	// Traffic has a sweet spot: very large lines waste bandwidth. The
	// 4-word choice of the paper should not be the worst.
	worst := 0.0
	for _, r := range l.Ratio {
		if r > worst {
			worst = r
		}
	}
	fourIdx := -1
	for i, lw := range l.LineWords {
		if lw == 4 {
			fourIdx = i
		}
	}
	if fourIdx >= 0 && l.Ratio[fourIdx] >= worst && worst > 0 {
		t.Errorf("4-word lines are the worst configuration: %v", l.Ratio)
	}
}

func TestLockShareIsSmall(t *testing.T) {
	l, err := RunLockShare(context.Background(), shared, "qsort", 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.Locked == 0 {
		t.Error("no locked references at 8 PEs")
	}
	// Synchronization must be a small share of total traffic (the
	// paper's low-overhead claim depends on it).
	if l.Share() > 0.10 {
		t.Errorf("lock share = %.1f%%, expected small", 100*l.Share())
	}
}

func TestBusDESMatchesAnalyticTrend(t *testing.T) {
	b, err := RunBusDES(context.Background(), shared, "qsort", 4, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.DES.Efficiency <= 0 || b.DES.Efficiency > 1 {
		t.Errorf("DES efficiency = %v", b.DES.Efficiency)
	}
	// DES and analytic agree on the regime (both high or both low).
	if (b.DES.Efficiency > 0.8) != (b.Analytic.Efficiency > 0.8) {
		t.Errorf("DES %.3f vs analytic %.3f disagree on regime",
			b.DES.Efficiency, b.Analytic.Efficiency)
	}
	if !strings.Contains(b.String(), "Bus DES") {
		t.Error("String() lacks label")
	}
}

func TestAssocSweepConvergesToFull(t *testing.T) {
	a, err := RunAssocSweep(context.Background(), shared, "qsort", 4, 1024, []int{1, 2, 4, 8, 0})
	if err != nil {
		t.Fatal(err)
	}
	full := a.Ratio[len(a.Ratio)-1]
	eightWay := a.Ratio[3]
	// 8-way must be close to the fully associative model (the paper's
	// idealization is not far from implementable hardware).
	if diff := eightWay - full; diff > 0.05 || diff < -0.05 {
		t.Errorf("8-way %.4f vs full %.4f differ by %.4f", eightWay, full, diff)
	}
	// Direct-mapped should be the worst or near it.
	if a.Ratio[0] < full {
		t.Errorf("direct-mapped %.4f beats fully associative %.4f", a.Ratio[0], full)
	}
}
