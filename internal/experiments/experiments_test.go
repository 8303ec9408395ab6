package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
)

func TestTable1RendersAllRows(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"envt/control", "heap", "parcall/counts", "goalframe", "message", "Global", "Local"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2ShapeMatchesPaper(t *testing.T) {
	f, err := RunFigure2(context.Background(), shared, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 4 {
		t.Fatalf("points = %d", len(f.Points))
	}
	// Work at 1 PE must be close to WAM work (paper: within a few %).
	if f.Points[0].WorkPct > 125 {
		t.Errorf("1-PE work = %.1f%% of WAM; paper shows near 100%%", f.Points[0].WorkPct)
	}
	// Work grows only modestly with PEs (paper: ~15% up to 40 PEs).
	last := f.Points[len(f.Points)-1]
	if last.WorkPct > 140 {
		t.Errorf("8-PE work = %.1f%% of WAM; overhead too high", last.WorkPct)
	}
	// Speedup must increase with PEs.
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].Speedup <= f.Points[i-1].Speedup*0.95 {
			t.Errorf("speedup not increasing: %v then %v",
				f.Points[i-1].Speedup, f.Points[i].Speedup)
		}
	}
	if f.Points[3].Speedup < 2 {
		t.Errorf("8-PE speedup = %.2f, want >= 2", f.Points[3].Speedup)
	}
	if !strings.Contains(f.String(), "Figure 2") {
		t.Error("String() lacks title")
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	t2, err := RunTable2(context.Background(), shared, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	for _, r := range t2.Rows {
		// RAP-WAM does at least as many references as the WAM, but not
		// wildly more (paper: within ~6%; allow 25% headroom).
		if r.RefsRAPWAM < r.RefsWAM {
			t.Errorf("%s: RAP-WAM refs %d < WAM refs %d", r.Name, r.RefsRAPWAM, r.RefsWAM)
		}
		if float64(r.RefsRAPWAM) > 1.25*float64(r.RefsWAM) {
			t.Errorf("%s: RAP-WAM/WAM = %.2f, paper shows low overhead",
				r.Name, float64(r.RefsRAPWAM)/float64(r.RefsWAM))
		}
		if r.GoalsParallel == 0 {
			t.Errorf("%s: no parallel goals", r.Name)
		}
	}
	// Instruction counts in the paper's order-of-magnitude range.
	for i, want := range []int64{33520, 75254, 237884, 95349} {
		got := t2.Rows[i].Instructions
		if got < want/3 || got > want*3 {
			t.Errorf("%s: %d instructions, paper has %d (want same magnitude)",
				t2.Rows[i].Name, got, want)
		}
	}
}

func TestTable3FitIsGood(t *testing.T) {
	t3, err := RunTable3(context.Background(), shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Etr) != 2 || len(t3.Z) != 2 {
		t.Fatalf("unexpected shape: %+v", t3)
	}
	// Larger caches capture more traffic.
	if t3.Etr[1] >= t3.Etr[0] {
		t.Errorf("Etr(1024) = %.4f >= Etr(512) = %.4f", t3.Etr[1], t3.Etr[0])
	}
	// The paper's z-scores are within ~±2; ours should be same order.
	for i := range t3.Z {
		for j, z := range t3.Z[i] {
			if z > 4 || z < -4 {
				t.Errorf("z[%d][%s] = %.2f, fit should be within a few sigma",
					t3.CacheSizes[i], t3.Small[j], z)
			}
		}
	}
}

func TestFigure4OrderingMatchesPaper(t *testing.T) {
	sizes := []int{64, 256, 1024}
	f, err := RunFigure4(context.Background(), shared, []int{1, 4}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{1, 4} {
		wt := f.Ratio(cache.WriteThrough, pes)
		hy := f.Ratio(cache.Hybrid, pes)
		bc := f.Ratio(cache.WriteInBroadcast, pes)
		if wt == nil || hy == nil || bc == nil {
			t.Fatalf("missing series at %d PEs", pes)
		}
		for i := range sizes {
			// Paper Figure 4 ordering: broadcast <= hybrid <= write-through
			// (hybrid "between broadcast and conventional write-through").
			if bc[i] > hy[i]*1.02 {
				t.Errorf("%d PEs %dw: broadcast %.3f > hybrid %.3f",
					pes, sizes[i], bc[i], hy[i])
			}
			if hy[i] > wt[i]*1.02 {
				t.Errorf("%d PEs %dw: hybrid %.3f > write-through %.3f",
					pes, sizes[i], hy[i], wt[i])
			}
		}
		// Traffic decreases with cache size for the copyback-style caches.
		for i := 1; i < len(sizes); i++ {
			if bc[i] > bc[i-1]*1.05 {
				t.Errorf("%d PEs: broadcast traffic rises with size: %v", pes, bc)
			}
		}
	}
}

func TestFigure4BroadcastCapturesMostTraffic(t *testing.T) {
	// Paper §3.3: 8 PEs with write-in broadcast caches capture over 70%
	// of the traffic (ratio < 0.3). The paper reaches this from 128
	// words; with our (larger, synthesized) benchmark inputs the
	// threshold lands one size up, at 256 words — see EXPERIMENTS.md.
	f, err := RunFigure4(context.Background(), shared, []int{8}, []int{256, 512})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range f.Ratio(cache.WriteInBroadcast, 8) {
		if r >= 0.3 {
			t.Errorf("broadcast ratio at %dw = %.3f, paper reports < 0.3", f.CacheSizes[i], r)
		}
	}
}

func TestMLIPSNumbersInPaperRange(t *testing.T) {
	m, err := RunMLIPS(context.Background(), shared, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.InstrPerLI < 5 || m.InstrPerLI > 40 {
		t.Errorf("instr/LI = %.1f, paper assumes ~15", m.InstrPerLI)
	}
	if m.RefsPerInstr < 0.5 || m.RefsPerInstr > 6 {
		t.Errorf("refs/instr = %.2f, paper assumes ~3", m.RefsPerInstr)
	}
	if m.CaptureRatio < 0.6 {
		t.Errorf("capture ratio = %.2f, paper reports ~0.7", m.CaptureRatio)
	}
	if m.BusBandwidthMBs >= m.RawBandwidthMBs {
		t.Error("caches did not reduce required bandwidth")
	}
	if !strings.Contains(m.String(), "MLIPS") {
		t.Error("String() lacks label")
	}
}

func TestBusStudyEfficiencyRisesWithBandwidth(t *testing.T) {
	bs, err := RunBusStudy(context.Background(), shared, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(bs.Efficiency); i++ {
		if bs.Efficiency[i] < bs.Efficiency[i-1] {
			t.Errorf("efficiency fell with more bandwidth: %v", bs.Efficiency)
		}
	}
	last := bs.Efficiency[len(bs.Efficiency)-1]
	if last < 0.9 {
		t.Errorf("efficiency with a fast bus = %.2f, paper argues it can be high", last)
	}
}

func TestUpdateBroadcastCloseToWriteIn(t *testing.T) {
	// Paper §3.2: "The write-through broadcast cache statistics ... are
	// almost identical to those of the write-in broadcast cache, an
	// indication that communication traffic in RAP-WAM is low."
	b, _ := benchByName(t, "qsort")
	buf := cellBuffer(t, shared, b, 8, false)
	for _, size := range []int{256, 1024} {
		wi := cacheRatio(buf, cache.Config{
			PEs: 8, SizeWords: size, LineWords: 4,
			Protocol:      cache.WriteInBroadcast,
			WriteAllocate: cache.PaperWriteAllocate(cache.WriteInBroadcast, size),
		})
		up := cacheRatio(buf, cache.Config{
			PEs: 8, SizeWords: size, LineWords: 4,
			Protocol:      cache.WriteThroughBroadcast,
			WriteAllocate: cache.PaperWriteAllocate(cache.WriteThroughBroadcast, size),
		})
		diff := up - wi
		if diff < 0 {
			diff = -diff
		}
		// "Almost identical": within a few hundredths of traffic ratio.
		if diff > 0.05 {
			t.Errorf("%dw: write-in %.4f vs update %.4f differ by %.3f", size, wi, up, diff)
		}
	}
}
