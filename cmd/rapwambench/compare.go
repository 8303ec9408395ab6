package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict judges one end-to-end metric of one workload between a
// parent report a and a change b, by the metric's bound and the runs'
// own spread:
//
//	worse       b's value is worse than a's by more than the bound
//	unresolved  not worse, but the spread within either run exceeds the
//	            bound, and b's samples do not all beat a's
//	better      b's value is better by more than a's interquartile spread
//	same        otherwise
func verdict(better string, bound float64, a, b measured) string {
	if a.Value == 0 {
		return "unresolved"
	}
	sign := 1.0 // a rise is worse
	if better == "higher" {
		sign = -1
	}
	worse := sign * (b.Value - a.Value) / math.Abs(a.Value)
	spreadA := (a.Q3 - a.Q1) / math.Abs(a.Value)
	spreadB := (b.Q3 - b.Q1) / math.Abs(a.Value)
	switch {
	case worse > bound:
		return "worse"
	case max(spreadA, spreadB) > bound && !allBeat(sign, a.Samples, b.Samples):
		return "unresolved"
	case -worse > spreadA && worse < 0:
		return "better"
	}
	return "same"
}

// allBeat reports whether every sample of b is better than every
// sample of a (sign +1: lower is better).
func allBeat(sign float64, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints one row per (metric, workload) and fails on a
// worse end-to-end metric or any changed exact count.
func compareReports(decl *declaration, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s  commit %s, %d cores, seed %d\nb: %s  commit %s, %d cores, seed %d\n\n",
		pathA, a.Host.Commit, a.Host.NumCPU, a.Seed, pathB, b.Host.Commit, b.Host.NumCPU, b.Seed)
	fmt.Printf("%-14s %-38s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	bad := 0
	row := func(wl string, m metricDef, va, vb measured, v string) {
		ratio := math.NaN()
		if va.Value != 0 {
			ratio = vb.Value / va.Value
		}
		fmt.Printf("%-14s %-38s %14.4f %14.4f %9.4f  %s", wl, m.name, va.Value, vb.Value, ratio, v)
		if va.N > 1 || vb.N > 1 {
			fmt.Printf("  [a q1 %.4f q3 %.4f n %d; b q1 %.4f q3 %.4f n %d]", va.Q1, va.Q3, va.N, vb.Q1, vb.Q3, vb.N)
		}
		fmt.Println()
	}
	for _, wl := range workloadOrder {
		ra, rb := a.Workloads[wl], b.Workloads[wl]
		if ra == nil || rb == nil {
			continue
		}
		for _, r := range []*result{ra, rb} {
			if r.Failed > 0 {
				fmt.Printf("%-14s %d of %d operations FAILED\n", wl, r.Failed, r.Attempted)
				bad++
			}
			if r.Unstable {
				fmt.Printf("%-14s UNSTABLE host (calibration %.1f -> %.1f ms)\n", wl, r.CalibMS[0], r.CalibMS[1])
			}
		}
		for _, m := range endToEnd {
			bound, _ := decl.bound(m.name)
			v := verdict(m.better, bound, ra.Metrics[m.name], rb.Metrics[m.name])
			if v == "worse" {
				bad++
			}
			row(wl, m, ra.Metrics[m.name], rb.Metrics[m.name], v)
		}
		ta, tb := a.Traced[wl], b.Traced[wl]
		if ta == nil || tb == nil {
			continue
		}
		for _, m := range perLayer {
			va, vb := ta.Metrics[m.name], tb.Metrics[m.name]
			if va.Value == 0 && vb.Value == 0 {
				continue
			}
			v := "-"
			if m.exact && a.Seed == b.Seed {
				v = "identical"
				if va.Value != vb.Value {
					v = "CHANGED"
					bad++
				}
			}
			row(wl, m, va, vb, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse, changed or failed", bad)
	}
	return nil
}
