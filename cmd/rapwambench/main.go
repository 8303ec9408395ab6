// Command rapwambench is this repository's benchmark: four workloads,
// five end-to-end metrics on each, and a traced mode that attributes
// the time to the layers (the repository's packages). BENCHMARK.json
// at the repository root declares it; README.md beside this file says
// what each workload and metric is for.
//
// Usage:
//
//	rapwambench                                   # all four workloads, one process each
//	rapwambench -trace 1                          # ... and a traced run of each
//	rapwambench -workload W -seed N -seconds S -trace 0|1   # one workload (the driver's form)
//	rapwambench -compare a.json b.json            # verdict per (metric, workload)
//	rapwambench -update-expected                  # re-pin expected.json (seed 1)
//	rapwambench -smoke                            # tiny sizes, one round: does it all still run?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	spans    string
	report   string
	out      string
	smoke    bool
	update   bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print the driver's JSON line")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the sized variants' N within their bands, and the warm request order")
	flag.IntVar(&o.seconds, "seconds", 0, "how long one workload measures (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "with -workload and -trace 1: write the recorded spans here as JSON")
	flag.StringVar(&o.report, "report", "", "with -workload: also write the full result (quartiles, samples) here")
	flag.StringVar(&o.out, "out", "", "full run: write the report here (default .bench_build/rapwambench/report.json)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes and a single round per workload")
	flag.BoolVar(&o.update, "update-expected", false, "rewrite expected.json from this run (seed 1 only)")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: -compare a.json b.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "rapwambench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	decl, err := readDeclaration(root)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		return compareReports(decl, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if o.update && (o.seed != 1 || o.smoke) {
		return fmt.Errorf("-update-expected pins the seed-1, full-size run only")
	}
	if o.seconds <= 0 {
		o.seconds = decl.RunSeconds
	}
	if o.workload == "" {
		return runAll(root, decl, o)
	}

	e, err := newEnv(root, o.seed, o.smoke, o.update)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	res, err := runWorkload(e, o.workload, o.seconds, o.trace == 1, o.spans)
	if err != nil {
		return err
	}
	if o.report != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.report, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(driverLine(res))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// repoRoot walks up from the working directory to this module's root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the repro module: no go.mod declaring it above the working directory")
		}
		dir = parent
	}
}

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func (d *declaration) bound(metric string) (float64, bool) {
	for _, m := range d.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}
