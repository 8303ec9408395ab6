package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is a full run: the host it ran on and every workload's result.
type report struct {
	Host      hostRecord         `json:"host"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`        // untraced runs
	Traced    map[string]*result `json:"traced,omitempty"` // traced runs
}

// hostRecord says where the numbers were taken; parallelism numbers
// mean nothing without the core count beside them.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"load_average"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func recordHost(root string) hostRecord {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(data))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// runAll runs every declared workload one after another, each in its
// own OS process: the grid state in internal/experiments and
// internal/bench is process-global, so a process per workload is the
// only honest cold start and the only per-workload RSS.
func runAll(root string, decl *declaration, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	base := filepath.Join(root, ".bench_build", "rapwambench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	outPath := o.out
	if outPath == "" {
		outPath = filepath.Join(base, "report.json")
	}
	traced := o.trace == 1
	rep := &report{Host: recordHost(root), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*result{}}
	if traced {
		rep.Traced = map[string]*result{}
	}
	failed := false
	child := func(name string, trace int) (*result, error) {
		resPath := filepath.Join(base, fmt.Sprintf("result-%s-%d.json", name, trace))
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace), "-report", resPath}
		if trace == 1 {
			args = append(args, "-spans", filepath.Join(base, "spans-"+name+".json"))
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.update {
			args = append(args, "-update-expected")
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		runErr := cmd.Run()
		data, err := os.ReadFile(resPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (no result written)", name, runErr)
		}
		os.Remove(resPath)
		if runErr != nil {
			failed = true
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}
	for _, name := range workloadOrder {
		fmt.Fprintf(os.Stderr, "rapwambench: %s ...\n", name)
		res, err := child(name, 0)
		if err != nil {
			return err
		}
		if res.Unstable && !o.smoke {
			fmt.Fprintf(os.Stderr, "rapwambench: %s: rerunning once on an unstable host\n", name)
			if res, err = child(name, 0); err != nil {
				return err
			}
		}
		rep.Workloads[name] = res
		if traced {
			if rep.Traced[name], err = child(name, 1); err != nil {
				return err
			}
		}
	}
	printReport(os.Stdout, decl, rep)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rapwambench: report written to %s\n", outPath)
	if failed {
		return fmt.Errorf("some operations failed; see FAILED lines above")
	}
	return nil
}

// printReport prints every metric by name with its unit: per workload
// the five end-to-end metrics — the value, then the median and
// quartiles of its samples (one per round for a rate), and the name
// and natural unit each rate has on that workload — then the per-layer
// metrics of the traced run.
func printReport(w *os.File, decl *declaration, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "host: %d cores (GOMAXPROCS %d), %s, %s, load %s, commit %s\n", h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.LoadAvg, h.Commit)
	fmt.Fprintf(w, "seed %d, %d s per workload\n\n", rep.Seed, rep.Seconds)
	for _, name := range workloadOrder {
		res := rep.Workloads[name]
		if res == nil {
			continue
		}
		flag := ""
		if res.Unstable {
			flag = "  UNSTABLE"
		}
		fail := float64(res.Failed) / float64(max(res.Attempted, 1))
		fmt.Fprintf(w, "%s  (%.1f s, fail_ratio %g = %d/%d)%s\n", name, res.WallS, fail, res.Failed, res.Attempted, flag)
		ph := workloads[name]().phases()
		for i, m := range endToEnd {
			v := res.Metrics[m.name]
			bound, _ := decl.bound(m.name)
			fmt.Fprintf(w, "  %-12s %12.4f %-7s median %.4f q1 %.4f q3 %.4f n %-3d bound %.0f%%", m.name, v.Value, v.Unit, v.Median, v.Q1, v.Q3, v.N, 100*bound)
			if i >= 2 {
				p := ph[i-2]
				fmt.Fprintf(w, "   = %s %.4f %s", p.alias, p.fromRate(v.Value), p.unit)
			}
			fmt.Fprintln(w)
		}
		if tr := rep.Traced[name]; tr != nil {
			for _, m := range perLayer {
				if v := tr.Metrics[m.name]; v.Value != 0 {
					fmt.Fprintf(w, "    %-38s %16.4f %s\n", m.name, v.Value, v.Unit)
				}
			}
		}
		fmt.Fprintln(w)
	}
	if rep.Traced != nil {
		var zero []string
		for _, m := range perLayer {
			nonzero := false
			for _, tr := range rep.Traced {
				nonzero = nonzero || tr.Metrics[m.name].Value != 0
			}
			if !nonzero {
				zero = append(zero, m.name)
			}
		}
		sort.Strings(zero)
		fmt.Fprintf(w, "per-layer metrics reading 0 on every workload: %s\n", strings.Join(zero, ", "))
	}
}
