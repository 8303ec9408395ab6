// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all          # everything (≈0.26 s and ≈26 MB peak RSS store-less; ≈7 ms warm with -tracedir; 2-vCPU Xeon guest)
//	experiments -exp table1
//	experiments -exp fig2 [-maxpes 40]
//	experiments -exp table2 [-pes 8]
//	experiments -exp table3
//	experiments -exp fig4
//	experiments -exp mlips [-cache 256] [-target 2]
//	experiments -exp bus [-pes 8] [-cache 256]
//
// The experiments are the entries of the registry the results service
// (cmd/rapwamd) serves, internal/experiments.Registry: each prints what
// the service's ?format=text body holds for the same parameters, and
// each flag's default and bounds are those of the parameters it sets.
//
// Every cell — one (benchmark, PEs, sequential) emulator run — streams
// into a trace store once and is replayed from it by every experiment
// that needs it, each cache configuration simulated once per cell. The
// experiments run as one schedule: each starts once those whose stored
// results it reuses have finished (mlips, bus, ablations after fig4),
// all drawing cells from one budget of -par tokens, and they print in
// list order, identical at any -par. -progress reports on stderr each
// experiment's start and wall time, and per cell how many
// configurations came from stored results.
//
// The store is in memory unless -tracedir DIR makes it persistent:
// then every emulator run and every simulation is performed at most
// once per emulator and simulator version, and a second -exp all over
// the same directory performs neither (the run summary on stderr
// reports the counts, also when the run fails or is interrupted). Warm
// the store ahead of time with cmd/tracegen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/cliflag"
	"repro/internal/experiments"
	"repro/internal/profflag"
	"repro/internal/tracestore"
)

// paramFlags routes each parameter flag to the registry entries whose
// parameter of the same name it sets.
var paramFlags = []struct {
	name string
	exps []string
}{
	{"pes", []string{"table2", "bus", "ablations"}},
	{"maxpes", []string{"fig2"}},
	{"cache", []string{"mlips", "bus"}},
	{"target", []string{"mlips"}},
}

// usageExit reports a bad flag value and exits 2.
func usageExit(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}

func main() { os.Exit(realMain()) }

// realMain is main returning its exit status, so that everything
// deferred here — the store summary, the profile flush — also runs when
// an experiment fails (1) or is interrupted (130). Flag validation
// exits directly: nothing is deferred yet.
func realMain() int {
	suite := experiments.Registry()
	names := suite.Names()
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
		par      = cliflag.Par(flag.CommandLine)
		traceDir = flag.String("tracedir", "", "persistent trace store directory (consulted before any emulator run)")
		progress = flag.Bool("progress", false, "report per-cell progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	values := make(map[string]*string, len(paramFlags))
	for _, pf := range paramFlags {
		e, _ := suite.Lookup(pf.exps[0])
		i := slices.IndexFunc(e.Params, func(d experiments.ParamDoc) bool { return d.Name == pf.name })
		doc := e.Params[i]
		values[pf.name] = flag.String(pf.name, doc.Default, fmt.Sprintf("%s (%s)", doc.Doc, strings.Join(pf.exps, ", ")))
	}
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		usageExit("-exp %q: unknown experiment; valid names: %s, all", *exp, strings.Join(names, ", "))
	}

	// Every entry is prepared from the flags before anything runs, so a
	// bad value fails here, not after earlier experiments have printed.
	var jobs []experiments.Job
	for _, e := range suite {
		q := url.Values{}
		for _, pf := range paramFlags {
			if slices.Contains(pf.exps, e.Name) {
				q.Set(pf.name, *values[pf.name])
			}
		}
		_, run, err := e.Prepare(q)
		var pe *experiments.ParamError
		switch {
		case errors.As(err, &pe):
			usageExit("-%s %s: %s", pe.Param, q.Get(pe.Param), pe.Reason)
		case err != nil:
			usageExit("-exp %s: %v", e.Name, err)
		}
		if *exp == "all" || *exp == e.Name {
			jobs = append(jobs, experiments.Job{Name: e.Name, After: e.After, Run: run})
		}
	}
	parN, err := cliflag.Resolve("par", *par)
	if err != nil {
		usageExit("%v", err)
	}

	// Ctrl-C / SIGTERM cancel the experiment context: in-flight grid
	// cells (including the emulator's instruction loop) abort promptly,
	// partial store writes are cleaned up, and the deferred summary
	// still prints.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stop := profflag.Start(*cpuProf, *memProf, func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	})
	defer stop()

	r := &bench.Runner{Par: parN}
	if *traceDir != "" {
		s, err := tracestore.Open(*traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		r.Store = s
		defer func() {
			st := s.Stats()
			fmt.Fprintf(os.Stderr, "experiments: trace store %s: %d hits, %d misses, %d traces written, %d emulator runs; %d results reused, %d simulated, %d result objects written\n",
				*traceDir, st.Hits, st.Misses, st.Puts, r.EngineRuns(), st.ResultHits, st.ResultMisses, st.ResultPuts)
		}()
	}
	if *progress {
		r.Progress = func(msg string) { fmt.Fprintf(os.Stderr, "experiments: %s\n", msg) }
		fmt.Fprintf(os.Stderr, "experiments: grid parallelism %d\n", parN)
		for i := range jobs {
			name, run := jobs[i].Name, jobs[i].Run
			jobs[i].Run = func(ctx context.Context, r *bench.Runner) (experiments.Result, error) {
				r.Progressf("%s: started", name)
				start := time.Now()
				v, err := run(ctx, r)
				verb := "finished"
				if err != nil {
					verb = "failed"
				}
				r.Progressf("%s: %s in %d ms", name, verb, time.Since(start).Milliseconds())
				return v, err
			}
		}
	}

	// The experiments run as one schedule and print in list order. The
	// first failure in list order sets the exit status and cancels the
	// rest; the cells in flight finish or clean up before the summary.
	wait := experiments.Schedule(ctx, r, jobs)
	for i, job := range jobs {
		v, err := wait(i)
		if err != nil {
			stopSignals()
			for k := range jobs {
				wait(k)
			}
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: interrupted during %s; completed experiments were printed, the trace store holds only complete cells\n", job.Name)
				return 130
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", job.Name, err)
			return 1
		}
		fmt.Print(v.String())
		fmt.Println()
	}
	return 0
}
