// Command rapwam runs an &-Prolog program on the RAP-WAM parallel
// abstract machine and reports the answer plus instrumentation.
//
// Usage:
//
//	rapwam -q "goal(X)" [-p PEs] [-seq] [-trace out.rwt] [-stats] file.pl
//	rapwam -bench deriv [-p PEs] [-seq]
//
// -bench supplies both program and query, so it takes no -q and no
// file; -listing prints the compiled code of either source (with -seq,
// the sequential WAM baseline's) instead of running it.
//
// The program file contains Prolog clauses with optional CGE
// annotations: (conds | g1 & g2) or plain g1 & g2.
//
// -trace writes the memory-reference trace in the compact chunked
// format ("RWT2": delta/varint encoded, CRC-protected — see
// docs/TRACE_FORMAT.md), whatever the path's suffix; cmd/cachesim
// reads it.
//
// -cpuprofile and -memprofile write pprof profiles of the run, for
// working on the emulator hot path:
//
//	rapwam -cpuprofile cpu.out -bench qsort -p 4
//	go tool pprof cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"

	"repro/internal/profflag"
	"repro/internal/trace"
)

func main() {
	var (
		query     = flag.String("q", "", "query goal (required unless -bench)")
		pes       = flag.Int("p", 1, "number of processing elements")
		seq       = flag.Bool("seq", false, "compile CGEs sequentially (WAM baseline)")
		traceOut  = flag.String("trace", "", "write the memory-reference trace to this file")
		stats     = flag.Bool("stats", false, "print instrumentation statistics")
		listing   = flag.Bool("listing", false, "print the compiled code and exit")
		benchName = flag.String("bench", "", "run a built-in benchmark (deriv, tak, qsort, matrix, nrev, queens, primes, zebra)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()
	// Usage errors — a PE count outside the machine's range, an unknown
	// benchmark, a program or query beside -bench — are caught before
	// anything compiles, runs or starts profiling.
	if *pes < 1 || *pes > rapwam.MaxPEs {
		usageError("-p %d: need an integer in [1, %d]", *pes, rapwam.MaxPEs)
	}
	var b rapwam.Benchmark
	if *benchName != "" {
		var ok bool
		if b, ok = rapwam.BenchmarkByName(*benchName); !ok {
			usageError("-bench %s: unknown benchmark", *benchName)
		}
		if *query != "" || flag.NArg() != 0 {
			usageError("-bench %s: takes no -q and no program file (the benchmark supplies both)", *benchName)
		}
	} else if flag.NArg() != 1 || *query == "" {
		fmt.Fprintln(os.Stderr, "usage: rapwam -q GOAL [flags] file.pl  |  rapwam -bench NAME [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	stopProfiles = startProfiles(*cpuProf, *memProf)
	defer stopProfiles()

	if *benchName != "" && !*listing {
		runBench(b, *pes, *seq, *stats, *traceOut)
		return
	}
	src, goal := b.Source, b.Query
	if *benchName == "" {
		text, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src, goal = string(text), *query
	}
	prog, err := rapwam.CompileWithOptions(src, goal, rapwam.CompileOptions{Sequential: *seq})
	if err != nil {
		fatal(err)
	}
	if *listing {
		fmt.Print(prog.Listing())
		return
	}
	res, err := prog.Run(rapwam.RunConfig{PEs: *pes, CaptureTrace: *traceOut != ""})
	if err != nil {
		fatal(err)
	}
	report(res, *stats)
	if *traceOut != "" {
		writeTrace(res.Trace, *traceOut, rapwam.TraceMeta{
			PEs: *pes, Sequential: *seq,
			EmulatorVersion: rapwam.EmulatorVersion(),
		})
	}
	if !res.Success {
		stopProfiles()
		os.Exit(1)
	}
}

func runBench(b rapwam.Benchmark, pes int, seq, stats bool, traceOut string) {
	ctx := context.Background()
	if traceOut != "" {
		tr, err := rapwam.TraceBenchmark(ctx, b, pes, seq)
		if err != nil {
			fatal(err)
		}
		writeTrace(tr, traceOut, rapwam.TraceMeta{
			Benchmark: b.Name, PEs: pes, Sequential: seq,
			EmulatorVersion: rapwam.EmulatorVersion(),
		})
		fmt.Printf("%s: %d references traced\n", b.Name, tr.Len())
		return
	}
	res, err := rapwam.RunBenchmark(ctx, b, pes, seq)
	if err != nil {
		fatal(err)
	}
	report(res, stats)
}

func report(res *rapwam.Result, stats bool) {
	if res.Output != "" {
		fmt.Print(res.Output)
		if res.Output[len(res.Output)-1] != '\n' {
			fmt.Println()
		}
	}
	if !res.Success {
		fmt.Println("no")
		return
	}
	if len(res.Bindings) == 0 {
		fmt.Println("yes")
	} else {
		names := make([]string, 0, len(res.Bindings))
		for n := range res.Bindings {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s = %s\n", n, res.Bindings[n])
		}
	}
	if stats {
		s := res.Stats
		fmt.Printf("cycles:        %d\n", s.Cycles)
		fmt.Printf("instructions:  %d\n", s.TotalInstructions())
		fmt.Printf("inferences:    %d\n", s.Inferences)
		fmt.Printf("references:    %d (work)\n", s.TotalWorkRefs())
		fmt.Printf("parcalls:      %d (goals in //: %d, stolen: %d)\n",
			s.Parcalls, s.GoalsParallel, s.GoalsStolen)
		fmt.Printf("storage (words): heap=%d local=%d control=%d trail=%d\n",
			s.MaxHeap, s.MaxLocal, s.MaxControl, s.MaxTrail)
		byArea := res.Refs.ByArea()
		fmt.Print("refs by area: ")
		for a := trace.AreaHeap; a <= trace.AreaMsg; a++ {
			if n := byArea[a]; n > 0 {
				fmt.Printf(" %s=%d", a, n)
			}
		}
		fmt.Println()
	}
}

// writeTrace serializes the trace in the compact chunked format.
func writeTrace(tr *rapwam.Trace, path string, meta rapwam.TraceMeta) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tr.WriteCompact(f, meta); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "rapwam:", err)
	os.Exit(1)
}

// usageError reports a bad flag combination in one line and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rapwam: "+format+"\n", args...)
	os.Exit(2)
}

// stopProfiles is installed before any work, so an error exit still
// flushes a valid CPU profile (see internal/profflag).
var stopProfiles = func() {}

func startProfiles(cpuPath, memPath string) func() {
	return profflag.Start(cpuPath, memPath, fatal)
}
