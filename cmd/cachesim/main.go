// Command cachesim replays a RAP-WAM memory-reference trace through a
// coherent cache configuration and reports traffic and miss statistics
// (the second stage of the paper's Figure 1 pipeline).
//
// Usage:
//
//	cachesim -size 512 -line 4 -pes 8 -protocol broadcast trace.rwt
//	cachesim -sweep -pes 8 trace.rwt     # paper-style size sweep
//	cachesim -tracedir traces -bench qsort -pes 8 -sweep
//
// The trace argument is a compact trace file ("RWT2", as rapwam -trace
// and the trace store write it). Alternatively -tracedir DIR
// with -bench NAME pulls the trace from a persistent trace store,
// generating and storing it on first use (-seqtrace selects the
// sequential WAM baseline cell).
//
// -sweep walks the trace once (not once per configuration), feeding
// the simulators concurrently through the streaming fan-out pipeline;
// -par bounds the configurations per pass. Within a pass a size's
// write-through and write-in broadcast configurations are simulated as
// one (same residency, derived statistics), and a protocol's sizes
// share one multi-size structure whatever their allocation policy: 2
// structures for the 24-config sweep under -allocate paper, yes or no.
//
// -pes must cover the trace: a trace holding references from PEs the
// simulated machine lacks is rejected, not silently thinned.
//
// -cpuprofile and -memprofile write pprof profiles of the replay, so a
// hot-path regression in the simulator kernel can be diagnosed straight
// from the shipped binary:
//
//	cachesim -cpuprofile cpu.out -sweep -pes 8 trace.rwt
//	go tool pprof cpu.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro"

	"repro/internal/profflag"
)

// allocPolicies are the -allocate values: the paper's selection per
// protocol and size, or one policy throughout.
var allocPolicies = map[string]func(rapwam.Protocol, int) bool{
	"paper": rapwam.PaperWriteAllocate,
	"yes":   func(rapwam.Protocol, int) bool { return true },
	"no":    func(rapwam.Protocol, int) bool { return false },
}

var protocols = map[string]rapwam.Protocol{
	"write-through": rapwam.WriteThrough,
	"broadcast":     rapwam.WriteInBroadcast,
	"update":        rapwam.WriteThroughBroadcast,
	"hybrid":        rapwam.Hybrid,
	"copyback":      rapwam.Copyback,
}

func main() {
	var (
		size     = flag.Int("size", 512, "cache size in words (per PE)")
		line     = flag.Int("line", 4, "line size in words")
		pes      = flag.Int("pes", 1, "number of PEs (caches)")
		protoStr = flag.String("protocol", "broadcast", "write-through | broadcast | update | hybrid | copyback")
		alloc    = flag.String("allocate", "paper", "write-allocate policy: paper | yes | no")
		assoc    = flag.Int("assoc", 0, "set associativity (ways); 0 = fully associative (the paper's model)")
		sweep    = flag.Bool("sweep", false, "sweep cache sizes 64..8192 over all protocols")
		par      = flag.Int("par", 0, "max cache configurations per trace pass in -sweep (0 = all in one pass)")
		traceDir = flag.String("tracedir", "", "persistent trace store directory (use with -bench instead of a trace file)")
		benchSrc = flag.String("bench", "", "benchmark whose trace to pull from -tracedir (generated and stored on first use)")
		seqTrace = flag.Bool("seqtrace", false, "with -bench: use the sequential WAM baseline trace")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after replay) to this file")
	)
	flag.Parse()
	if *pes < 1 || *pes > rapwam.MaxPEs {
		fmt.Fprintf(os.Stderr, "cachesim: -pes %d: PE count must be in [1, %d]\n", *pes, rapwam.MaxPEs)
		os.Exit(2)
	}
	if *par < 0 {
		fmt.Fprintf(os.Stderr, "cachesim: -par %d: pass width cannot be negative (0 = all configs in one pass)\n", *par)
		os.Exit(2)
	}
	// The configurations are resolved and validated before the trace is
	// loaded: a bad flag must not first run the emulator and write its
	// trace into the store.
	writeAllocate, ok := allocPolicies[*alloc]
	if !ok {
		fmt.Fprintf(os.Stderr, "cachesim: -allocate %q: want paper, yes or no\n", *alloc)
		os.Exit(2)
	}
	var cfgs []rapwam.CacheConfig
	if *sweep {
		cfgs = sweepConfigs(*pes, *line, *assoc, writeAllocate)
	} else {
		proto, ok := protocols[*protoStr]
		if !ok {
			fmt.Fprintf(os.Stderr, "cachesim: -protocol %q: unknown protocol\n", *protoStr)
			os.Exit(2)
		}
		cfgs = []rapwam.CacheConfig{{
			PEs: *pes, SizeWords: *size, LineWords: *line,
			Protocol: proto, WriteAllocate: writeAllocate(proto, *size), Assoc: *assoc,
		}}
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			// A sweep never reads -size: name the sweep size that failed.
			size := fmt.Sprintf("-size %d", cfg.SizeWords)
			if *sweep {
				size = fmt.Sprintf("-sweep size %dw", cfg.SizeWords)
			}
			fmt.Fprintf(os.Stderr, "cachesim: %s -line %d -assoc %d: %v\n", size, *line, *assoc, err)
			os.Exit(2)
		}
	}
	// So is the trace source: the store is opened only for a -tracedir
	// with a known -bench, and a file argument stands alone.
	var b rapwam.Benchmark
	switch {
	case *traceDir != "" && *benchSrc == "":
		fmt.Fprintln(os.Stderr, "cachesim: -tracedir needs -bench to name the trace cell (a file argument bypasses the store)")
		os.Exit(2)
	case *benchSrc != "":
		if *traceDir == "" || flag.NArg() != 0 {
			usageExit()
		}
		if b, ok = rapwam.BenchmarkByName(*benchSrc); !ok {
			fmt.Fprintf(os.Stderr, "cachesim: -bench %s: unknown benchmark\n", *benchSrc)
			os.Exit(2)
		}
	case flag.NArg() != 1:
		usageExit()
	}

	// SIGINT/SIGTERM cancel the command context, aborting an in-flight
	// store-backed trace generation cleanly (the partial temp file is
	// removed).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	tr, err := loadTrace(ctx, *traceDir, b, *pes, *seqTrace)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "cachesim: interrupted while generating the trace; the store holds only complete cells")
			os.Exit(130)
		}
		fatal(err)
	}
	fmt.Printf("trace: %d references\n", tr.Len())

	// Profiling starts only after all flag validation, and fatal()
	// invokes the stop hook, so cpu.out is never left truncated.
	stopProfiles = startProfiles(*cpuProf, *memProf)
	defer stopProfiles()

	if *sweep {
		runSweep(tr, cfgs, *pes, *par, *alloc, *assoc)
		stopProfiles()
		return
	}

	cfg := cfgs[0]
	st, err := rapwam.SimulateCache(tr, cfg)
	if err != nil {
		fatal(err)
	}
	checkCovered(tr, *pes, st)
	fmt.Printf("protocol:       %v (write-allocate: %v)\n", cfg.Protocol, cfg.WriteAllocate)
	if cfg.Assoc != 0 {
		fmt.Printf("associativity:  %d-way\n", cfg.Assoc)
	}
	fmt.Printf("traffic ratio:  %.4f\n", st.TrafficRatio())
	fmt.Printf("miss ratio:     %.4f\n", st.MissRatio())
	fmt.Printf("bus words:      %d (fills %d, write-backs %d, write-throughs %d, updates %d)\n",
		st.BusWords, st.LineFills, st.WriteBacks, st.WriteThroughs, st.Updates)
	fmt.Printf("invalidations:  %d\n", st.Invalidations)
	stopProfiles()
}

// loadTrace loads the trace main resolved: the (store, benchmark) cell,
// generated on first use, or the file argument (a compact trace).
func loadTrace(ctx context.Context, traceDir string, b rapwam.Benchmark, pes int, sequential bool) (*rapwam.Trace, error) {
	if traceDir != "" {
		store, err := rapwam.OpenTraceStore(traceDir)
		if err != nil {
			return nil, err
		}
		return rapwam.NewRunner(store, 0, nil).TraceBenchmark(ctx, b, pes, sequential)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rapwam.ReadTrace(f)
}

func usageExit() {
	fmt.Fprintln(os.Stderr, "usage: cachesim [flags] trace.rwt  |  cachesim -tracedir DIR -bench NAME [flags]")
	flag.PrintDefaults()
	os.Exit(2)
}

// stopProfiles is set once profiling starts; fatal() runs it so an
// error exit still flushes a valid CPU profile.
var stopProfiles = func() {}

func startProfiles(cpuPath, memPath string) func() {
	return profflag.Start(cpuPath, memPath, fatal)
}

// The -sweep grid: every size under each protocol, in table order.
var (
	sweepSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	sweepOrder = []string{"broadcast", "hybrid", "write-through"}
)

// sweepConfigs lists the -sweep grid's configurations, protocol-major.
func sweepConfigs(pes, line, assoc int, writeAllocate func(rapwam.Protocol, int) bool) []rapwam.CacheConfig {
	var cfgs []rapwam.CacheConfig
	for _, name := range sweepOrder {
		proto := protocols[name]
		for _, s := range sweepSizes {
			cfgs = append(cfgs, rapwam.CacheConfig{
				PEs: pes, SizeWords: s, LineWords: line,
				Protocol:      proto,
				WriteAllocate: writeAllocate(proto, s),
				Assoc:         assoc,
			})
		}
	}
	return cfgs
}

// runSweep simulates the sweep grid cfgs with the streaming fan-out
// pipeline: the trace is walked once per pass of up to par
// configurations (all of them in a single pass by default), instead of
// once per configuration. A non-paper allocation policy and a
// set-associative geometry are named above the table, which otherwise
// reads as the paper's fully associative sweep.
func runSweep(tr *rapwam.Trace, cfgs []rapwam.CacheConfig, pes, par int, alloc string, assoc int) {
	if par <= 0 || par > len(cfgs) {
		par = len(cfgs)
	}
	passes := (len(cfgs) + par - 1) / par
	stats := make([]rapwam.CacheStats, 0, len(cfgs))
	for lo := 0; lo < len(cfgs); lo += par {
		hi := lo + par
		if hi > len(cfgs) {
			hi = len(cfgs)
		}
		if passes > 1 {
			fmt.Fprintf(os.Stderr, "cachesim: pass %d/%d: %d configs, one trace walk\n",
				lo/par+1, passes, hi-lo)
		}
		st, err := tr.ReplayAll(cfgs[lo:hi])
		if err != nil {
			fatal(err)
		}
		stats = append(stats, st...)
	}
	checkCovered(tr, pes, stats...)
	if alloc != "paper" {
		fmt.Printf("write-allocate: %s (every protocol and size)\n", alloc)
	}
	if assoc != 0 {
		fmt.Printf("associativity: %d-way (every size)\n", assoc)
	}
	fmt.Printf("%-14s", "protocol")
	for _, s := range sweepSizes {
		fmt.Printf(" %7dw", s)
	}
	fmt.Println()
	for i, name := range sweepOrder {
		fmt.Printf("%-14s", name)
		for j := range sweepSizes {
			fmt.Printf(" %8.4f", stats[i*len(sweepSizes)+j].TrafficRatio())
		}
		fmt.Println()
	}
}

// checkCovered fails the command when a simulation skipped references:
// the simulator ignores PEs the configured machine lacks, and a table
// over a thinned trace would be mislabelled.
func checkCovered(tr *rapwam.Trace, pes int, stats ...rapwam.CacheStats) {
	for _, st := range stats {
		if st.Refs != int64(tr.Len()) {
			fatal(fmt.Errorf("simulated %d of %d references: trace holds references from PEs ≥ -pes %d", st.Refs, tr.Len(), pes))
		}
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "cachesim:", err)
	os.Exit(1)
}
