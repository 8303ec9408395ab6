// Command tracegen manages the persistent trace store: it generates
// benchmark traces in bulk (in parallel, ahead of any experiment run),
// inspects stored traces, and verifies store integrity.
//
// Usage:
//
//	tracegen generate -tracedir DIR [-bench LIST] [-pes LIST] [-mode auto|par|seq] [-par N] [-v]
//	tracegen ls       -tracedir DIR
//	tracegen inspect  -tracedir DIR | file.rwt2...
//	tracegen verify   -tracedir DIR [-repair] | file.rwt2...
//
// generate accepts -cpuprofile/-memprofile to capture pprof profiles
// of bulk generation (the emulator + codec hot path):
//
//	tracegen generate -cpuprofile cpu.out -tracedir traces -bench qsort -pes 4
//	go tool pprof cpu.out
//
// generate runs the emulator once per missing (benchmark, PEs) cell —
// independent cells concurrently, at most -par at once — streaming
// each trace into the store's compact codec as it is produced, so even
// traces larger than RAM generate in constant memory. -bench accepts a
// comma-separated list of benchmark names (parameterized variants like
// qsort-2000 included) or the presets "paper", "large" and "all";
// -mode auto traces each PE count parallel, plus the 1-PE cell as the
// sequential WAM baseline (the convention the experiment drivers use).
//
// ls prints one line per stored trace. inspect decodes headers (and,
// for a store, footers) and prints benchmark, PEs, mode, emulator
// version, reference counts and bytes/ref. verify fully decodes every
// trace, checking header, chunk CRCs and footer totals, and over a
// store also checks every run sidecar and result object against its
// checksum, counting them by kind (objects of an earlier format, such as
// the .json objects of stores written before the binary object format,
// are counted as legacy and left alone) — read-only; -repair
// quarantines what fails and regenerates the recoverable cells.
//
// Example: warm the store for the full experiment sweep, then run it
// without a single emulator execution:
//
//	tracegen generate -tracedir traces -bench all -pes 1,2,4,8
//	experiments -tracedir traces -exp all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro"

	"repro/internal/cliflag"
	"repro/internal/profflag"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "generate":
		cmdGenerate(args)
	case "ls":
		cmdLs(args)
	case "inspect":
		cmdInspect(args)
	case "verify":
		cmdVerify(args)
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown command %q\n", cmd)
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracegen generate -tracedir DIR [-bench LIST] [-pes LIST] [-mode auto|par|seq] [-par N] [-v]
  tracegen ls       -tracedir DIR
  tracegen inspect  -tracedir DIR | file.rwt2...
  tracegen verify   -tracedir DIR [-repair] | file.rwt2...`)
	os.Exit(2)
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

// usageExit reports a bad flag value and exits 2, before any work.
func usageExit(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(2)
}

// stopProfiles is installed before any work, so an error exit still
// flushes a valid CPU profile (see internal/profflag).
var stopProfiles = func() {}

func startProfiles(cpuPath, memPath string) func() {
	return profflag.Start(cpuPath, memPath, fatal)
}

// parseBenches expands a -bench list (names or presets) into
// benchmarks; the error names the first unknown one.
func parseBenches(list string) ([]rapwam.Benchmark, error) {
	var names []string
	for _, tok := range strings.Split(list, ",") {
		switch tok = strings.TrimSpace(tok); tok {
		case "":
		case "paper":
			for _, b := range rapwam.PaperBenchmarks() {
				names = append(names, b.Name)
			}
		case "large":
			for _, b := range rapwam.LargeBenchmarks() {
				names = append(names, b.Name)
			}
		case "all":
			names = append(names, rapwam.BenchmarkNames()...)
		default:
			names = append(names, tok)
		}
	}
	seen := make(map[string]bool)
	var out []rapwam.Benchmark
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		b, ok := rapwam.BenchmarkByName(name)
		if !ok {
			return nil, fmt.Errorf("-bench %s: unknown benchmark", name)
		}
		out = append(out, b)
	}
	return out, nil
}

// parsePEs parses a comma-separated PE-count list; the error names the
// first bad count.
func parsePEs(list string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 || n > rapwam.MaxPEs {
			return nil, fmt.Errorf("-pes %s: need an integer in [1, %d]", tok, rapwam.MaxPEs)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// cell is one (benchmark, PEs, sequential) generation target.
type cell struct {
	b   rapwam.Benchmark
	pes int
	seq bool
}

func cmdGenerate(args []string) {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	var (
		dir     = fs.String("tracedir", "", "trace store directory (required)")
		benches = fs.String("bench", "paper", "benchmarks: comma-separated names, or paper|large|all")
		pesList = fs.String("pes", "1,2,4,8", "comma-separated PE counts")
		mode    = fs.String("mode", "auto", "auto (parallel + 1-PE sequential baseline) | par | seq")
		par     = cliflag.Par(fs)
		verbose = fs.Bool("v", false, "report each generated cell on stderr")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the generation to this file")
		memProf = fs.String("memprofile", "", "write a heap profile (after generation) to this file")
	)
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 0 {
		usage()
	}
	// Every flag is checked before any work: a bad value is a usage
	// error (exit 2) naming the flag.
	parN, err := cliflag.Resolve("par", *par)
	if err != nil {
		usageExit("%v", err)
	}
	bs, err := parseBenches(*benches)
	if err != nil {
		usageExit("%v", err)
	}
	pes, err := parsePEs(*pesList)
	if err != nil {
		usageExit("%v", err)
	}
	switch *mode {
	case "auto", "par", "seq":
	default:
		usageExit("-mode %s: want auto, par or seq", *mode)
	}
	stopProfiles = startProfiles(*cpuProf, *memProf)
	defer stopProfiles()

	var cells []cell
	type cellID struct {
		name string
		pes  int
		seq  bool
	}
	seen := make(map[cellID]bool)
	add := func(c cell) {
		id := cellID{c.b.Name, c.pes, c.seq}
		if !seen[id] {
			seen[id] = true
			cells = append(cells, c)
		}
	}
	for _, b := range bs {
		for _, p := range pes {
			switch *mode {
			case "auto":
				// The experiment drivers' convention: parallel traces at
				// every PE count, plus the 1-PE sequential WAM baseline
				// every stats driver compares against — even when 1 is
				// not in -pes, so a warmed store really is warm.
				add(cell{b, p, false})
				add(cell{b, 1, true})
			case "par":
				add(cell{b, p, false})
			case "seq":
				add(cell{b, p, true})
			}
		}
	}

	store, err := rapwam.OpenTraceStore(*dir)
	if err != nil {
		fatal(err)
	}
	var onProgress func(msg string)
	if *verbose {
		onProgress = func(msg string) { fmt.Fprintf(os.Stderr, "tracegen: %s\n", msg) }
	}
	r := rapwam.NewRunner(store, parN, onProgress)

	// Ctrl-C / SIGTERM cancel generation: in-flight engine runs abort,
	// their partial temp files are removed, and completed cells stay.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	before := store.Stats()
	err = r.GenerateTraces(ctx, cells2targets(cells))
	if err != nil {
		if errors.Is(err, context.Canceled) {
			after := store.Stats()
			stopProfiles()
			fmt.Fprintf(os.Stderr, "tracegen: interrupted: %d of %d cells generated before the signal; completed cells stay valid, rerun to finish\n",
				after.Puts-before.Puts, len(cells))
			os.Exit(130)
		}
		fatal(err)
	}
	after := store.Stats()
	fmt.Printf("store %s: %d cells requested, %d generated, %d already present (%d emulator runs)\n",
		*dir, len(cells), after.Puts-before.Puts,
		len(cells)-int(after.Puts-before.Puts), r.EngineRuns())
}

// cells2targets converts the CLI's cell list to the API's target type.
func cells2targets(cells []cell) []rapwam.TraceTarget {
	out := make([]rapwam.TraceTarget, len(cells))
	for i, c := range cells {
		out[i] = rapwam.TraceTarget{Benchmark: c.b, PEs: c.pes, Sequential: c.seq}
	}
	return out
}

// storeEntries lists a store directory via the public API.
func storeEntries(dir string) (*rapwam.TraceStore, []rapwam.TraceStoreEntry) {
	s, err := rapwam.OpenTraceStore(dir)
	if err != nil {
		fatal(err)
	}
	entries, err := s.List()
	if err != nil {
		fatal(err)
	}
	return s, entries
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("tracedir", "", "trace store directory (required)")
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 0 {
		usage()
	}
	_, entries := storeEntries(*dir)
	printEntries(entries, false)
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := fs.String("tracedir", "", "trace store directory")
	fs.Parse(args)
	if *dir != "" {
		_, entries := storeEntries(*dir)
		printEntries(entries, true)
		return
	}
	if fs.NArg() == 0 {
		usage()
	}
	var entries []rapwam.TraceStoreEntry
	for _, path := range fs.Args() {
		meta, size, err := rapwam.ReadTraceFileMeta(path)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		entries = append(entries, rapwam.TraceStoreEntry{Path: path, Meta: meta, Bytes: size})
	}
	printEntries(entries, true)
}

// printEntries renders one line per trace. Deep inspection decodes the
// whole file so footer counts and per-PE totals are authoritative.
func printEntries(entries []rapwam.TraceStoreEntry, deep bool) {
	if len(entries) == 0 {
		fmt.Println("(no traces)")
		return
	}
	fmt.Printf("%-28s %4s %4s %-8s %12s %10s %9s\n",
		"benchmark", "PEs", "mode", "emulator", "refs", "bytes", "bytes/ref")
	for _, e := range entries {
		m := e.Meta
		if deep {
			full, err := rapwam.ReadTraceFileFull(e.Path)
			if err != nil {
				fmt.Printf("%-28s  ERROR: %v\n", e.Path, err)
				continue
			}
			m = full
		}
		mode := "par"
		if m.Sequential {
			mode = "seq"
		}
		bpr := 0.0
		if m.Refs > 0 {
			bpr = float64(e.Bytes) / float64(m.Refs)
		}
		fmt.Printf("%-28s %4d %4s %-8s %12d %10d %9.2f\n",
			m.Benchmark, m.PEs, mode, m.EmulatorVersion, m.Refs, e.Bytes, bpr)
		if deep && len(m.PerPE) > 1 {
			fmt.Printf("%-28s      per-PE refs: %v\n", "", m.PerPE)
		}
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("tracedir", "", "trace store directory")
	repair := fs.Bool("repair", false, "scrub mode: quarantine corrupt objects and regenerate them (requires -tracedir)")
	fs.Parse(args)
	if *repair {
		if *dir == "" || fs.NArg() != 0 {
			usage()
		}
		cmdRepair(*dir)
		return
	}
	if *dir != "" {
		s, err := rapwam.OpenTraceStore(*dir)
		if err != nil {
			fatal(err)
		}
		rep := s.Verify()
		reportVerify(rep.Errors, fmt.Sprintf("%s checked, %d legacy objects ignored", storeCounts(rep.Traces, rep.Objects), rep.Legacy))
		return
	}
	if fs.NArg() == 0 {
		usage()
	}
	var errs []error
	for _, path := range fs.Args() {
		if err := rapwam.VerifyTraceFile(path); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
		}
	}
	reportVerify(errs, fmt.Sprintf("%d traces checked", fs.NArg()))
}

// storeCounts renders what a store scan examined: traces, then run
// sidecars and result objects kind by kind.
func storeCounts(traces int, objects map[string]int) string {
	return fmt.Sprintf("%d traces, %d run records, %d sim, %d des", traces, objects["run"], objects["sim"], objects["des"])
}

// reportVerify prints a read-only verification's findings and exits 1
// if there were any.
func reportVerify(errs []error, checked string) {
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "tracegen: corrupt:", err)
	}
	if len(errs) > 0 {
		fmt.Printf("%s, %d corrupt\n", checked, len(errs))
		os.Exit(1)
	}
	fmt.Printf("%s, all clean\n", checked)
}

// cmdRepair is verify -repair: a full scrub (every object decoded and
// checked against its content address; failures moved to quarantine/)
// followed by regeneration of the quarantined cells that belong to
// this build's benchmarks and emulator version. Foreign cells stay
// quarantined for inspection.
func cmdRepair(dir string) {
	store, err := rapwam.OpenTraceStore(dir)
	if err != nil {
		fatal(err)
	}
	rep := store.Scrub()
	for _, err := range rep.Errors {
		fmt.Fprintln(os.Stderr, "tracegen: scrub:", err)
	}
	for _, name := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "tracegen: quarantined %s\n", name)
	}
	var targets []rapwam.TraceTarget
	var skipped int
	for _, k := range rep.Recoverable {
		b, ok := rapwam.BenchmarkByName(k.Benchmark)
		if !ok || k.EmulatorVersion != rapwam.EmulatorVersion() {
			skipped++
			fmt.Fprintf(os.Stderr, "tracegen: cannot regenerate %v (unknown benchmark or foreign emulator version)\n", k)
			continue
		}
		targets = append(targets, rapwam.TraceTarget{Benchmark: b, PEs: k.PEs, Sequential: k.Sequential})
	}
	if len(targets) > 0 {
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		if err := rapwam.NewRunner(store, 0, nil).GenerateTraces(ctx, targets); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s scrubbed, %d quarantined, %d regenerated, %d unrecoverable\n",
		storeCounts(rep.Traces, rep.Objects), len(rep.Quarantined), len(targets), skipped)
	// Corruption that was quarantined AND regenerated is a successful
	// repair, not a failure. Exit nonzero only for what repair could
	// not fix: unrecoverable cells, or scrub errors beyond the
	// quarantined objects themselves (e.g. transient backend faults).
	if skipped > 0 || len(rep.Errors) > len(rep.Quarantined) {
		os.Exit(1)
	}
}
