package rapwam

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// CLI smoke tests: build every command once and drive the binaries the
// way an operator's shell would, pinning down the flag-validation
// contract — bad input exits non-zero with one line NAMING the flag,
// never a deep stack trace — and that -h actually documents the flags.

var cliBins struct {
	once sync.Once
	dir  string
	err  error
}

// buildCLIs compiles ./cmd/... once per test run into a shared temp
// directory and returns it.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliBins.once.Do(func() {
		dir, err := os.MkdirTemp("", "rapwam-cli-*")
		if err != nil {
			cliBins.err = err
			return
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
		if out, err := cmd.CombinedOutput(); err != nil {
			cliBins.err = fmt.Errorf("building CLIs: %v\n%s", err, out)
			return
		}
		cliBins.dir = dir
	})
	if cliBins.err != nil {
		t.Fatal(cliBins.err)
	}
	return cliBins.dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if cliBins.dir != "" {
		os.RemoveAll(cliBins.dir)
	}
	os.Exit(code)
}

// runCLI executes one built binary and returns its exit code and
// combined output.
func runCLI(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), bin), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if ok := asExitError(err, &ee); !ok {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return ee.ExitCode(), string(out)
}

func asExitError(err error, ee **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*ee = e
	}
	return ok
}

func TestCLIBadFlagsExitNonZeroNamingTheFlag(t *testing.T) {
	tmp := t.TempDir()
	// cachesim's and tracegen's flags are checked before the emulator
	// runs: a bad value leaves this store empty.
	empty := t.TempDir()
	prog := filepath.Join(tmp, "a.pl")
	if err := os.WriteFile(prog, []byte("a(1).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		bin      string
		args     []string
		wantCode int
		mention  string
	}{
		{"experiments-pes-out-of-range", "experiments",
			[]string{"-exp", "table2", "-pes", "99"}, 2, "-pes"},
		{"experiments-negative-par", "experiments",
			[]string{"-exp", "table1", "-par", "-3"}, 2, "par"},
		{"experiments-unknown-exp", "experiments",
			[]string{"-exp", "fig5"}, 2, "valid names: table1, fig2"},
		{"experiments-cache-below-a-line", "experiments",
			[]string{"-exp", "table1", "-cache", "0"}, 2, "-cache"},
		{"experiments-cache-not-whole-lines", "experiments",
			[]string{"-exp", "mlips", "-cache", "130"}, 2, "not a multiple of line"},
		{"experiments-negative-target", "experiments",
			[]string{"-exp", "table1", "-target", "-1"}, 2, "-target"},
		// The CLI holds its flags to the /v1 parameters' bounds.
		{"experiments-infinite-target", "experiments",
			[]string{"-exp", "mlips", "-target", "Inf"}, 2, "-target"},
		{"experiments-cache-above-bound", "experiments",
			[]string{"-exp", "bus", "-cache", "8388608"}, 2, "-cache"},
		{"cachesim-pes-out-of-range", "cachesim",
			[]string{"-pes", "0"}, 2, "-pes"},
		{"cachesim-pes-not-a-number", "cachesim",
			[]string{"-pes", "abc"}, 2, "-pes"},
		{"cachesim-unknown-protocol", "cachesim",
			[]string{"-tracedir", empty, "-bench", "qsort", "-pes", "4", "-protocol", "bogus"}, 2, "-protocol"},
		{"cachesim-size-not-whole-lines", "cachesim",
			[]string{"-tracedir", empty, "-bench", "qsort", "-pes", "4", "-size", "6"}, 2, "-size"},
		{"cachesim-unknown-allocate", "cachesim",
			[]string{"-tracedir", empty, "-bench", "qsort", "-pes", "4", "-allocate", "maybe"}, 2, "-allocate"},
		// A sweep names the sweep size that cannot take -assoc, not the
		// -size it never reads.
		{"cachesim-sweep-assoc-wider-than-a-size", "cachesim",
			[]string{"-tracedir", empty, "-bench", "qsort", "-pes", "4", "-sweep", "-assoc", "32"}, 2, "-sweep size 64w -line 4 -assoc 32: cache: associativity 32 does not divide 16 lines"},
		// An unknown benchmark reads as tracegen's does; neither it nor a
		// store without a cell to pull opens the store (see below).
		{"cachesim-unknown-bench", "cachesim",
			[]string{"-bench", "nosuch", "-tracedir", filepath.Join(tmp, "never")}, 2, "-bench nosuch: unknown benchmark"},
		{"cachesim-tracedir-without-bench", "cachesim",
			[]string{"-tracedir", filepath.Join(tmp, "never")}, 2, "-tracedir needs -bench"},
		{"tracegen-negative-par", "tracegen",
			[]string{"generate", "-tracedir", empty, "-par", "-2"}, 2, "-par"},
		{"tracegen-pes-out-of-range", "tracegen",
			[]string{"generate", "-tracedir", empty, "-bench", "qsort", "-pes", "4,0"}, 2, "-pes 0: need an integer in [1, 64]"},
		{"tracegen-unknown-bench", "tracegen",
			[]string{"generate", "-tracedir", empty, "-bench", "qsort,nosuch"}, 2, "-bench nosuch"},
		{"tracegen-unknown-mode", "tracegen",
			[]string{"generate", "-tracedir", empty, "-bench", "qsort", "-mode", "both"}, 2, "-mode both"},
		// A PE count the machine cannot have is refused before anything
		// compiles, for a query and a benchmark alike (0 and negative
		// counts used to run on one PE).
		{"rapwam-query-zero-pes", "rapwam",
			[]string{"-q", "a(X)", "-p", "0", prog}, 2, "-p 0: need an integer in [1, 64]"},
		{"rapwam-query-negative-pes", "rapwam",
			[]string{"-q", "a(X)", "-p", "-3", prog}, 2, "-p -3"},
		{"rapwam-bench-zero-pes", "rapwam",
			[]string{"-bench", "qsort", "-p", "0"}, 2, "-p 0"},
		{"rapwam-bench-pes-above-max", "rapwam",
			[]string{"-bench", "qsort", "-p", "65"}, 2, "-p 65"},
		{"rapwam-unknown-bench", "rapwam",
			[]string{"-bench", "nosuch"}, 2, "-bench nosuch: unknown benchmark"},
		// -bench supplies the program and the query: a file or a -q
		// beside it used to be ignored without a word.
		{"rapwam-bench-with-file", "rapwam",
			[]string{"-bench", "deriv", prog}, 2, "-bench deriv: takes no -q and no program file"},
		{"rapwam-bench-with-query", "rapwam",
			[]string{"-bench", "deriv", "-q", "a(X)"}, 2, "-bench deriv: takes no -q and no program file"},
		// The intra-cell width flags are gone: any value, negative
		// included, is rejected with the flag package's one line.
		{"tracegen-negative-shards", "tracegen",
			[]string{"generate", "-tracedir", tmp, "-shards", "-2"}, 2, "not defined: -shards"},
		{"tracegen-negative-exec-shards", "tracegen",
			[]string{"generate", "-tracedir", tmp, "-exec-shards", "-2"}, 2, "not defined: -exec-shards"},
		{"experiments-negative-exec-shards", "experiments",
			[]string{"-exp", "table1", "-exec-shards", "-3"}, 2, "not defined: -exec-shards"},
		{"rapwam-negative-exec-shards", "rapwam",
			[]string{"-bench", "deriv", "-exec-shards", "-1"}, 2, "not defined: -exec-shards"},
		{"tracegen-no-subcommand", "tracegen",
			nil, 2, "usage"},
		{"rapwamd-malformed-chaos", "rapwamd",
			[]string{"-chaos", "bogus"}, 2, "-chaos"},
		{"rapwamd-negative-max-computes", "rapwamd",
			[]string{"-max-computes", "-1"}, 2, "-max-computes"},
		{"rapwamd-peers-without-self", "rapwamd",
			[]string{"-peers", "http://a:1,http://b:1"}, 2, "-self"},
		{"rapwamd-self-without-peers", "rapwamd",
			[]string{"-self", "http://a:1"}, 2, "-peers"},
		{"rapwamd-malformed-peer-url", "rapwamd",
			[]string{"-peers", "http://a:1,nonsense", "-self", "http://a:1"}, 2, "-peers"},
		{"rapwam-no-goal", "rapwam",
			nil, 2, "usage"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runCLI(t, tc.bin, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("%s %v: exit %d, want %d\n%s", tc.bin, tc.args, code, tc.wantCode, out)
			}
			if !strings.Contains(out, tc.mention) {
				t.Fatalf("%s %v: output does not mention %q:\n%s", tc.bin, tc.args, tc.mention, out)
			}
		})
	}
	if traces, _ := filepath.Glob(filepath.Join(empty, "*.rwt2")); len(traces) != 0 {
		t.Errorf("a command with a bad flag wrote %v", traces)
	}
	if _, err := os.Stat(filepath.Join(tmp, "never")); !os.IsNotExist(err) {
		t.Errorf("a rejected cachesim call created its -tracedir (stat: %v)", err)
	}
}

// TestCLIListingHonoursBench: -listing prints the compiled code of the
// -bench program instead of running it, and with -seq the sequential
// WAM baseline's, which has no parallel-call instructions.
func TestCLIListingHonoursBench(t *testing.T) {
	code, par := runCLI(t, "rapwam", "-bench", "deriv", "-listing")
	if code != 0 || !strings.Contains(par, "pcall") || strings.Contains(par, "D = ") {
		t.Fatalf("rapwam -bench deriv -listing: exit %d, want the parallel code and no answer\n%s", code, par)
	}
	code, seq := runCLI(t, "rapwam", "-bench", "deriv", "-seq", "-listing")
	if code != 0 || strings.Contains(seq, "pcall") || !strings.Contains(seq, "proceed") {
		t.Fatalf("rapwam -bench deriv -seq -listing: exit %d, want the sequential code\n%s", code, seq)
	}
}

// TestCLIShardFlagsAreUnknown pins the removal of -shards and
// -exec-shards from every command: each rejects them as undefined
// flags (exit 2, one line naming the flag) and none documents them.
func TestCLIShardFlagsAreUnknown(t *testing.T) {
	for _, cmd := range [][]string{{"rapwam"}, {"cachesim"}, {"experiments"}, {"rapwamd"}, {"tracegen", "generate"}} {
		for _, flagName := range []string{"-shards", "-exec-shards"} {
			t.Run(cmd[0]+flagName, func(t *testing.T) {
				code, out := runCLI(t, cmd[0], append(cmd[1:], flagName, "2")...)
				if code != 2 || !strings.Contains(out, "flag provided but not defined: "+flagName) {
					t.Fatalf("%v %s 2: exit %d, want 2 and an undefined-flag line\n%s", cmd, flagName, code, out)
				}
				if _, help := runCLI(t, cmd[0], append(cmd[1:], "-h")...); strings.Contains(help, flagName) {
					t.Fatalf("%v -h still documents %s:\n%s", cmd, flagName, help)
				}
			})
		}
	}
}

// TestCLIExperimentsSameOutputWithAndWithoutTraceDir pins the one cell
// data path end to end: `experiments -exp all` prints the same bytes
// whether its trace store is the private in-memory one or a directory,
// cold or warm — and the warm run's stderr summary shows why it is
// cheap: no emulator run, and every configuration served from the
// cells' stored results.
func TestCLIExperimentsSameOutputWithAndWithoutTraceDir(t *testing.T) {
	run := func(args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(buildCLIs(t), "experiments"), append([]string{"-exp", "all"}, args...)...)
		var errOut strings.Builder
		cmd.Stderr = &errOut
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("experiments -exp all %v: %v\n%s", args, err, errOut.String())
		}
		return string(out), errOut.String()
	}
	dir := t.TempDir()
	mem, _ := run()
	if len(mem) == 0 {
		t.Fatal("experiments -exp all printed nothing")
	}
	cold, coldSummary := run("-tracedir", dir)
	if cold != mem {
		t.Errorf("stdout differs between no -tracedir and a cold -tracedir")
	}
	if want := "71 hits, 30 misses, 30 traces written, 30 emulator runs; 10 results reused, 407 simulated, 26 result objects written"; !strings.Contains(coldSummary, want) {
		t.Errorf("cold summary %q does not contain %q", coldSummary, want)
	}
	warm, warmSummary := run("-tracedir", dir)
	if warm != mem {
		t.Errorf("stdout differs between no -tracedir and a warm -tracedir")
	}
	if want := "101 hits, 0 misses, 0 traces written, 0 emulator runs; 417 results reused, 0 simulated, 0 result objects written"; !strings.Contains(warmSummary, want) {
		t.Errorf("warm summary %q does not contain %q", warmSummary, want)
	}
	// -progress times every entry of the schedule on stderr and leaves
	// stdout alone.
	timed, progress := run("-progress")
	if timed != mem {
		t.Errorf("stdout differs with -progress")
	}
	for _, name := range experiments.Registry().Names() {
		for _, want := range []string{"experiments: " + name + ": started\n", "experiments: " + name + ": finished in "} {
			if !strings.Contains(progress, want) {
				t.Errorf("-progress stderr does not contain %q", want)
			}
		}
	}
}

// TestCLIExperimentsSummaryOnInterrupt is the regression test for the
// exit paths that skipped main's deferred work: an interrupted (or
// failing — the two share one return path) run with -tracedir must
// still print the store summary before exiting 130.
func TestCLIExperimentsSummaryOnInterrupt(t *testing.T) {
	// The widest, single-worker run: seconds of work left when Table 1,
	// which needs no cell, reaches stdout.
	cmd := exec.Command(filepath.Join(buildCLIs(t), "experiments"),
		"-exp", "all", "-par", "1", "-maxpes", "64", "-tracedir", t.TempDir())
	var errOut strings.Builder
	cmd.Stderr = &errOut
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := stdout.Read(make([]byte, 1)); err != nil {
		t.Fatalf("waiting for the first table: %v", err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stdout)
	err = cmd.Wait()
	var ee *exec.ExitError
	if !asExitError(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run: %v, want exit 130\n%s", err, errOut.String())
	}
	for _, want := range []string{"interrupted during", "traces written", "emulator runs"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("interrupted run's stderr does not mention %q:\n%s", want, errOut.String())
		}
	}
}

// TestCLIVerifyReadsSidecarsAndResults: the read-only `tracegen verify`
// counts and checks the objects beside the traces kind by kind, so a
// damaged run sidecar is reported (exit 1) without -repair, and -repair
// heals the store. A JSON object a build before the binary object
// format left behind is counted as legacy and never touched.
func TestCLIVerifyReadsSidecarsAndResults(t *testing.T) {
	dir := t.TempDir()
	if code, out := runCLI(t, "experiments", "-exp", "bus", "-pes", "2", "-tracedir", dir); code != 0 {
		t.Fatalf("experiments -exp bus: exit %d\n%s", code, out)
	}
	code, out := runCLI(t, "tracegen", "verify", "-tracedir", dir)
	if code != 0 || !strings.Contains(out, "4 traces, 4 run records, 4 sim, 1 des checked, 0 legacy objects ignored, all clean") {
		t.Fatalf("verify of a clean store: exit %d\n%s", code, out)
	}
	sidecars, err := filepath.Glob(filepath.Join(dir, "*.run.rwo1"))
	if err != nil || len(sidecars) != 4 {
		t.Fatalf("run sidecars in the store: %v (err %v), want 4", sidecars, err)
	}
	legacy := strings.TrimSuffix(sidecars[1], ".run.rwo1") + ".json"
	if err := os.WriteFile(legacy, []byte(`{"sha256":"","data":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sidecars[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x02 // one count into another: still decodes, wrong statistics
	if err := os.WriteFile(sidecars[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runCLI(t, "tracegen", "verify", "-tracedir", dir)
	if code != 1 || !strings.Contains(out, filepath.Base(sidecars[0])) || !strings.Contains(out, "1 legacy objects ignored, 1 corrupt") {
		t.Fatalf("verify over a damaged sidecar: exit %d, want 1 naming it\n%s", code, out)
	}
	code, out = runCLI(t, "tracegen", "verify", "-tracedir", dir, "-repair")
	if code != 0 || !strings.Contains(out, "4 traces, 4 run records, 4 sim, 1 des scrubbed, 1 quarantined") {
		t.Fatalf("verify -repair: exit %d\n%s", code, out)
	}
	if code, out = runCLI(t, "tracegen", "verify", "-tracedir", dir); code != 0 {
		t.Fatalf("verify after repair: exit %d\n%s", code, out)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Errorf("the legacy object was moved: %v", err)
	}
}

// TestCLICachesimRejectsTraceWiderThanMachine: the simulator skips
// references from PEs the configured machine lacks, so `cachesim -pes 2`
// over an 8-PE trace file used to print a table for a quarter of the
// trace and exit 0. It must fail naming the cause, for a single
// configuration and for -sweep; -allocate reaches the sweep, which
// names a non-paper policy above the table, and both outputs name a
// non-zero -assoc.
func TestCLICachesimRejectsTraceWiderThanMachine(t *testing.T) {
	dir := t.TempDir()
	if code, out := runCLI(t, "tracegen", "generate", "-tracedir", dir, "-bench", "qsort", "-pes", "8"); code != 0 {
		t.Fatalf("tracegen generate: exit %d\n%s", code, out)
	}
	files, err := filepath.Glob(filepath.Join(dir, "qsort-p8-par-*.rwt2"))
	if err != nil || len(files) != 1 {
		t.Fatalf("8-PE trace in the store: %v (err %v), want 1", files, err)
	}
	for _, args := range [][]string{{"-pes", "2"}, {"-pes", "2", "-sweep"}} {
		code, out := runCLI(t, "cachesim", append(args, files[0])...)
		if code != 1 || !strings.Contains(out, "trace holds references from PEs ≥ -pes 2") || strings.Contains(out, "traffic ratio") || strings.Contains(out, "hybrid") {
			t.Errorf("cachesim %v on an 8-PE trace: exit %d, want 1 naming the cause and no table\n%s", args, code, out)
		}
	}
	if code, out := runCLI(t, "cachesim", "-pes", "8", files[0]); code != 0 || !strings.Contains(out, "traffic ratio") {
		t.Errorf("cachesim -pes 8: exit %d\n%s", code, out)
	}
	// Where the paper does not write-allocate (below 512 words; hybrid
	// at 512 too) -allocate paper and -allocate no agree; above, the
	// policy moves the traffic.
	rows := func(alloc string) [][]string {
		code, out := runCLI(t, "cachesim", "-pes", "8", "-sweep", "-allocate", alloc, files[0])
		if code != 0 {
			t.Fatalf("cachesim -sweep -allocate %s: exit %d\n%s", alloc, code, out)
		}
		if named := strings.Contains(out, "write-allocate: "+alloc); named != (alloc != "paper") {
			t.Errorf("-allocate %s: policy line present = %v\n%s", alloc, named, out)
		}
		var table [][]string
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) == 9 && f[0] != "protocol" {
				table = append(table, f)
			}
		}
		if len(table) != 3 {
			t.Fatalf("-allocate %s: %d protocol rows, want 3\n%s", alloc, len(table), out)
		}
		return table
	}
	paper, never := rows("paper"), rows("no")
	differ := 0
	for i, proto := range []Protocol{WriteInBroadcast, Hybrid, WriteThrough} {
		for j, size := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
			if paper[i][j+1] != never[i][j+1] {
				differ++
				if !PaperWriteAllocate(proto, size) {
					t.Errorf("%v at %d words, no-write-allocate either way: paper %s, -allocate no %s", proto, size, paper[i][j+1], never[i][j+1])
				}
			}
		}
	}
	if differ == 0 {
		t.Errorf("-allocate no printed the paper-policy table: the sweep ignores the flag")
	}
	// A set-associative run says so; the paper's fully associative one
	// prints no associativity line.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sweep", "-assoc", "4"}, "associativity: 4-way (every size)\n"},
		{[]string{"-assoc", "4"}, "associativity:  4-way\n"},
		{[]string{"-sweep"}, ""},
		{nil, ""},
	} {
		code, out := runCLI(t, "cachesim", append(append([]string{"-pes", "8"}, tc.args...), files[0])...)
		if code != 0 {
			t.Fatalf("cachesim %v: exit %d\n%s", tc.args, code, out)
		}
		if tc.want == "" && strings.Contains(out, "associativity") || !strings.Contains(out, tc.want) {
			t.Errorf("cachesim %v: want associativity line %q\n%s", tc.args, tc.want, out)
		}
	}
}

// TestCLITraceFileIsCompactWhateverTheSuffix pins the one trace file
// format: rapwam -trace writes RWT2 at any path, cachesim reads it the
// same from either name, and a file in the fixed-record format older
// builds wrote is refused with the reader's error, not a panic.
func TestCLITraceFileIsCompactWhateverTheSuffix(t *testing.T) {
	dir := t.TempDir()
	var files, sweeps []string
	for _, name := range []string{"q4.rwt", "q4.rwt2"} {
		path := filepath.Join(dir, name)
		if code, out := runCLI(t, "rapwam", "-bench", "qsort", "-p", "4", "-trace", path); code != 0 {
			t.Fatalf("rapwam -trace %s: exit %d\n%s", name, code, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "RWT2") {
			t.Errorf("rapwam -trace %s wrote a file starting %q, want RWT2", name, data[:min(4, len(data))])
		}
		code, out := runCLI(t, "cachesim", "-sweep", "-pes", "4", path)
		if code != 0 {
			t.Fatalf("cachesim -sweep %s: exit %d\n%s", name, code, out)
		}
		files, sweeps = append(files, string(data)), append(sweeps, out)
	}
	if files[0] != files[1] {
		t.Errorf("the .rwt and .rwt2 traces differ (%d and %d bytes)", len(files[0]), len(files[1]))
	}
	if sweeps[0] != sweeps[1] {
		t.Errorf("cachesim -sweep differs between the .rwt and .rwt2 traces:\n%s\n%s", sweeps[0], sweeps[1])
	}
	// Magic, a reference count of one, one 8-byte record.
	old := filepath.Join(dir, "old.rwt")
	if err := os.WriteFile(old, []byte("RWT1\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCLI(t, "cachesim", "-sweep", "-pes", "4", old)
	if code == 0 || !strings.Contains(out, "not a compact trace") || strings.Contains(out, "goroutine") {
		t.Errorf("cachesim on a fixed-record trace: exit %d, want non-zero with the reader's error\n%s", code, out)
	}
}

func TestCLIHelpDocumentsFlags(t *testing.T) {
	for _, tc := range []struct {
		bin      string
		args     []string
		mentions []string
	}{
		{"rapwam", []string{"-h"}, []string{"-bench", "-trace", "-cpuprofile"}},
		{"rapwamd", []string{"-h"}, []string{"-peers", "-self", "-chaos", "-max-computes", "-par"}},
		{"tracegen", []string{"-h"}, []string{"generate", "verify"}},
		{"cachesim", []string{"-h"}, []string{"-sweep", "-pes", "-tracedir"}},
		{"experiments", []string{"-h"}, []string{"-exp", "-pes", "-par"}},
	} {
		t.Run(tc.bin, func(t *testing.T) {
			code, out := runCLI(t, tc.bin, tc.args...)
			if code != 0 && code != 2 {
				t.Fatalf("%s -h: exit %d\n%s", tc.bin, code, out)
			}
			for _, want := range tc.mentions {
				if !strings.Contains(out, want) {
					t.Fatalf("%s -h output does not document %q:\n%s", tc.bin, want, out)
				}
			}
		})
	}
}
