package rapwam

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
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
		{"experiments-negative-target", "experiments",
			[]string{"-exp", "table1", "-target", "-1"}, 2, "-target"},
		{"cachesim-pes-out-of-range", "cachesim",
			[]string{"-pes", "0"}, 2, "-pes"},
		{"cachesim-pes-not-a-number", "cachesim",
			[]string{"-pes", "abc"}, 2, "-pes"},
		{"tracegen-negative-par", "tracegen",
			[]string{"generate", "-tracedir", tmp, "-par", "-2"}, 1, "-par"},
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
// cold or warm.
func TestCLIExperimentsSameOutputWithAndWithoutTraceDir(t *testing.T) {
	stdout := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(buildCLIs(t), "experiments"), append([]string{"-exp", "all"}, args...)...)
		var errOut strings.Builder
		cmd.Stderr = &errOut
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("experiments -exp all %v: %v\n%s", args, err, errOut.String())
		}
		return string(out)
	}
	dir := t.TempDir()
	mem := stdout()
	if len(mem) == 0 {
		t.Fatal("experiments -exp all printed nothing")
	}
	if cold := stdout("-tracedir", dir); cold != mem {
		t.Errorf("stdout differs between no -tracedir and a cold -tracedir")
	}
	if warm := stdout("-tracedir", dir); warm != mem {
		t.Errorf("stdout differs between no -tracedir and a warm -tracedir")
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
