package cliflag

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	if _, err := Resolve("par", -1); err == nil {
		t.Fatal("Resolve(-1): want error, got nil")
	} else if !strings.Contains(err.Error(), "-par -1") {
		t.Fatalf("Resolve(-1): error %q does not name the flag and value", err)
	}
	if n, err := Resolve("par", 0); err != nil || n != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, %v; want GOMAXPROCS=%d", n, err, runtime.GOMAXPROCS(0))
	}
	if n, err := Resolve("par", 7); err != nil || n != 7 {
		t.Fatalf("Resolve(7) = %d, %v; want 7", n, err)
	}
}

// TestRegistration pins the shared flag name, default and help text:
// every command registering through this package presents an identical
// -par flag.
func TestRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	par := Par(fs)
	if *par != 0 {
		t.Errorf("-par default = %d, want 0 (GOMAXPROCS)", *par)
	}
	if f := fs.Lookup("par"); f == nil || f.Usage != ParHelp {
		t.Errorf("-par help text not the shared ParHelp")
	}
	if err := fs.Parse([]string{"-par", "3"}); err != nil {
		t.Fatal(err)
	}
	if *par != 3 {
		t.Fatalf("parsed par = %d, want 3", *par)
	}
}

// TestResolveErrorPaths pins Resolve's rejection surface: any negative
// count fails, the error names the exact flag and value the user typed
// (so the message is actionable from any command), the zero value comes
// back with the error, and the 0 = GOMAXPROCS convention is restated.
func TestResolveErrorPaths(t *testing.T) {
	for _, name := range []string{"par", "workers"} {
		for _, n := range []int{-1, -7, -1 << 30} {
			got, err := Resolve(name, n)
			if err == nil {
				t.Errorf("Resolve(%q, %d): want error, got %d", name, n, got)
				continue
			}
			if got != 0 {
				t.Errorf("Resolve(%q, %d) = %d with error, want 0", name, n, got)
			}
			if want := fmt.Sprintf("-%s %d", name, n); !strings.Contains(err.Error(), want) {
				t.Errorf("Resolve(%q, %d) error %q does not contain %q", name, n, err, want)
			}
			if !strings.Contains(err.Error(), "GOMAXPROCS") {
				t.Errorf("Resolve(%q, %d) error %q does not restate the 0 = GOMAXPROCS convention", name, n, err)
			}
		}
	}
}

// TestShardFlagsAreUnknown pins the removal of the intra-cell width
// flags: a flag set built from this package rejects -shards and
// -exec-shards as undefined instead of accepting a value nothing reads.
func TestShardFlagsAreUnknown(t *testing.T) {
	for _, name := range []string{"shards", "exec-shards"} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Par(fs)
		err := fs.Parse([]string{"-" + name, "2"})
		if err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
			t.Errorf("parsing -%s: err = %v, want flag provided but not defined", name, err)
		}
	}
}
