//go:build linux

package rapwam

import (
	"io"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestCLIExperimentsColdPeakRSS guards the engine-memory design: a
// cold, store-less `experiments -exp all` lays out 977 MB of engine
// address space over its 30 emulator runs and touches 28 MB of it.
// On lazily zero-filled pages the process peaks at 42–46 MB; with the
// address spaces in the Go heap it peaked at 145–193 MB. The build tag
// is for Rusage.Maxrss (KiB on linux); the child is built without
// -race whatever this test binary is built with.
func TestCLIExperimentsColdPeakRSS(t *testing.T) {
	cmd := exec.Command(filepath.Join(buildCLIs(t), "experiments"), "-exp", "all")
	cmd.Stdout = io.Discard
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments -exp all: %v", err)
	}
	const limitMB = 90
	if rss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss / 1024; rss >= limitMB {
		t.Errorf("cold experiments -exp all peaked at %d MB RSS, want below %d", rss, limitMB)
	}
}
