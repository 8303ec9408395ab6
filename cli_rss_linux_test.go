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

// TestCLITracePeakRSS guards rapwam -trace's streaming: the engine
// feeds the encoder as it runs, so writing the 4.0 M references of
// qsort-6500 at 8 PEs (an 11 MB file) peaks at 14 MB RSS; capturing the
// trace first and encoding it after peaked at 69 MB.
func TestCLITracePeakRSS(t *testing.T) {
	cmd := exec.Command(filepath.Join(buildCLIs(t), "rapwam"), "-bench", "qsort-6500", "-p", "8",
		"-trace", filepath.Join(t.TempDir(), "q.rwt2"))
	cmd.Stdout = io.Discard
	if err := cmd.Run(); err != nil {
		t.Fatalf("rapwam -trace: %v", err)
	}
	const limitMB = 35
	if rss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss / 1024; rss >= limitMB {
		t.Errorf("rapwam -bench qsort-6500 -p 8 -trace peaked at %d MB RSS, want below %d", rss, limitMB)
	}
}
