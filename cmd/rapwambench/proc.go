package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// build compiles ./cmd/<name> of this repository into the run's
// scratch directory and returns the binary's path.
func (e *env) build(name string) (string, error) {
	bin := filepath.Join(e.work, "bin", name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// childRun is a finished child process.
type childRun struct {
	wall           time.Duration
	cpu            time.Duration // user + system
	rssMB          float64       // peak resident set
	stdout, stderr []byte
	err            error
}

// runChild runs bin to completion.
func runChild(bin string, args ...string) childRun {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	r := childRun{wall: time.Since(t0), stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		r.rssMB = peakRSSMB(ps)
	}
	return r
}

// peakRSSMB is a finished process's largest resident set.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // KB on Linux
	}
	return 0
}
