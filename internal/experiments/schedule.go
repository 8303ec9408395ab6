package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bench"
)

// Job is one prepared registry entry: its Name, After and bound Run.
type Job struct {
	Name  string
	After []string
	Run   Run
}

// Schedule runs jobs concurrently on r, each once the earlier jobs its
// After names have finished (names of no earlier job impose nothing),
// and returns at once; wait(i) blocks until job i has finished and
// returns its result. A job whose predecessor failed does not run: its
// error wraps the predecessor's. A job that panics fails with the panic
// as its error. All jobs draw on r's one cell budget, so one job's last
// cells overlap the next one's instead of idling.
func Schedule(ctx context.Context, r *bench.Runner, jobs []Job) (wait func(i int) (Result, error)) {
	done := make([]chan struct{}, len(jobs))
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, job := range jobs {
		done[i] = make(chan struct{}) // before any later job can wait on it
		go func() {
			defer close(done[i])
			for j := range jobs[:i] {
				if !slices.Contains(job.After, jobs[j].Name) {
					continue
				}
				<-done[j]
				if errs[j] != nil {
					errs[i] = fmt.Errorf("skipped: %s failed: %w", jobs[j].Name, errs[j])
					return
				}
			}
			results[i], errs[i] = runJob(ctx, r, job)
		}()
	}
	return func(i int) (Result, error) {
		<-done[i]
		return results[i], errs[i]
	}
}

// runJob is job.Run with a panic caught as its error.
func runJob(ctx context.Context, r *bench.Runner, job Job) (res Result, err error) {
	defer catchPanic(&err)
	return job.Run(ctx, r)
}
