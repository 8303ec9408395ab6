package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/storage/blob"
	"repro/internal/tracestore"
)

// registryJobs prepares every registry entry at default parameters, as
// `experiments -exp all` does.
func registryJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, e := range Registry() {
		_, run, err := e.Prepare(url.Values{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{Name: e.Name, After: e.After, Run: run})
	}
	return jobs
}

// scheduleText runs jobs as one schedule on r and returns what the CLI
// prints, failing the test if the schedule is not done within limit.
func scheduleText(t *testing.T, r *bench.Runner, jobs []Job, limit time.Duration) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	wait := Schedule(ctx, r, jobs)
	var out strings.Builder
	for i, job := range jobs {
		v, err := wait(i)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		out.WriteString(v.String() + "\n")
	}
	return out.String()
}

// memRunner is a Runner over a fresh in-memory store it can read the
// counters of.
func memRunner(par int) *bench.Runner {
	return &bench.Runner{Store: tracestore.NewOn(blob.NewMem()), Par: par}
}

// TestScheduleAfterNamesEarlierEntries: every After edge names an entry
// of the suite listed before the one that declares it, so the edges
// form no cycle and the CLI, printing in list order, never waits on a
// later entry.
func TestScheduleAfterNamesEarlierEntries(t *testing.T) {
	suite := Registry()
	for i, e := range suite {
		for _, name := range e.After {
			j := slices.IndexFunc(suite, func(p *Experiment) bool { return p.Name == name })
			if j < 0 || j >= i {
				t.Errorf("%s runs after %q, which is no earlier entry of the suite", e.Name, name)
			}
		}
	}
}

// TestScheduleEntryPairsCommute is why the After edges are what they
// are: any two entries with no edge between them give the same text,
// the same store counters and the same engine runs in either order, so
// running them concurrently cannot move a number. MLIPS and the bus
// study reuse Figure 4's stored results; run before Figure 4 they would
// compute them and write their cells' result objects a second time. The
// ablations' shared configurations commute with Figure 4's on every
// counter; their edge keeps which entry computes them, and so each
// entry's progress lines, from depending on timing.
func TestScheduleEntryPairsCommute(t *testing.T) {
	jobs := registryJobs(t)
	type outcome struct {
		text  map[string]string
		stats tracestore.Stats
		runs  int64
	}
	run := func(order ...Job) outcome {
		r := memRunner(0)
		o := outcome{text: make(map[string]string)}
		for _, job := range order {
			v, err := job.Run(context.Background(), r)
			if err != nil {
				t.Fatalf("%s: %v", job.Name, err)
			}
			o.text[job.Name] = v.String()
		}
		o.stats, o.runs = r.Store.Stats(), r.EngineRuns()
		return o
	}
	for i, a := range jobs {
		for _, b := range jobs[i+1:] {
			if slices.Contains(b.After, a.Name) || slices.Contains(a.After, b.Name) {
				continue
			}
			ab, ba := run(a, b), run(b, a)
			if ab.text[a.Name] != ba.text[a.Name] || ab.text[b.Name] != ba.text[b.Name] {
				t.Errorf("%s, %s: the text depends on their order", a.Name, b.Name)
			}
			if ab.stats != ba.stats || ab.runs != ba.runs {
				t.Errorf("%s then %s: %+v, %d engine runs; the other order: %+v, %d engine runs",
					a.Name, b.Name, ab.stats, ab.runs, ba.stats, ba.runs)
			}
		}
	}
}

// TestScheduleColdSuiteMatchesSequential runs the whole suite as one
// schedule over a cold store at several budgets: the text is the
// sequential run's, and so are the pinned cold counters the CLI's
// summary prints.
func TestScheduleColdSuiteMatchesSequential(t *testing.T) {
	want := expAll(t, new(bench.Runner))
	for _, par := range []int{1, 2, 8} {
		r := memRunner(par)
		if got := scheduleText(t, r, registryJobs(t), 2*time.Minute); got != want {
			t.Errorf("par %d: the schedule's text differs from the sequential run's", par)
		}
		st := r.Store.Stats()
		if st.Hits != 71 || st.Misses != 30 || st.Puts != 30 || r.EngineRuns() != 30 {
			t.Errorf("par %d: %d hits, %d misses, %d traces written, %d emulator runs; want 71, 30, 30, 30",
				par, st.Hits, st.Misses, st.Puts, r.EngineRuns())
		}
		if st.ResultHits != expAllRepeatConfigs || st.ResultMisses != expAllResults-expAllRepeatConfigs || st.ResultPuts != 26 {
			t.Errorf("par %d: %d results reused, %d simulated, %d result objects written; want %d, %d, 26",
				par, st.ResultHits, st.ResultMisses, st.ResultPuts, expAllRepeatConfigs, expAllResults-expAllRepeatConfigs)
		}
	}
}

// TestScheduleParOneFinishes: with one token for the whole suite every
// entry still finishes — no cell waits on a cell that waits for a token.
func TestScheduleParOneFinishes(t *testing.T) {
	r, jobs := &bench.Runner{Par: 1}, registryJobs(t)
	done := make(chan string, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		wait := Schedule(ctx, r, jobs)
		for i := range jobs {
			if _, err := wait(i); err != nil {
				done <- err.Error()
				return
			}
		}
		done <- ""
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("a Par 1 suite did not finish")
	}
}

// TestScheduleSkipsDependentsOfFailure: an entry after a failed one
// does not run and reports the failure; an entry after nothing runs;
// an entry that panics fails with the panic and its stack.
func TestScheduleSkipsDependentsOfFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Bool
	jobs := []Job{
		{Name: "a", Run: func(context.Context, *bench.Runner) (Result, error) { return nil, boom }},
		{Name: "b", After: []string{"a"}, Run: func(context.Context, *bench.Runner) (Result, error) {
			ran.Store(true)
			return Table1(), nil
		}},
		{Name: "c", Run: func(context.Context, *bench.Runner) (Result, error) { return Table1(), nil }},
		{Name: "d", Run: func(context.Context, *bench.Runner) (Result, error) { panic("job bug") }},
	}
	wait := Schedule(context.Background(), new(bench.Runner), jobs)
	if _, err := wait(0); !errors.Is(err, boom) {
		t.Fatalf("a: %v, want %v", err, boom)
	}
	if _, err := wait(1); !errors.Is(err, boom) || !strings.Contains(err.Error(), "a failed") {
		t.Fatalf("b: %v, want it skipped for a's failure", err)
	}
	if ran.Load() {
		t.Error("b ran after a failed")
	}
	if v, err := wait(2); err != nil || v == nil {
		t.Fatalf("c: %v, %v", v, err)
	}
	if _, err := wait(3); err == nil || !strings.Contains(err.Error(), "panic: job bug") || !strings.Contains(err.Error(), "runJob") {
		t.Fatalf("d: %v, want its panic and stack", err)
	}
}

// TestScheduleOverlapsIndependentEntries forces the overlap instead of
// observing it: a and b each wait for the other to start, which only a
// schedule that runs them concurrently lets finish. c, after a and an
// entry not in the run, starts only once a has finished.
func TestScheduleOverlapsIndependentEntries(t *testing.T) {
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	var aDone atomic.Bool
	meet := func(mine, theirs chan struct{}) error {
		close(mine)
		select {
		case <-theirs:
			return nil
		case <-time.After(time.Minute):
			return fmt.Errorf("the other entry never started")
		}
	}
	jobs := []Job{
		{Name: "a", Run: func(context.Context, *bench.Runner) (Result, error) {
			err := meet(aStarted, bStarted)
			aDone.Store(true)
			return Table1(), err
		}},
		{Name: "b", Run: func(context.Context, *bench.Runner) (Result, error) {
			return Table1(), meet(bStarted, aStarted)
		}},
		{Name: "c", After: []string{"a", "absent"}, Run: func(context.Context, *bench.Runner) (Result, error) {
			if !aDone.Load() {
				return nil, errors.New("c started before a finished")
			}
			return Table1(), nil
		}},
	}
	wait := Schedule(context.Background(), new(bench.Runner), jobs)
	for i, job := range jobs {
		if _, err := wait(i); err != nil {
			t.Errorf("%s: %v", job.Name, err)
		}
	}
}
