package bench

import (
	"context"
	"sync"
	"testing"

	"repro/internal/storage/blob"
	"repro/internal/tracestore"
)

// TestLockCellSerializesOneCell: holders of one (store, key) exclude
// each other, other cells and other stores are independent, and a lock
// nobody holds or awaits leaves nothing behind on the Runner.
func TestLockCellSerializesOneCell(t *testing.T) {
	r := new(Runner)
	s, other := tracestore.NewOn(blob.NewMem()), tracestore.NewOn(blob.NewMem())
	k, k2 := StoreKey("deriv", 2, false), StoreKey("deriv", 4, false)

	const holders, rounds = 8, 200
	inside := 0 // guarded by the cell lock alone: -race flags a broken one
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				unlock := r.LockCell(s, k)
				inside++
				unlock()
			}
		}()
	}
	wg.Wait()
	if inside != holders*rounds {
		t.Fatalf("%d critical sections ran, want %d", inside, holders*rounds)
	}

	// Holding one cell blocks neither another cell nor the same key in
	// another store (this would deadlock if it did).
	unlock := r.LockCell(s, k)
	r.LockCell(s, k2)()
	r.LockCell(other, k)()
	unlock()

	if n := len(r.locks); n != 0 {
		t.Fatalf("%d cell locks left on an idle Runner, want 0", n)
	}
}

// TestConcurrentUseCellCountsEveryCaller is the regression test for the
// flight waiter that returned without touching the store: the store's
// hit count depended on how many callers happened to overlap the one
// generating. Every caller of a cell now counts exactly one lookup —
// the generator's miss, everyone else's hit — however they interleave.
func TestConcurrentUseCellCountsEveryCaller(t *testing.T) {
	const callers = 8
	b := Tak()
	s := tracestore.NewOn(blob.NewMem())
	r := &Runner{Store: s}
	useAll := func() {
		t.Helper()
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = r.UseCell(context.Background(), b, 2, false, func(*tracestore.Store, tracestore.Key) error { return nil })
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	useAll()
	if st := s.Stats(); r.EngineRuns() != 1 || st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("cold cell: %d emulator runs, %d misses, %d hits; want 1, 1, %d", r.EngineRuns(), st.Misses, st.Hits, callers-1)
	}
	s.ResetStats()
	useAll()
	if st := s.Stats(); r.EngineRuns() != 1 || st.Misses != 0 || st.Hits != callers {
		t.Fatalf("stored cell: %d emulator runs, %d misses, %d hits; want 1, 0, %d", r.EngineRuns(), st.Misses, st.Hits, callers)
	}
}
