package bench

import (
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/tracestore"
)

// TestLockCellSerializesOneCell: holders of one (store, key) exclude
// each other, other cells and other stores are independent, and a lock
// nobody holds or awaits leaves nothing behind on the Runner.
func TestLockCellSerializesOneCell(t *testing.T) {
	r := new(Runner)
	s, other := tracestore.NewOn(storage.NewMem()), tracestore.NewOn(storage.NewMem())
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
