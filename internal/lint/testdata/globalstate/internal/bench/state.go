// Package bench is a globalstate-scoped fixture: its import path ends
// in internal/bench, so every package-level variable is a finding
// unless annotated.
package bench

import (
	"errors"
	"sync"
	"sync/atomic"
)

// The shapes the real packages once held their state in: all flagged.
var engineRuns atomic.Int64 // want `package-level variable engineRuns \(atomic\.Int64\)`

var traces sync.Map // want `package-level variable traces \(sync\.Map\)`

var mu sync.Mutex // want `package-level variable mu \(sync\.Mutex\)`

var store *Store // want `package-level variable store \(\*bench\.Store\)`

var memo = map[string]int{} // want `package-level variable memo \(map\[string\]int\)`

var onProgress func(msg string) // want `package-level variable onProgress \(func\(msg string\)\)`

var (
	sizes   = []int{64, 128} // want `package-level variable sizes \(\[\]int\)`
	workers int              // want `package-level variable workers \(int\)`
	a, b    = "x", [2]bool{} // want `package-level variable a \(string\)` `package-level variable b \(\[2\]bool\)`
)

// Store is some shared resource.
type Store struct{ n int }

// ErrNoStore is a sentinel: written once at initialization and only
// ever compared against, which the annotation records.
//
//rapwam:allow globalstate sentinel error value, never reassigned
var ErrNoStore = errors.New("no store")

// A compile-time interface assertion holds no state.
var _ error = (*storeError)(nil)

type storeError struct{}

func (*storeError) Error() string { return "store" }

// Constants are how read-only scalars are spelled: not variables.
const healAttempts = 3

// Runner is where the state belongs: fields, not package scope. Local
// variables are no concern of this rule either.
type Runner struct {
	Store      *Store
	engineRuns atomic.Int64
	traces     sync.Map
}

// Run touches only its receiver and locals.
func (r *Runner) Run() int64 {
	var local sync.Mutex
	local.Lock()
	defer local.Unlock()
	return r.engineRuns.Add(healAttempts)
}

// Use keeps the flagged variables referenced.
func Use() {
	mu.Lock()
	defer mu.Unlock()
	engineRuns.Add(int64(workers + len(sizes) + len(memo) + len(a) + len(b)))
	traces.Range(func(_, _ any) bool { return store != nil && onProgress != nil })
}
