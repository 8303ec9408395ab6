// Package experiments is the second globalstate-scoped fixture
// package.
package experiments

import "sync/atomic"

var parallelism atomic.Int64 // want `package-level variable parallelism \(atomic\.Int64\)`

// Parallelism reads the flagged global.
func Parallelism() int64 { return parallelism.Load() }
