// Package free sits outside the globalstate scope: the same
// declarations that are findings in internal/bench pass without
// comment here (a CLI's flag variables, a service's registry table).
package free

import "sync/atomic"

var requests atomic.Int64

var registry = []string{"table1", "fig2"}

// Count uses them.
func Count() int64 { return requests.Add(int64(len(registry))) }
