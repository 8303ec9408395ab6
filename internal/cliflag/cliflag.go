// Package cliflag holds the grid worker-budget flag shared by the
// command line tools that run the experiments grid, so -par means the
// same thing — same help text, same validation, same 0 = GOMAXPROCS
// convention — in cmd/experiments, cmd/tracegen and cmd/rapwamd.
// (cmd/cachesim also has a -par, but it is a different knob — cache
// simulators per trace pass, 0 = all in one pass — and does not use
// this package.)
package cliflag

import (
	"flag"
	"fmt"
	"runtime"
)

// ParHelp is the single help string for -par.
const ParHelp = "grid worker budget: concurrent experiment cells — engine runs and trace replays (0 = GOMAXPROCS)"

// Par registers the -par flag on fs.
func Par(fs *flag.FlagSet) *int { return fs.Int("par", 0, ParHelp) }

// Resolve validates a worker-count flag value: negative values are
// rejected, 0 resolves to runtime.GOMAXPROCS(0), positive values pass
// through. name appears in the error ("par").
func Resolve(name string, n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-%s %d: worker count cannot be negative (0 = GOMAXPROCS)", name, n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}
