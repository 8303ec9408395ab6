package cache

import "fmt"

// SimVersion identifies the simulator's observable behaviour: the
// Stats a Config produces over a given reference stream. A stored
// simulation result (internal/tracestore result objects, written by
// the experiments grid) is valid exactly as long as replaying the same
// trace through the same Config would reproduce it, so this string is
// stamped into every result object: bump it whenever a change to a
// protocol kernel, the replacement policy, the traffic accounting or
// the meaning of a Config or Stats field moves any Stats value, and
// every stale result is ignored and recomputed. TestSimVersionGolden
// fails when the kernels' output moves while this string does not.
const SimVersion = "sim1"

// Key renders the configuration in the canonical form stored
// simulation results are keyed by. It covers every Config field
// (TestConfigKeyCoversEveryField): two configurations that could
// simulate differently never share a key.
func (c Config) Key() string {
	return fmt.Sprintf("pes=%d size=%d line=%d proto=%s walloc=%t assoc=%d",
		c.PEs, c.SizeWords, c.LineWords, c.Protocol, c.WriteAllocate, c.Assoc)
}
