package cache

import "strconv"

// SimVersion identifies the simulator's observable behaviour: the
// Stats a Config produces over a given reference stream. A stored
// simulation result (internal/tracestore result objects, written by
// the experiments grid) is valid exactly as long as replaying the same
// trace through the same Config would reproduce it, so this string is
// stamped into every result object: bump it whenever a change to a
// protocol's rules, the replacement policy, the traffic accounting or
// the meaning of a Config or Stats field moves any Stats value, and
// every stale result is ignored and recomputed. TestSimVersionGolden
// fails when the simulators' output moves while this string does not.
const SimVersion = "sim1"

// Key renders the configuration in the canonical form stored
// simulation results are keyed by. It covers every Config field
// (TestConfigKeyCoversEveryField): two configurations that could
// simulate differently never share a key. It is built with strconv,
// not fmt: a warm run keys every stored configuration.
func (c Config) Key() string {
	b := make([]byte, 0, 64)
	b = append(b, "pes="...)
	b = strconv.AppendInt(b, int64(c.PEs), 10)
	b = append(b, " size="...)
	b = strconv.AppendInt(b, int64(c.SizeWords), 10)
	b = append(b, " line="...)
	b = strconv.AppendInt(b, int64(c.LineWords), 10)
	b = append(b, " proto="...)
	b = append(b, c.Protocol.String()...)
	b = append(b, " walloc="...)
	b = strconv.AppendBool(b, c.WriteAllocate)
	b = append(b, " assoc="...)
	b = strconv.AppendInt(b, int64(c.Assoc), 10)
	return string(b)
}
