package core

// RoundRobinCycles reports how many of the run's cycles the general
// round-robin dispatched; the rest ran inside quanta.
func (e *Engine) RoundRobinCycles() int64 { return e.cycle - e.quantumCycles }
