package core

// Sharded multi-PE execution (Config.ExecShards > 1): the emulation
// loop's answer to the multi-PE scaling inversion. runMulti interleaves
// every simulated PE on one goroutine, so adding PEs makes generation
// slower; but between observable scheduler events the PEs' instruction
// streams are mostly independent — in RWT2 the per-PE reference streams
// are already encoded independently, and only the events that bump
// Engine.schedSeq (goal pushes/pops, parcall pending/status writes,
// messages, state changes, halts) need a canonical total order.
//
// The mode exploits that in epochs. When every worker is provably
// quiescent-or-running (quantumEligible, the quantum dispatcher's own
// inertness predicate), each running PE speculates ahead on a host
// goroutine: pure straight-line steps only, stopping before anything
// observable — a statically risky opcode (OpStop, OpPFrame,
// OpPushGoal, write/1, nl/0), a control sentinel (goal completion), or
// a dynamic guard (failing out of a goal). The per-PE references land
// in private mem.ShardStage buffers with per-cycle boundaries, and
// every speculated memory write is value-logged (mem.UndoEntry) so the
// epoch is exactly reversible.
//
// After the join the epoch is validated before anything commits. The
// AND-parallel independence conditions (CGE ground/indep checks) make
// cross-PE overlap rare, but not impossible inside one epoch: a stolen
// goal legitimately binds its result variable in the parent's
// environment, and if the parent's own goal touches that cell in the
// same epoch, the phase's real-time interleaving is not the canonical
// cycle order. So commit is gated on a footprint check: every address
// one shard wrote, held against every address any other shard touched
// (the write logs give the write sets, the reference buffers the
// touched sets, and a flat per-word mark array makes the scan one pass
// over each). If the footprints are disjoint, the interleaving was
// immaterial and the epoch's prefix is canonical by construction; on
// any overlap the whole epoch is discarded — every write rolled back to
// its pre-epoch word (the atomic-swap undo log recovers even a multi-
// writer word's base value), every register file restored from the
// epoch-base snapshot — and the machine re-runs the span serially,
// which is always canonical.
//
// A validated epoch commits the prefix every runner completed — cycles
// base+1..M, M the minimum stop cycle — merging the per-PE buffers into
// the shared staging buffer in the reference round-robin's canonical
// (cycle, PE) order, and settles inert workers' elided bookkeeping in
// closed form (worker.accountInert), exactly as a quantum settles.
// Speculation beyond M is rolled back (undo log + snapshot replay up to
// M), not kept: a runner left "ahead" of the serial loop could race
// with the serial steps other workers take while its pre-executed
// cycles drain — a cross-shard conflict the epoch-local footprint check
// cannot see — so no shard outlives its epoch. The trace is therefore
// byte-identical to runMulti's: same references, same order, same
// flush-independence, which the golden digest suite pins at several
// shard counts with no EmulatorVersion bump.
//
// Speculation can also abort mid-step (a dynamic guard panic, a machine
// fault on a conflict-poisoned path): the context is marked needsReplay
// — its completed cycles stay valid, the partial step's references are
// discarded, and the registers are rebuilt by undo-log rollback plus
// snapshot replay. The replay re-executes pure steps on restored base
// memory, so it repeats the speculation's own committed cycles exactly.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/mem"
)

// errSpecUnsafe is the panic value of the dynamic speculation guards
// (fail/noteSchedEvent/setState reached under worker.spec); specRun's
// recover turns any panic into a rollback, so the value only documents
// the site.
type specUnsafe struct{}

var errSpecUnsafe = specUnsafe{}

// epochCycles bounds one epoch's speculation depth. Longer epochs
// amortize the per-epoch costs (snapshot, goroutine fan-out, merge)
// over more parallel work; shorter ones bound the work a conflict
// discard or an abort replay throws away. 64K cycles ≈ one
// staging-buffer's worth of references per PE.
const epochCycles = 1 << 16

// epochIdleHold is the serial-cycle pause after an epoch that made no
// parallel progress (every runner stopped on its very next step);
// conflictHold is the much longer pause after a discarded epoch —
// conflicts cluster (a parent and a stolen goal sharing a result
// variable stay in conflict for the goal's whole span), so retrying
// immediately would discard epoch after epoch.
const (
	epochIdleHold = 64
	conflictHold  = 4096
)

// riskyOps marks opcodes whose execution can perform an observable
// scheduler action or touch engine-shared state: OpStop halts,
// OpPFrame/OpPushGoal create observable work, and OpBuiltin covers
// write/1 and nl/0's shared output buffer (specRun screens the builtin
// number so every other builtin still speculates). Everything else is
// pure per-PE execution: it reads and writes only through mem.Memory
// and this worker's registers.
var riskyOps [256]bool

func init() {
	riskyOps[isa.OpStop] = true
	riskyOps[isa.OpPFrame] = true
	riskyOps[isa.OpPushGoal] = true
	riskyOps[isa.OpBuiltin] = true
}

// shardCtx is one PE's speculation context, reused across epochs. A
// shard lives only inside runEpoch: by the time an epoch returns, every
// shard is either committed-and-repaired or rolled back.
type shardCtx struct {
	w    *worker
	snap worker // full register/state snapshot at the epoch base cycle

	// stage holds the speculated references and the write undo log;
	// cycEnd[i] is the reference-buffer length after completing cycle
	// base+1+i, so the refs of cycle c are stage.Refs[bound(c-1):bound(c)].
	stage  mem.ShardStage
	cycEnd []int32

	base int64 // last cycle completed before the epoch
	pos  int64 // last speculated cycle that completed
	// needsReplay marks registers invalid (the speculation aborted
	// mid-step); the completed cycles and their references stay valid.
	needsReplay bool
}

// bound returns the stage offset at the end of cycle c.
func (sc *shardCtx) bound(c int64) int {
	if c <= sc.base {
		return 0
	}
	return int(sc.cycEnd[c-sc.base-1])
}

// runSharded drives a multi-PE machine with speculative parallel
// epochs. Outside epochs it is the runMulti dispatcher — round-robin
// cycles and runner quanta; epochs replace spans of it wholesale and
// leave the machine exactly where the serial dispatcher would. Both
// start from one predicate, quantumEligible.
func (e *Engine) runSharded() error {
	maxC := e.cfg.MaxCycles
	stop := e.cfg.Cancel
	// Epoch commits advance e.cycle in jumps, so the round-robin's
	// "cycle is a multiple of cancelMask+1" poll condition could be
	// skipped indefinitely; poll on a threshold instead.
	nextPoll := e.cycle
	for !e.halted {
		if e.cycle >= maxC {
			return e.errRunaway()
		}
		if stop != nil && e.cycle >= nextPoll {
			nextPoll = e.cycle + cancelMask + 1
			if canceled(stop) {
				return context.Canceled
			}
		}
		if e.epochHold == 0 && e.nRun >= 2 && e.quantumEligible() {
			e.runEpoch()
			continue
		}
		if e.epochHold > 0 {
			e.epochHold--
		}
		e.roundRobin()
		if !e.halted && e.quantumElides() && e.quantumEligible() {
			if err := e.quantum(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runEpoch speculates every runner quantumEligible collected forward in
// parallel, validates the epoch's footprints, and commits the canonical
// prefix (or rolls the whole epoch back on a cross-shard conflict). On
// entry cycle e.cycle has fully completed; on return every shard is
// quiescent and the machine state is exactly the serial dispatcher's
// at e.cycle.
func (e *Engine) runEpoch() {
	base := e.cycle
	limit := base + epochCycles
	if limit > e.cfg.MaxCycles {
		limit = e.cfg.MaxCycles
	}
	parts := e.parts[:0]
	for _, w := range e.runners {
		sc := &e.shards[w.pe]
		sc.w = w
		sc.snap = *w
		sc.base, sc.pos = base, base
		sc.needsReplay = false
		e.mem.SetShard(w.pe, &sc.stage)
		parts = append(parts, sc)
	}
	e.parts = parts

	// Phase 1: each host shard drives a strided subset of the runners.
	// A shared stop watermark bounds the min-prefix waste: runners stop
	// at wildly different cycles (one hits a parcall frame immediately
	// while another has a 64K-cycle straight-line span), and everything
	// past the earliest stop is discarded at commit — so once any runner
	// stops, the rest quit speculating at its watermark instead of
	// running to the epoch limit. The watermark's real-time propagation
	// affects wall-clock only: every published value is itself bounded
	// below by the minimum deterministic stop cycle, so the commit
	// prefix M — the min over stop positions — is exactly that minimum
	// in every run, and the committed trace cannot see the timing.
	var specStop atomic.Int64
	specStop.Store(limit)
	g := e.execShards
	if g > len(parts) {
		g = len(parts)
	}
	if g <= 1 {
		for _, sc := range parts {
			e.specRun(sc, &specStop)
		}
	} else {
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := i; j < len(parts); j += g {
					e.specRun(parts[j], &specStop)
				}
			}(i)
		}
		wg.Wait()
	}
	e.mem.ClearShards()

	// Phase 2: validate. Any cross-shard footprint overlap means the
	// real-time interleaving may not match the canonical cycle order
	// anywhere in the epoch (a racing read poisons every later cycle of
	// its shard), so the epoch commits all-or-nothing. Consecutive
	// discards escalate the serial hold exponentially: a conflicting
	// phase (a parent and a stolen goal around one result variable)
	// conflicts for its whole span, and retrying inside it throws a
	// full epoch's speculation away every time.
	if len(parts) > 1 && e.epochConflicts(parts) {
		e.discardEpoch(parts)
		e.epochHold = conflictHold << min(e.conflictStreak, 4)
		e.conflictStreak++
		return
	}
	e.conflictStreak = 0

	// Phase 3: commit the prefix every runner completed, in canonical
	// (cycle, PE-ascending) order; settle the inert workers' elided
	// bookkeeping in closed form (valid because pure steps bump no
	// scheduler sequence: nothing observable happened in the span).
	// Speculation beyond M is rolled back, not released: a shard left
	// running ahead of the serial loop could conflict with the serial
	// steps other workers take in the meantime, and no epoch-local
	// check can see that.
	m := limit
	for _, sc := range parts {
		if sc.pos < m {
			m = sc.pos
		}
	}
	if m > base {
		for c := base + 1; c <= m; c++ {
			for _, sc := range parts {
				e.mem.StageMerged(sc.stage.Refs[sc.bound(c-1):sc.bound(c)])
			}
		}
		for _, w := range e.workers {
			if w.state != StateRun {
				w.accountInert(m - base)
			}
		}
		e.cycle = m
	}
	for _, sc := range parts {
		if sc.pos > m || sc.needsReplay {
			e.replayShard(sc, m)
		} else {
			e.truncateShard(sc, m)
		}
		sc.stage.Refs = sc.stage.Refs[:0]
		sc.stage.Undo = sc.stage.Undo[:0]
		sc.cycEnd = sc.cycEnd[:0]
	}
	if m == base {
		// Every runner stopped on its very next step (a risky opcode or
		// a goal-completion sentinel): run serially for a while before
		// paying the epoch setup again.
		e.epochHold = epochIdleHold
	}
}

// epochConflicts reports whether any shard's write set intersects
// another shard's touched set. It marks every written word in a flat
// per-word array (lazily sized to the address space), scans every
// reference against the marks, then unmarks — O(refs) per epoch with
// no allocation after the first. Same-shard overlap is fine (a PE may
// rewrite and re-read its own words freely); only cross-shard overlap
// invalidates the epoch.
//
//rapwam:hotpath
func (e *Engine) epochConflicts(parts []*shardCtx) bool {
	if e.specMark == nil {
		e.specMark = make([]uint8, e.mem.Size())
	}
	mark := e.specMark
	conflict := false
	for _, sc := range parts {
		tag := uint8(sc.w.pe) + 1
		for _, u := range sc.stage.Undo {
			if t := mark[u.Addr]; t != 0 && t != tag {
				conflict = true // write/write overlap
			}
			mark[u.Addr] = tag
		}
	}
	if !conflict {
	scan:
		for _, sc := range parts {
			tag := uint8(sc.w.pe) + 1
			for _, r := range sc.stage.Refs {
				if t := mark[r.Addr]; t != 0 && t != tag {
					conflict = true // read or write of another shard's write
					break scan
				}
			}
		}
	}
	for _, sc := range parts {
		for _, u := range sc.stage.Undo {
			mark[u.Addr] = 0
		}
	}
	return conflict
}

// discardEpoch rolls a conflicted epoch back completely: every
// speculated write is restored to its pre-epoch word and every
// register file to the epoch-base snapshot, so the serial loop resumes
// at cycle base as if the epoch never ran (the discarded references
// leave no trace).
//
// Restoring a word that several shards wrote takes care: the shards'
// undo logs interleave in an unknown real-time order, so no per-shard
// backward replay recovers the base value. But each log entry's Old was
// captured by the publishing atomic swap, so across all writes to one
// address the displaced values chain — every Old is some conflicting
// write's New, except the pre-epoch word (and the final write's New
// survives only in memory). The base value is therefore the multiset
// difference Olds − News; when the difference is empty the final write
// restored the base value by itself.
func (e *Engine) discardEpoch(parts []*shardCtx) {
	writerOf := make(map[uint32]uint8)
	var multi map[uint32]bool
	for _, sc := range parts {
		tag := uint8(sc.w.pe) + 1
		for _, u := range sc.stage.Undo {
			if t, ok := writerOf[u.Addr]; ok && t != tag {
				if multi == nil {
					multi = make(map[uint32]bool)
				}
				multi[u.Addr] = true
			}
			writerOf[u.Addr] = tag
		}
	}
	for _, sc := range parts {
		for i := len(sc.stage.Undo) - 1; i >= 0; i-- {
			u := sc.stage.Undo[i]
			if multi[u.Addr] {
				continue // resolved below from the displaced-value chain
			}
			e.mem.Poke(int(u.Addr), u.Old)
		}
	}
	for addr := range multi {
		counts := make(map[mem.Word]int)
		for _, sc := range parts {
			for _, u := range sc.stage.Undo {
				if u.Addr == addr {
					counts[u.Old]++
					counts[u.New]--
				}
			}
		}
		for w, n := range counts {
			if n > 0 {
				e.mem.Poke(int(addr), w)
				break
			}
		}
	}
	for _, sc := range parts {
		*sc.w = sc.snap
		sc.stage.Refs = sc.stage.Refs[:0]
		sc.stage.Undo = sc.stage.Undo[:0]
		sc.cycEnd = sc.cycEnd[:0]
		sc.needsReplay = false
	}
}

// specRun speculates one PE's pure straight-line cycles up to the
// shared stop watermark, recording per-cycle reference boundaries.
// Runs on a shard goroutine: it touches only this worker's state,
// memory words (through the race-clean shard paths — overlap with
// another shard is legal here and caught by the commit-time footprint
// check) and its own ShardStage. On exit it lowers the watermark to
// its own stop position, so sibling runners stop overshooting the
// commit prefix.
func (e *Engine) specRun(sc *shardCtx, stop *atomic.Int64) {
	w := sc.w
	w.spec = true
	defer func() {
		w.spec = false
		w.runCycles += sc.pos - sc.base
		if r := recover(); r != nil {
			// Completed cycles stay valid; the interrupted step's
			// partial effects are discarded and the registers rebuilt
			// by snapshot replay. Aborts are expected: dynamic guards
			// (failing out of a goal), and machine faults on paths
			// poisoned by a cross-shard conflict the commit check is
			// about to discard anyway.
			sc.needsReplay = true
		}
		for {
			cur := stop.Load()
			if sc.pos >= cur || stop.CompareAndSwap(cur, sc.pos) {
				break
			}
		}
	}()
	code := w.code
	for sc.pos < stop.Load() {
		pc := w.pc
		if pc < 0 {
			break // control sentinel: goal completion or query return
		}
		ins := &code[pc]
		if riskyOps[ins.Op] {
			if ins.Op != isa.OpBuiltin {
				break
			}
			if bi := isa.Builtin(ins.N); bi == isa.BiWrite || bi == isa.BiNl {
				break
			}
		}
		w.run(1)
		sc.pos++
		sc.cycEnd = append(sc.cycEnd, int32(len(sc.stage.Refs)))
	}
}

// truncateShard discards speculated references beyond cycle k: they
// never reach the trace or the counters.
func (e *Engine) truncateShard(sc *shardCtx, k int64) {
	sc.stage.Refs = sc.stage.Refs[:sc.bound(k)]
	sc.cycEnd = sc.cycEnd[:k-sc.base]
}

// replayShard rebuilds the worker's exact state at the end of cycle k
// from the epoch-base snapshot: apply the shard's whole undo log
// backward (restoring every speculated word to its pre-epoch value — a
// complete memory rollback, sound even where a trail unwind is not:
// discarded cycles can pop and re-push stack storage, overwriting
// live-at-k choice points or environments that no trail entry covers),
// restore the snapshot registers, then re-execute the pure prefix
// base+1..k with emissions routed to a scratch buffer and dropped —
// the canonical copies of those references are already in the
// canonical stream, and the re-executed writes restore the canonical
// memory at k. Deterministic: the epoch was conflict-free (a
// conflicted epoch is discarded whole, never replayed), so on restored
// base memory the replay repeats the speculation's own steps exactly.
// Kills cannot intervene: they are sent serially, and every shard is
// repaired before runEpoch returns, so the snapshot's kill flag is
// still current.
func (e *Engine) replayShard(sc *shardCtx, k int64) {
	w := sc.w
	e.mem.UndoWrites(&sc.stage)
	*w = sc.snap
	e.truncateShard(sc, k)
	if k > sc.base {
		e.mem.SetShard(w.pe, &e.scratch)
		for c := sc.base; c < k; c++ {
			w.run(1)
		}
		e.mem.ClearShards()
		e.scratch.Refs = e.scratch.Refs[:0]
		e.scratch.Undo = e.scratch.Undo[:0]
		w.runCycles += k - sc.base
	}
	sc.pos = k
	sc.needsReplay = false
}
