// Package core implements the RAP-WAM parallel abstract machine — the
// paper's primary contribution. A machine is a collection of workers
// (each a full WAM with its own Stack Set: heap, local and control
// stacks, trail, PDL, goal stack and message buffer) cooperating on one
// program through a single flat shared memory.
//
// Execution is a deterministic instruction-interleaved simulation: on
// every cycle each worker executes one instruction (or one scheduler
// action) in PE order. This reproduces the paper's software-emulation
// methodology (its measurements also came from an instrumented emulator,
// not hardware) while making every run bit-reproducible. The default
// dispatcher elides provably inert steps of that schedule — quanta that
// step only the running workers, skipped no-op polls — and is
// observationally identical to the reference round-robin
// (Config.ReferenceDispatch, TestDispatcherParity, FuzzDispatcherParity
// and the golden trace digests in internal/bench all pin this).
//
// Instrumentation notes:
//   - Every data reference goes through mem.Memory and is classified
//     with the paper's Table 1 object types.
//   - Lock acquisition/release around goal-stack, parcall-counter and
//     message operations are modelled as explicit reads/writes of the
//     lock word, so locked objects cost what they cost in the paper.
//   - Busy-waiting (a parent polling its parcall frame's completion
//     counter, an idle worker between steal attempts) generates no
//     memory references: a spinning PE hits its own cache and adds no
//     bus traffic. Steal probes, however, read the victim's goal-stack
//     top word and are traced.
package core

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Config parameterizes a run.
type Config struct {
	// PEs is the number of workers (processing elements), at most
	// trace.MaxPEs.
	PEs int
	// Layout overrides the per-worker memory layout; zero value uses
	// mem.DefaultLayout sized to PEs.
	Layout mem.Layout
	// Sink receives the memory-reference trace (nil = discard).
	Sink trace.Sink
	// MaxCycles aborts runaway executions (0 = default 2e9).
	MaxCycles int64
	// Cancel, when non-nil, aborts the run once the channel is closed
	// (pass ctx.Done()): Run returns context.Canceled within
	// cancelMask+1 cycles. A nil channel costs one predictable branch
	// per cycle; the trace emitted before the abort is a prefix of the
	// uncancelled trace.
	Cancel <-chan struct{}
	// StealInterval is the number of idle cycles between steal probes
	// (default 4).
	StealInterval int
	// ExecShards sets the host-goroutine budget for the sharded
	// execution mode: when > 1 (and PEs > 1, and ReferenceDispatch is
	// off), stretches where several simulated PEs run straight-line
	// code are executed speculatively in parallel — one goroutine per
	// host shard, each driving a subset of the runnable PEs — and the
	// per-PE reference batches are merged back in the reference
	// round-robin's canonical (cycle, PE) order, so the emitted trace
	// and statistics are byte- and value-identical to runMulti's (the
	// golden digests pin this at several shard counts with no
	// EmulatorVersion bump). Soundness rests on the machine's own
	// independence model: goals of a parallel conjunction never share
	// unbound variables (what CGE conditions guarantee), hence
	// concurrently speculating PEs touch disjoint words. Programs
	// violating that model must use ExecShards <= 1 (the default) or
	// ReferenceDispatch. 0 or 1 disables sharded execution.
	ExecShards int
	// ReferenceDispatch forces the plain one-instruction-per-tick
	// round-robin scheduler with every poll and steal sweep executed
	// for real (no quantum dispatch, no inert-poll elision). The
	// optimized dispatcher is trace- and stats-identical to it by
	// construction; this knob exists so parity tests can prove that
	// against the genuinely unoptimized baseline (and as a debugging
	// fallback).
	ReferenceDispatch bool
}

// WorkerState describes what a worker is doing on a given cycle.
type WorkerState uint8

const (
	// StateRun is productive execution ("work" in the paper's Figure 2).
	StateRun WorkerState = iota
	// StateWait is a parent spinning on a parcall completion counter.
	StateWait
	// StateIdle is a worker with no goal to execute.
	StateIdle
	// StateHalt means the engine stopped this worker.
	StateHalt
)

var stateNames = [...]string{"run", "wait", "idle", "halt"}

// String returns the state name.
func (s WorkerState) String() string { return stateNames[s] }

// Stats aggregates the run's instrumentation, the data behind the
// paper's Table 2 and Figure 2.
type Stats struct {
	// Cycles is the total simulation length.
	Cycles int64
	// Instructions executed per worker (scheduler actions excluded).
	Instructions []int64
	// WorkRefs / WaitCycles / IdleCycles per worker.
	WorkRefs   []int64
	RunCycles  []int64
	WaitCycles []int64
	IdleCycles []int64
	// Inferences counts procedure invocations (call/execute and
	// parallel goal starts) — the "logical inference" unit of the
	// paper's MLIPS arithmetic.
	Inferences int64
	// Parcalls is the number of parcall frames allocated.
	Parcalls int64
	// GoalsParallel is the number of goals scheduled through the
	// parallel mechanism (all slots of all parcall frames) — the
	// paper's Table 2 "Goals actually in //".
	GoalsParallel int64
	// GoalsStolen is the subset executed by a worker other than the
	// frame owner.
	GoalsStolen int64
	// StealProbes counts steal attempts (hits + misses).
	StealProbes int64
	// Kills counts kill messages delivered.
	Kills int64
	// CheckGroundFail / CheckIndepFail count CGE condition failures
	// (goals that fell back to sequential execution).
	CheckFails int64
	// MaxHeap / MaxLocal / MaxControl / MaxTrail are high-water marks
	// (words) across workers, for storage-efficiency reporting.
	MaxHeap, MaxLocal, MaxControl, MaxTrail int
}

// TotalInstructions sums instruction counts over workers.
func (s Stats) TotalInstructions() int64 {
	var n int64
	for _, v := range s.Instructions {
		n += v
	}
	return n
}

// TotalWorkRefs sums work references over workers.
func (s Stats) TotalWorkRefs() int64 {
	var n int64
	for _, v := range s.WorkRefs {
		n += v
	}
	return n
}

// Result is the outcome of a run.
type Result struct {
	// Success reports whether the query succeeded.
	Success bool
	// Bindings maps query variable names to rendered terms.
	Bindings map[string]string
	// Output is everything written by write/1 and nl/0.
	Output string
	// Stats is the instrumentation summary.
	Stats Stats
	// Refs is the memory reference counter (by object type).
	Refs *trace.Counter
}

// Engine executes a compiled program on P workers.
type Engine struct {
	cfg     Config
	code    *isa.Code
	mem     *mem.Memory
	workers []*worker
	cycle   int64
	halted  bool
	success bool
	answerE int // query environment address at OpStop
	out     bytes.Buffer

	// nRun counts workers in StateRun, maintained by worker.setState;
	// the quantum dispatcher's eligibility check starts with it.
	nRun int
	// runners holds the running workers in PE order while a quantum or
	// an epoch runs, filled by quantumEligible (capacity PEs: collecting
	// them never allocates).
	runners []*worker
	// quantumCycles counts the cycles dispatched inside quanta; the rest
	// went through the round-robin (tests read the split).
	quantumCycles int64
	// ineligibleSeq is the schedSeq at which quantumEligible last
	// answered false (see there).
	ineligibleSeq uint64
	// schedSeq increments on every action another worker could observe
	// at its next scheduler step: a goal pushed to or popped from a
	// goal stack, a parcall frame's pending/status words written, a
	// message (kill flag) sent, a worker changing state, the halt.
	// Three uses, all exactness-preserving: the quantum dispatcher
	// breaks its straight-line loop when the sequence moves (so every
	// worker observes the event on the cycle the reference scheduler
	// would deliver it); a failed eligibility check holds while it
	// stands still; and inert waiters and idle workers skip their no-op
	// polls/steal probes while it is unchanged since the poll that
	// proved them inert.
	schedSeq uint64
	// elide enables the inert-poll/idle-sweep elision in tick; it is
	// off under ReferenceDispatch so the reference scheduler stays the
	// plain per-tick baseline the optimizations are verified against.
	elide bool

	parcalls      int64
	goalsParallel int64
	goalsStolen   int64
	stealProbes   int64
	kills         int64

	// Sharded execution state (Config.ExecShards > 1; see sharded.go).
	// execShards is the effective host-worker budget (0 = mode off);
	// shards holds one reusable speculation context per PE; epochHold
	// forces serial cycles after an epoch that made no parallel
	// progress or was discarded on a cross-shard conflict; specMark is
	// the per-word mark array of the commit-time footprint check; and
	// scratch absorbs the discarded emissions of snapshot replays.
	execShards     int
	shards         []shardCtx
	parts          []*shardCtx
	epochHold      int
	conflictStreak int
	specMark       []uint8
	scratch        mem.ShardStage
}

// New builds an engine for the given code. PEs beyond trace.MaxPEs are
// rejected: the reference counter, the codec tooling and the cache
// simulators all size per-PE state to that bound (and would otherwise
// silently drop the excess PEs' counts).
func New(code *isa.Code, cfg Config) (*Engine, error) {
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("core: PEs = %d, need >= 1", cfg.PEs)
	}
	if cfg.PEs > trace.MaxPEs {
		return nil, fmt.Errorf("core: PEs = %d exceeds the %d-PE limit", cfg.PEs, trace.MaxPEs)
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 2e9
	}
	if cfg.StealInterval <= 0 {
		cfg.StealInterval = 4
	}
	layout := cfg.Layout
	if layout.Workers == 0 {
		layout = mem.DefaultLayout(cfg.PEs)
	}
	layout.Workers = cfg.PEs
	m, err := mem.NewMemory(layout, cfg.Sink)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{cfg: cfg, code: code, mem: m, elide: !cfg.ReferenceDispatch,
		runners: make([]*worker, 0, cfg.PEs), ineligibleSeq: ^uint64(0)}
	for pe := 0; pe < cfg.PEs; pe++ {
		e.workers = append(e.workers, newWorker(e, pe))
	}
	// Sharded execution needs several PEs to overlap and is pointless
	// (and undefined) under the reference scheduler.
	if cfg.ExecShards > 1 && cfg.PEs > 1 && !cfg.ReferenceDispatch {
		e.execShards = cfg.ExecShards
		if e.execShards > cfg.PEs {
			e.execShards = cfg.PEs
		}
		e.shards = make([]shardCtx, cfg.PEs)
	}
	return e, nil
}

// Memory exposes the engine's shared memory (tests, answer extraction).
func (e *Engine) Memory() *mem.Memory { return e.mem }

// Close gives the engine's address space back to the operating system
// at once (see mem.Memory.Release); without it the space stays mapped
// until a cleanup reclaims it, some collector cycles after the engine
// becomes unreachable. The engine must not be used after Close; calling
// Close more than once is harmless.
func (e *Engine) Close() { e.mem.Release() }

// Run executes the query to the first solution (or failure).
func (e *Engine) Run() (res *Result, err error) {
	w0 := e.workers[0]
	w0.pc = e.code.QueryEntry
	w0.cp = cpQueryDone
	w0.setState(StateRun)

	// Machine errors (overflows, bad code addresses) are raised as
	// panics carrying execution context and returned as errors here —
	// one recover per run instead of a per-instruction defer on the hot
	// path. Anything else is a bug in the emulator and keeps
	// propagating.
	defer func() {
		if r := recover(); r != nil {
			me, ok := r.(machineError)
			if !ok {
				panic(r)
			}
			res, err = nil, fmt.Errorf("cycle %d pc %d: %s", e.cycle, me.pc, me.msg)
		}
	}()

	switch {
	case e.cfg.ReferenceDispatch:
		err = e.runReference()
	case e.execShards > 1:
		err = e.runSharded()
	default:
		err = e.runMulti()
	}
	e.mem.Flush() // deliver staged references before anyone reads results
	if err != nil {
		return nil, err
	}

	res = &Result{
		Success: e.success,
		Output:  e.out.String(),
		Refs:    e.mem.Counter(),
	}
	res.Stats = e.stats()
	if e.success {
		res.Bindings = e.extractAnswers()
	}
	return res, nil
}

// errRunaway formats the MaxCycles abort.
func (e *Engine) errRunaway() error {
	return fmt.Errorf("core: exceeded %d cycles (livelock or runaway program)", e.cfg.MaxCycles)
}

// cancelMask throttles cancellation polls: the Cancel channel is
// checked once every cancelMask+1 cycles, so the per-cycle cost in the
// straight-line dispatch loops is one predictable nil-check branch.
const cancelMask = 1<<12 - 1

// canceled polls the Cancel channel without blocking.
func canceled(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// runReference is the one-instruction-per-tick round-robin scheduler:
// on every cycle each worker advances one step in PE order. It is the
// semantic definition of the machine's interleaving; runMulti is an
// optimization proven trace- and stats-identical to it
// (TestDispatcherParity, FuzzDispatcherParity, TestGoldenTraceParity).
func (e *Engine) runReference() error {
	stop := e.cfg.Cancel
	for !e.halted {
		if e.cycle >= e.cfg.MaxCycles {
			return e.errRunaway()
		}
		if stop != nil && e.cycle&cancelMask == 0 && canceled(stop) {
			return context.Canceled
		}
		e.cycle++
		for _, w := range e.workers {
			if e.halted {
				break
			}
			w.tick()
		}
	}
	return nil
}

// runMulti is the default dispatcher, at every PE count. It runs the
// reference round-robin, except that whenever every worker that is not
// running is provably inert (quantumEligible), the runners execute a
// quantum: they alone step, in PE order, and the inert workers' books
// are settled in closed form when it ends.
func (e *Engine) runMulti() error {
	maxC := e.cfg.MaxCycles
	stop := e.cfg.Cancel
	for !e.halted {
		if e.cycle >= maxC {
			return e.errRunaway()
		}
		if stop != nil && e.cycle&cancelMask == 0 && canceled(stop) {
			return context.Canceled
		}
		if e.quantumElides() && e.quantumEligible() {
			if err := e.quantum(); err != nil {
				return err
			}
			continue
		}
		e.roundRobin()
	}
	return nil
}

// quantumElides reports whether a quantum would skip anything: a worker
// that is not running or, with a sole runner, the round-robin's
// per-cycle dispatch (at one PE that is all there is to skip). When
// several workers run and none waits or idles, the round-robin is the
// quantum, so none is entered.
func (e *Engine) quantumElides() bool {
	return e.nRun == 1 || e.nRun > 0 && e.nRun < len(e.workers)
}

// roundRobin runs one cycle of the reference interleaving. The common
// ticks are dispatched inline — a running worker with no kill pending
// executes one instruction, and an inert waiter advances only its
// counter; everything else takes the full tick switch.
func (e *Engine) roundRobin() {
	e.cycle++
	for _, w := range e.workers {
		if e.halted {
			return
		}
		switch {
		case w.state == StateRun && !w.killFlag:
			w.runCycles++
			w.run(1)
		case w.state == StateWait && !w.killFlag && w.inertWait && w.waitSeq == e.schedSeq:
			w.waitCycles++
		default:
			w.tick()
		}
	}
}

// quantumEligible reports whether every worker that is not running
// would spend its next ticks on no-ops, and so may be elided until a
// runner does something another worker could observe; if so it collects
// the runners, in PE order, into e.runners. A worker is inert when no
// kill flag is pending and
//   - it waits on a frame that is still running with goals pending and
//     its own goal stack is empty: a waiter polls nothing but its frame
//     and its own stack;
//   - it is idle and every goal stack is empty: only idle workers
//     steal, so a non-empty stack matters only while one is idle.
//
// Runners need no kill flag either, so that a quantum may step them
// without the tick's kill check. The quantum and the sharded mode's
// epochs (runSharded) both start from this predicate.
//
// Everything the predicate reads changes only with a schedSeq bump,
// except an idle worker's tick clearing a stray kill flag, which can
// only make it true; so a false answer holds until the sequence moves
// and is not recomputed before then.
func (e *Engine) quantumEligible() bool {
	if e.schedSeq == e.ineligibleSeq {
		return false
	}
	if e.collectRunners() {
		return true
	}
	e.ineligibleSeq = e.schedSeq
	return false
}

// collectRunners evaluates quantumEligible's rule.
func (e *Engine) collectRunners() bool {
	rs := e.runners[:0]
	anyIdle := false
	for _, w := range e.workers {
		if w.killFlag {
			return false
		}
		switch w.state {
		case StateRun:
			rs = append(rs, w)
		case StateWait:
			if int(e.mem.Peek(w.pf+pfStatus).Int()) != pfRunning ||
				e.mem.Peek(w.pf+pfPending).Int() <= 0 ||
				int(e.mem.Peek(w.goalR.Base+gsTop).Int()) > gsBase {
				return false
			}
		case StateIdle:
			anyIdle = true
		default: // StateHalt only co-occurs with e.halted
			return false
		}
	}
	if anyIdle {
		for _, w := range e.workers {
			if int(e.mem.Peek(w.goalR.Base+gsTop).Int()) > gsBase {
				return false
			}
		}
	}
	e.runners = rs
	return true
}

// quantum steps the runners quantumEligible collected, one step each
// per cycle in PE order, until one of them does something another
// worker could observe. Every such action bumps the scheduler sequence
// (a goal pushed or popped, a frame's counters written, a message sent,
// a state change, the halt), so one compare after each step is the
// whole test, and worker.run makes it and reports the outcome. Until
// then every other worker's tick is a no-op and none is taken; settle
// accounts for them afterwards and completes the cycle in progress
// exactly as the reference scheduler would. On entry cycle e.cycle has
// fully completed.
//
//rapwam:hotpath
func (e *Engine) quantum() error {
	rs := e.runners
	start := e.cycle
	maxC := e.cfg.MaxCycles
	stop := e.cfg.Cancel
	for {
		if e.cycle >= maxC {
			e.settle(start, nil)
			return e.errRunaway()
		}
		if stop != nil && e.cycle&cancelMask == 0 && canceled(stop) {
			e.settle(start, nil)
			return context.Canceled
		}
		// Step straight to the next point where the checks above could
		// fire: the cycle limit or the next cancellation poll. A sole
		// runner — every instruction at one PE — runs the whole stretch
		// in its own instruction loop, which advances the cycle.
		lim := min(maxC, (e.cycle|cancelMask)+1)
		if len(rs) == 1 {
			r := rs[0]
			n := lim - e.cycle
			e.cycle++
			if r.run(n) {
				e.settle(start, r)
				return nil
			}
			continue
		}
		for e.cycle < lim {
			e.cycle++
			for _, r := range rs {
				if r.run(1) {
					e.settle(start, r)
					return nil
				}
			}
		}
	}
}

// settle closes a quantum that began after cycle start and stopped in
// cycle e.cycle = M, in the step of runner r (nil: at the end of cycle
// M, on a runaway or cancel). Runners before r have stepped in M
// already. The elided workers before r are accounted through M, since
// their ticks in M came before r's event; those after r through M-1.
// Then every worker after r, runner or not, ticks for real in M, in PE
// order, so it observes r's event — a kill just sent to a later runner
// included — on the cycle the reference scheduler delivers it. After a
// halt nothing ticks.
func (e *Engine) settle(start int64, r *worker) {
	n := e.cycle - start
	e.quantumCycles += n
	for _, w := range e.workers {
		switch {
		case w == r:
			w.runCycles += n
		case r == nil || w.pe < r.pe:
			w.accountInert(n)
		default:
			w.accountInert(n - 1)
			if !e.halted {
				w.tick()
			}
		}
	}
}

func (e *Engine) stats() Stats {
	s := Stats{
		Cycles:        e.cycle,
		Parcalls:      e.parcalls,
		GoalsParallel: e.goalsParallel,
		GoalsStolen:   e.goalsStolen,
		StealProbes:   e.stealProbes,
		Kills:         e.kills,
	}
	c := e.mem.Counter() // complete: Run flushes before building stats
	for _, w := range e.workers {
		s.Inferences += w.inferences
		s.CheckFails += w.checkFails
		s.Instructions = append(s.Instructions, w.instrs)
		s.WorkRefs = append(s.WorkRefs, c.ByPE[w.pe])
		s.RunCycles = append(s.RunCycles, w.runCycles)
		s.WaitCycles = append(s.WaitCycles, w.waitCycles)
		s.IdleCycles = append(s.IdleCycles, w.idleCycles)
		if hw := w.h - w.heap.Base; hw > s.MaxHeap {
			s.MaxHeap = hw
		}
		if hw := w.localHigh - w.local.Base; hw > s.MaxLocal {
			s.MaxLocal = hw
		}
		if hw := w.ctlHigh - w.ctl.Base; hw > s.MaxControl {
			s.MaxControl = hw
		}
		if w.trHigh > s.MaxTrail {
			s.MaxTrail = w.trHigh
		}
	}
	return s
}

// halt stops the machine: e.halted is the single stop signal every
// dispatch loop checks before ticking a worker, so no worker advances
// after it is set. Worker states are deliberately left as they were —
// the quantum dispatcher's settlement accounts each inert worker's
// elided cycles by its state, and flipping everyone to StateHalt here
// would erase what they were doing when the machine stopped.
func (e *Engine) halt(success bool, answerE int) {
	e.halted = true
	e.schedSeq++ // ends a quantum in progress
	e.success = success
	e.answerE = answerE
}

// extractAnswers renders the query variables' bindings (untraced; this
// is host-side answer reporting, not machine work).
func (e *Engine) extractAnswers() map[string]string {
	out := make(map[string]string, len(e.code.QueryVars))
	for i, name := range e.code.QueryVars {
		addr := e.answerE + envHdr + i
		out[name] = e.renderTerm(e.mem.Peek(addr), 0)
	}
	return out
}

// renderTerm formats a term by following bindings with untraced peeks.
func (e *Engine) renderTerm(w mem.Word, depth int) string {
	const maxDepth = 200
	if depth > maxDepth {
		return "..."
	}
	w = e.peekDeref(w)
	switch w.Tag() {
	case mem.TagRef:
		return fmt.Sprintf("_G%d", w.Addr())
	case mem.TagInt:
		return fmt.Sprintf("%d", w.Int())
	case mem.TagCon:
		return e.code.Syms.AtomName(w.Index())
	case mem.TagLis:
		var b bytes.Buffer
		b.WriteByte('[')
		b.WriteString(e.renderTerm(e.mem.Peek(w.Addr()), depth+1))
		t := e.peekDeref(e.mem.Peek(w.Addr() + 1))
		for {
			if t.Tag() == mem.TagCon && t.Index() == isa.NilAtom {
				break
			}
			if t.Tag() != mem.TagLis {
				b.WriteByte('|')
				b.WriteString(e.renderTerm(t, depth+1))
				break
			}
			b.WriteByte(',')
			b.WriteString(e.renderTerm(e.mem.Peek(t.Addr()), depth+1))
			t = e.peekDeref(e.mem.Peek(t.Addr() + 1))
		}
		b.WriteByte(']')
		return b.String()
	case mem.TagStr:
		f := e.code.Syms.FunctorAt(e.mem.Peek(w.Addr()).Index())
		var b bytes.Buffer
		b.WriteString(f.Name)
		b.WriteByte('(')
		for i := 0; i < f.Arity; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e.renderTerm(e.mem.Peek(w.Addr()+1+i), depth+1))
		}
		b.WriteByte(')')
		return b.String()
	case mem.TagFun:
		return e.code.Syms.FunctorAt(w.Index()).String()
	}
	return w.String()
}

// peekDeref follows reference chains without instrumentation.
func (e *Engine) peekDeref(w mem.Word) mem.Word {
	for w.Tag() == mem.TagRef {
		next := e.mem.Peek(w.Addr())
		if next == w {
			return w
		}
		w = next
	}
	return w
}
