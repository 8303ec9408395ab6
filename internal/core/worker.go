package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// worker is one RAP-WAM abstract machine: a full register set plus its
// regions of the shared address space (its Stack Set).
type worker struct {
	eng *Engine
	// mem and code shadow eng.mem and eng.code.Instrs: one load
	// instead of two on the per-reference and per-instruction paths.
	mem  *mem.Memory
	code []isa.Instr
	pe   int

	// Regions.
	heap, local, ctl, trailR, pdlR, goalR, msgR mem.Region

	// Machine registers (host-side; register-file accesses are not
	// memory references, as in the WAM).
	regs [isa.NumRegs]mem.Word
	pc   int32 // code pointer
	cp   int32 // continuation code pointer (or sentinel)
	e    int   // current environment (addr or none)
	b    int   // youngest choice point (addr or none)
	b0   int   // cut barrier
	h    int   // heap top (next free)
	hb   int   // heap backtrack point
	s    int   // structure pointer (read mode)
	mode uint8 // read/write unification mode
	tr   int   // trail index (entries, not addr)
	pf   int   // current parcall frame (addr or none)
	gm   int   // current goal marker (addr or none)

	localTop int // next free local-stack word
	ctlTop   int // next free control-stack word
	hbFloor  int // HB floor for the current goal section

	// High-water marks for storage reporting.
	localHigh, ctlHigh, trHigh int

	state      WorkerState
	killFlag   bool
	instrs     int64
	inferences int64
	checkFails int64
	runCycles  int64
	waitCycles int64
	idleCycles int64
	idleClock  int  // cycles since last steal probe
	stealNext  int  // next victim PE to probe
	failedGoal bool // last goal completion was a failure

	// Inert-poll elision state (see Engine.schedSeq). inertWait is set
	// by a full pollFrame that proved this waiter has nothing to do
	// (frame running, goals pending, own stack empty); while the
	// scheduler sequence equals waitSeq, subsequent polls are provably
	// identical and are skipped. idleInert/idleSeq are the analogue for
	// an idle worker whose last steal sweep found every goal stack
	// empty: while the sequence holds, further sweeps cannot hit and
	// only the probe counters advance.
	inertWait bool
	waitSeq   uint64
	idleInert bool
	idleSeq   uint64

	// spec is set while this worker executes speculatively on a shard
	// goroutine (Engine.runEpoch). Speculation may only take pure
	// straight-line steps; the risky-opcode screen in specRun keeps it
	// on that path statically, and the guards in fail, noteSchedEvent
	// and setState abort it dynamically (panic(errSpecUnsafe)) should
	// an impure step slip through, rolling the worker back to its last
	// completed cycle for exact serial re-execution.
	spec bool
}

const (
	modeRead  = 0
	modeWrite = 1
)

func newWorker(e *Engine, pe int) *worker {
	w := &worker{
		eng:    e,
		mem:    e.mem,
		code:   e.code.Instrs,
		pe:     pe,
		heap:   e.mem.Region(pe, trace.AreaHeap),
		local:  e.mem.Region(pe, trace.AreaLocal),
		ctl:    e.mem.Region(pe, trace.AreaControl),
		trailR: e.mem.Region(pe, trace.AreaTrail),
		pdlR:   e.mem.Region(pe, trace.AreaPDL),
		goalR:  e.mem.Region(pe, trace.AreaGoal),
		msgR:   e.mem.Region(pe, trace.AreaMsg),
		state:  StateIdle,
		e:      none, b: none, b0: none, pf: none, gm: none,
		hbFloor:   none,
		hb:        none,
		stealNext: (pe + 1) % e.cfg.PEs,
	}
	w.h = w.heap.Base
	w.localTop = w.local.Base
	w.ctlTop = w.ctl.Base
	w.localHigh = w.localTop
	w.ctlHigh = w.ctlTop
	// Initialize goal stack header (untraced machine bring-up).
	e.mem.Poke(w.goalR.Base+gsLock, 0)
	e.mem.Poke(w.goalR.Base+gsTop, mem.MakeInt(gsBase))
	e.mem.Poke(w.msgR.Base+mbLock, 0)
	e.mem.Poke(w.msgR.Base+mbCount, mem.MakeInt(0))
	return w
}

// --- instrumented memory access ---

// read and write are thin forwarders; the per-worker reference counts
// (Stats.WorkRefs) come from the memory counter's ByPE table, which
// tallies exactly the same references, so nothing is counted here.

func (w *worker) read(addr int, obj trace.ObjType) mem.Word {
	return w.mem.Read(w.pe, addr, obj)
}

func (w *worker) write(addr int, v mem.Word, obj trace.ObjType) {
	w.mem.Write(w.pe, addr, v, obj)
}

// dataObjByArea maps a storage area to the object classification of a
// value reference into it (dereferencing, unification, trail unwinds):
// heap cells, environment variables (own or remote), goal-frame words,
// and so on. Trail/PDL/unclassified fall back to heap, matching the
// historical switch — a table load instead of a branch ladder, since
// dataObj sits on the deref hot path.
var dataObjByArea = [trace.NumAreas]trace.ObjType{
	trace.AreaNone:    trace.ObjHeap,
	trace.AreaHeap:    trace.ObjHeap,
	trace.AreaLocal:   trace.ObjEnvPVar,
	trace.AreaControl: trace.ObjChoicePoint,
	trace.AreaTrail:   trace.ObjHeap,
	trace.AreaPDL:     trace.ObjHeap,
	trace.AreaGoal:    trace.ObjGoalFrame,
	trace.AreaMsg:     trace.ObjMessage,
}

// dataObj classifies an address for value reads performed during
// dereferencing and unification. The overwhelmingly common case — a
// reference into the worker's own heap — is two compares; everything
// else is a Classify table lookup plus the area map above.
func (w *worker) dataObj(addr int) trace.ObjType {
	if addr >= w.heap.Base && addr < w.heap.Limit {
		return trace.ObjHeap
	}
	_, area := w.mem.Classify(addr)
	return dataObjByArea[area]
}

// --- overflow checks (simulation-level resource errors) ---

func (w *worker) checkHeap() {
	if w.h >= w.heap.Limit {
		w.machinePanic(fmt.Sprintf("pe%d: heap overflow", w.pe))
	}
}

func (w *worker) checkLocal(n int) {
	if w.localTop+n > w.local.Limit {
		w.machinePanic(fmt.Sprintf("pe%d: local stack overflow", w.pe))
	}
}

func (w *worker) checkCtl(n int) {
	if w.ctlTop+n > w.ctl.Limit {
		w.machinePanic(fmt.Sprintf("pe%d: control stack overflow", w.pe))
	}
}

// machineError carries the faulting worker's code pointer so the
// once-per-Run recover can report context without the dispatcher
// tracking a "current worker" on every tick.
type machineError struct {
	msg string
	pc  int32
}

func (e machineError) Error() string { return e.msg }

// machinePanic aborts the run with a machine error at this worker's
// current instruction.
func (w *worker) machinePanic(msg string) {
	panic(machineError{msg: msg, pc: w.pc})
}

// --- trail ---

func (w *worker) trailAddr(i int) int { return w.trailR.Base + i }

// pushTrail records a binding address for backtracking.
func (w *worker) pushTrail(addr int) {
	if w.trailAddr(w.tr) >= w.trailR.Limit {
		w.machinePanic(fmt.Sprintf("pe%d: trail overflow", w.pe))
	}
	w.write(w.trailAddr(w.tr), mem.MakeRef(addr), trace.ObjTrail)
	w.tr++
	if w.tr > w.trHigh {
		w.trHigh = w.tr
	}
}

// unwindTrail resets bindings down to trail index target.
func (w *worker) unwindTrail(target int) {
	for w.tr > target {
		w.tr--
		entry := w.read(w.trailAddr(w.tr), trace.ObjTrail)
		addr := entry.Addr()
		w.write(addr, mem.MakeRef(addr), w.dataObj(addr))
	}
}

// --- cycle execution ---

// tick advances this worker by one simulation step.
func (w *worker) tick() {
	switch w.state {
	case StateHalt:
		return
	case StateRun:
		if w.killFlag && w.gm != none {
			w.handleKill()
			return
		}
		w.runCycles++
		w.run(1)
	case StateWait:
		if w.killFlag && w.gm != none {
			w.handleKill()
			return
		}
		w.waitCycles++
		if w.inertWait && w.waitSeq == w.eng.schedSeq && w.eng.elide {
			return // provably identical to the poll that proved inertness
		}
		w.pollFrame()
	case StateIdle:
		w.killFlag = false // nothing to kill
		w.idleCycles++
		w.idleClock++
		if w.idleClock >= w.eng.cfg.StealInterval {
			w.idleClock = 0
			if w.idleInert && w.idleSeq == w.eng.schedSeq && w.eng.elide {
				// Every goal stack was empty at the last sweep and no
				// push/pop has happened since: the sweep would find
				// nothing again, so only the probe count advances
				// (stealNext wraps around over a full empty sweep).
				w.eng.stealProbes += int64(w.eng.cfg.PEs - 1)
				return
			}
			w.trySteal()
		}
	}
}

// noteSchedEvent records an action observable by other workers'
// scheduler steps (goal stack push/pop, parcall pending/status write,
// message send). Every such site must call this — the quantum
// dispatcher and the inert-poll elision both rely on the sequence to
// know when a skipped poll could have changed outcome.
func (w *worker) noteSchedEvent() {
	if w.spec {
		panic(errSpecUnsafe)
	}
	w.eng.schedSeq++
}

// setState transitions the worker's scheduler state, maintaining the
// engine's count of running workers (the quantum dispatcher's cheap
// eligibility pre-check) and moving the scheduler sequence, since a
// state change ends a quantum. Every state change goes through here.
func (w *worker) setState(s WorkerState) {
	if w.spec {
		panic(errSpecUnsafe)
	}
	if w.state == StateRun {
		w.eng.nRun--
	}
	if s == StateRun {
		w.eng.nRun++
	}
	w.state = s
	w.eng.schedSeq++
}

// accountInert credits this worker with k cycles of a quantum or an
// epoch that no tick of its own recorded (see Engine.settle). The
// closed forms reproduce exactly what k consecutive ticks would have
// recorded given that nothing observable happened: a runner accrues
// run cycles (a quantum steps runners without counting); a waiter
// accrues wait cycles; an idle worker accrues idle cycles plus the
// steal probes its clock would have fired — each empty probe round
// visits all PEs-1 victims and leaves stealNext where it started, so
// only the counters move.
func (w *worker) accountInert(k int64) {
	if k <= 0 {
		return
	}
	switch w.state {
	case StateRun:
		w.runCycles += k
	case StateWait:
		w.waitCycles += k
	case StateIdle:
		w.idleCycles += k
		si := int64(w.eng.cfg.StealInterval)
		fires := (int64(w.idleClock) + k) / si
		w.idleClock = int((int64(w.idleClock) + k) % si)
		if fires > 0 {
			w.eng.stealProbes += fires * int64(w.eng.cfg.PEs-1)
		}
	}
}

// controlSentinel handles CP sentinels reached via proceed/execute.
func (w *worker) controlSentinel(pc int32) {
	switch pc {
	case cpQueryDone:
		// The query's last call proceeded without OpStop — treat as
		// success without bindings (defensive; OpStop is the normal
		// path).
		w.eng.halt(true, w.e)
	case cpParReturn:
		w.completeGoal(true)
	default:
		w.machinePanic(fmt.Sprintf("pe%d: bad code address %d", w.pe, pc))
	}
}

// --- goal stack operations (locked; Table 1 "Goal Frames") ---

// lockAcquire models a test-and-set acquisition: one read and one write
// of the lock word. In the deterministic interleaving each step is
// atomic, so acquisition always succeeds; the cost remains.
func (w *worker) lockAcquire(addr int, obj trace.ObjType) {
	w.read(addr, obj)
	w.write(addr, mem.MakeInt(1), obj)
}

func (w *worker) lockRelease(addr int, obj trace.ObjType) {
	w.write(addr, mem.MakeInt(0), obj)
}

// pushGoal pushes a goal frame onto this worker's goal stack.
func (w *worker) pushGoal(pfAddr int, slot int, entry int32, arity int) {
	base := w.goalR.Base
	w.lockAcquire(base+gsLock, trace.ObjGoalFrame)
	top := int(w.read(base+gsTop, trace.ObjGoalFrame).Int())
	frameLen := gfHdr + arity + 1 // +1 for the back-pointer word
	if base+top+frameLen > w.goalR.Limit {
		w.machinePanic(fmt.Sprintf("pe%d: goal stack overflow", w.pe))
	}
	at := base + top
	w.write(at+gfPF, mem.MakeRef(pfAddr), trace.ObjGoalFrame)
	w.write(at+gfSlot, mem.MakeInt(int64(slot)), trace.ObjGoalFrame)
	w.write(at+gfEntry, mem.MakeInt(int64(entry)), trace.ObjGoalFrame)
	w.write(at+gfArity, mem.MakeInt(int64(arity)), trace.ObjGoalFrame)
	for i := 0; i < arity; i++ {
		w.write(at+gfHdr+i, w.regs[i], trace.ObjGoalFrame)
	}
	// Back-pointer: the word just below the new top holds this frame's
	// start offset, making pops O(1) with variable-length frames.
	w.write(at+gfHdr+arity, mem.MakeInt(int64(top)), trace.ObjGoalFrame)
	w.write(base+gsTop, mem.MakeInt(int64(top+frameLen)), trace.ObjGoalFrame)
	w.lockRelease(base+gsLock, trace.ObjGoalFrame)
	w.noteSchedEvent() // idle workers' steal probes can now hit
}

// popGoal pops the youngest goal frame from the stack of victim (which
// may be this worker). It returns ok=false if the stack was empty.
func (w *worker) popGoal(victim *worker) (pfAddr, slot int, entry int32, args []mem.Word, ok bool) {
	base := victim.goalR.Base
	w.lockAcquire(base+gsLock, trace.ObjGoalFrame)
	top := int(w.read(base+gsTop, trace.ObjGoalFrame).Int())
	if top <= gsBase {
		w.lockRelease(base+gsLock, trace.ObjGoalFrame)
		return 0, 0, 0, nil, false
	}
	// Frames are variable length; walk from the base to find the last
	// frame's offset. To keep the pop O(1) (as a real implementation
	// would, with frames linked), each frame's length is derivable from
	// its arity word; we store a back-pointer instead: the word just
	// below top is the frame start offset.
	at := base + int(w.read(base+top-1, trace.ObjGoalFrame).Int())
	pfAddr = w.read(at+gfPF, trace.ObjGoalFrame).Addr()
	slot = int(w.read(at+gfSlot, trace.ObjGoalFrame).Int())
	entry = int32(w.read(at+gfEntry, trace.ObjGoalFrame).Int())
	arity := int(w.read(at+gfArity, trace.ObjGoalFrame).Int())
	args = make([]mem.Word, arity)
	for i := 0; i < arity; i++ {
		args[i] = w.read(at+gfHdr+i, trace.ObjGoalFrame)
	}
	w.write(base+gsTop, mem.MakeInt(int64(at-base)), trace.ObjGoalFrame)
	w.lockRelease(base+gsLock, trace.ObjGoalFrame)
	w.noteSchedEvent() // the victim's stack shrank
	return pfAddr, slot, entry, args, true
}

// --- messages ---

// sendMessage appends a message to the target worker's buffer and (for
// kills) raises its host-side kill flag.
func (w *worker) sendMessage(target int, mtype int, arg int) {
	tw := w.eng.workers[target]
	base := tw.msgR.Base
	w.lockAcquire(base+mbLock, trace.ObjMessage)
	count := int(w.read(base+mbCount, trace.ObjMessage).Int())
	at := base + mbBase + count*msgLen
	if at+msgLen <= tw.msgR.Limit {
		w.write(at, mem.MakeInt(int64(mtype)), trace.ObjMessage)
		w.write(at+1, mem.MakeInt(int64(arg)), trace.ObjMessage)
		w.write(base+mbCount, mem.MakeInt(int64(count+1)), trace.ObjMessage)
	}
	w.lockRelease(base+mbLock, trace.ObjMessage)
	if mtype == msgKill {
		tw.killFlag = true
		w.eng.kills++
	}
	w.noteSchedEvent() // the target observes the message/kill flag
}
