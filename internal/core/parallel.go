package core

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file implements the RAP-WAM parallel machinery: parcall frames,
// markers (stack sections), the on-demand scheduler with goal stealing,
// and backward execution across parallel goals (inside failure kills
// siblings and fails outside, per the paper's semantics; completed
// parallel goals are treated as determinate — see docs/ARCHITECTURE.md,
// "Execution model").

// allocPFrame implements OpPFrame.
func (w *worker) allocPFrame(ngoals int, cont int32) {
	size := pfSize(ngoals)
	w.checkLocal(size)
	at := w.localTop
	w.write(at+pfPrevPF, mem.MakeRef(encAddr(w.pf)), trace.ObjParcallLocal)
	w.write(at+pfCE, mem.MakeRef(encAddr(w.e)), trace.ObjParcallLocal)
	w.write(at+pfContP, mem.MakeInt(int64(cont)), trace.ObjParcallLocal)
	w.write(at+pfNGoals, mem.MakeInt(int64(ngoals)), trace.ObjParcallGlobal)
	w.write(at+pfLock, mem.MakeInt(0), trace.ObjParcallCount)
	w.write(at+pfPending, mem.MakeInt(int64(ngoals)), trace.ObjParcallCount)
	w.write(at+pfStatus, mem.MakeInt(pfRunning), trace.ObjParcallGlobal)
	w.write(at+pfOwner, mem.MakeInt(int64(w.pe)), trace.ObjParcallGlobal)
	w.write(at+pfParentB, mem.MakeRef(encAddr(w.b)), trace.ObjParcallGlobal)
	w.write(at+pfParentH, mem.MakeRef(encAddr(w.h)), trace.ObjParcallGlobal)
	w.write(at+pfParentTR, mem.MakeInt(int64(w.tr)), trace.ObjParcallGlobal)
	w.write(at+pfParentCt, mem.MakeRef(encAddr(w.ctlTop)), trace.ObjParcallGlobal)
	for g := 0; g < ngoals; g++ {
		s := at + pfHdr + g*pfSlotLen
		w.write(s+slotOffState, mem.MakeInt(slotPending), trace.ObjParcallGlobal)
		w.write(s+slotOffPE, mem.MakeInt(-1), trace.ObjParcallGlobal)
		w.write(s+slotOffStartTR, mem.MakeInt(0), trace.ObjParcallGlobal)
		w.write(s+slotOffEndTR, mem.MakeInt(0), trace.ObjParcallGlobal)
	}
	w.localTop = at + size
	if w.localTop > w.localHigh {
		w.localHigh = w.localTop
	}
	w.pf = at
	w.noteSchedEvent() // new frame: pending/status now live
	w.eng.parcalls++
	w.eng.goalsParallel += int64(ngoals)
}

// encAddr maps the none sentinel (-1) through word encoding; MakeRef of
// a negative value would corrupt the tag, so none is stored as the
// maximum address + 1 pattern via MakeInt(-1) semantics. We simply store
// addr+1 so that 0 means none.
func encAddr(addr int) int { return addr + 1 }

func decAddr(w mem.Word) int { return w.Addr() - 1 }

// pushMarker opens a stack section for a parallel goal and returns the
// marker address.
func (w *worker) pushMarker(pfAddr, slot int) int {
	w.checkCtl(mkSize)
	at := w.ctlTop
	w.write(at+mkPrevGM, mem.MakeRef(encAddr(w.gm)), trace.ObjMarker)
	w.write(at+mkPF, mem.MakeRef(encAddr(pfAddr)), trace.ObjMarker)
	w.write(at+mkSlot, mem.MakeInt(int64(slot)), trace.ObjMarker)
	w.write(at+mkSavedB, mem.MakeRef(encAddr(w.b)), trace.ObjMarker)
	w.write(at+mkSavedB0, mem.MakeRef(encAddr(w.b0)), trace.ObjMarker)
	w.write(at+mkSavedE, mem.MakeRef(encAddr(w.e)), trace.ObjMarker)
	w.write(at+mkSavedH, mem.MakeRef(encAddr(w.h)), trace.ObjMarker)
	w.write(at+mkSavedTR, mem.MakeInt(int64(w.tr)), trace.ObjMarker)
	w.write(at+mkSavedCP, mem.MakeInt(int64(w.cp)), trace.ObjMarker)
	w.write(at+mkSavedPF, mem.MakeRef(encAddr(w.pf)), trace.ObjMarker)
	w.write(at+mkSavedLo, mem.MakeRef(encAddr(w.localTop)), trace.ObjMarker)
	w.write(at+mkSavedHB, mem.MakeRef(encAddr(w.hb)), trace.ObjMarker)
	w.ctlTop = at + mkSize
	if w.ctlTop > w.ctlHigh {
		w.ctlHigh = w.ctlTop
	}
	w.gm = at
	return at
}

// setSlot updates a goal slot's state and executor.
func (w *worker) setSlot(pfAddr, slot, state, pe int) {
	s := pfAddr + pfHdr + (slot-1)*pfSlotLen
	w.write(s+slotOffState, mem.MakeInt(int64(state)), trace.ObjParcallGlobal)
	w.write(s+slotOffPE, mem.MakeInt(int64(pe)), trace.ObjParcallGlobal)
}

// setSlotTR records the goal's trail segment bounds on its executor.
func (w *worker) setSlotTR(pfAddr, slot, off, tr int) {
	s := pfAddr + pfHdr + (slot-1)*pfSlotLen
	w.write(s+off, mem.MakeInt(int64(tr)), trace.ObjParcallGlobal)
}

// pcallLocal implements OpPCallLocal: the frame owner executes the first
// parallel goal itself.
func (w *worker) pcallLocal(entry int32, slot int) {
	w.inferences++
	w.pushMarker(w.pf, slot)
	w.setSlot(w.pf, slot, slotExec, w.pe)
	w.setSlotTR(w.pf, slot, slotOffStartTR, w.tr)
	w.b = none
	w.b0 = none
	w.hb = w.h
	w.hbFloor = w.h
	w.cp = cpParReturn
	w.pc = entry
}

// startGoal begins executing a goal frame obtained from a goal stack.
func (w *worker) startGoal(pfAddr, slot int, entry int32, args []mem.Word) {
	w.inferences++
	w.pushMarker(pfAddr, slot)
	w.setSlot(pfAddr, slot, slotExec, w.pe)
	w.setSlotTR(pfAddr, slot, slotOffStartTR, w.tr)
	copy(w.regs[:], args)
	owner := int(w.read(pfAddr+pfOwner, trace.ObjParcallGlobal).Int())
	if owner != w.pe {
		w.eng.goalsStolen++
	}
	w.pf = pfAddr // nested parcall frames link below this frame
	w.e = none
	w.b = none
	w.b0 = none
	w.hb = w.h
	w.hbFloor = w.h
	w.cp = cpParReturn
	w.pc = entry
	w.setState(StateRun)
}

// completeGoal finishes the current parallel goal (success or failure),
// updating the parcall frame under its lock and returning the worker to
// its scheduler.
func (w *worker) completeGoal(success bool) {
	m := w.gm
	pfAddr := decAddr(w.read(m+mkPF, trace.ObjMarker))
	slot := int(w.read(m+mkSlot, trace.ObjMarker).Int())

	state := slotDone
	if !success {
		state = slotFailed
	}
	w.setSlot(pfAddr, slot, state, w.pe)
	w.setSlotTR(pfAddr, slot, slotOffEndTR, w.tr)
	if !success {
		w.write(pfAddr+pfStatus, mem.MakeInt(pfFailed), trace.ObjParcallGlobal)
	}

	// Decrement the pending counter under the frame lock.
	w.lockAcquire(pfAddr+pfLock, trace.ObjParcallCount)
	pending := w.read(pfAddr+pfPending, trace.ObjParcallCount).Int()
	w.write(pfAddr+pfPending, mem.MakeInt(pending-1), trace.ObjParcallCount)
	w.lockRelease(pfAddr+pfLock, trace.ObjParcallCount)
	w.noteSchedEvent() // the frame's owner observes pending/status

	// Restore the worker's pre-goal context. The heap section is
	// preserved (it holds the goal's results); the local and control
	// sections are recovered: this model treats completed parallel
	// goals as determinate (their alternatives are discarded — see
	// docs/ARCHITECTURE.md, "Execution model"), so their environments,
	// choice points and the marker itself are dead on completion. This
	// is the storage recovery the markers exist to provide.
	w.b = decAddr(w.read(m+mkSavedB, trace.ObjMarker))
	w.b0 = decAddr(w.read(m+mkSavedB0, trace.ObjMarker))
	w.e = decAddr(w.read(m+mkSavedE, trace.ObjMarker))
	w.cp = int32(w.read(m+mkSavedCP, trace.ObjMarker).Int())
	w.pf = decAddr(w.read(m+mkSavedPF, trace.ObjMarker))
	w.hb = decAddr(w.read(m+mkSavedHB, trace.ObjMarker))
	w.gm = decAddr(w.read(m+mkPrevGM, trace.ObjMarker))
	if success {
		w.localTop = decAddr(w.read(m+mkSavedLo, trace.ObjMarker))
		w.ctlTop = m
	}
	w.hbFloor = w.goalFloorHB()
	w.failedGoal = !success

	w.schedule()
}

// goalFloorHB recomputes the HB floor after leaving a section.
func (w *worker) goalFloorHB() int {
	if w.gm == none {
		return none
	}
	return decAddr(w.mem.Peek(w.gm + mkSavedH)) // host-side cache of own marker
}

// popLiveGoal pops goals, silently discarding any whose parcall frame is
// no longer running (its pending count is decremented so the failing
// owner can quiesce). Returns the first live goal, if any.
func (w *worker) popLiveGoal(victim *worker) (pfAddr, slot int, entry int32, args []mem.Word, ok bool) {
	for {
		pfAddr, slot, entry, args, ok = w.popGoal(victim)
		if !ok {
			return
		}
		if int(w.mem.Peek(pfAddr+pfStatus).Int()) == pfRunning {
			return
		}
		w.lockAcquire(pfAddr+pfLock, trace.ObjParcallCount)
		pending := w.read(pfAddr+pfPending, trace.ObjParcallCount).Int()
		w.write(pfAddr+pfPending, mem.MakeInt(pending-1), trace.ObjParcallCount)
		w.lockRelease(pfAddr+pfLock, trace.ObjParcallCount)
		w.noteSchedEvent() // the failing owner observes the drained count
	}
}

// schedule looks for the next thing to do after finishing a goal.
func (w *worker) schedule() {
	if w.pf != none && w.frameOwner(w.pf) == w.pe {
		// Own parcall outstanding: continue past it as soon as it
		// completes (pollFrame also drains the goal stack while the
		// frame is pending). Continuation priority bounds the number
		// of live frames.
		w.setState(StateWait)
		w.pollFrame()
		return
	}
	// No frame of our own: drain leftover work, then go idle.
	if int(w.mem.Peek(w.goalR.Base+gsTop).Int()) > gsBase {
		if pfAddr, slot, entry, args, ok := w.popLiveGoal(w); ok {
			w.startGoal(pfAddr, slot, entry, args)
			return
		}
	}
	w.setState(StateIdle)
	w.idleClock = 0
}

// frameOwner reads a frame's owner (host-side: polled every cycle; the
// first inspection was already traced when the frame was created or the
// goal picked up).
func (w *worker) frameOwner(pfAddr int) int {
	return int(w.mem.Peek(pfAddr + pfOwner).Int())
}

// pollFrame is executed on wait cycles: the parent of an outstanding
// parcall watches for completion or failure. Spinning reads hit the
// local cache and are not traced; the state-transition reads are.
func (w *worker) pollFrame() {
	w.inertWait = false
	pfAddr := w.pf
	status := int(w.mem.Peek(pfAddr + pfStatus).Int())
	pending := w.mem.Peek(pfAddr + pfPending).Int()
	if status == pfFailed {
		w.parcallFail(pfAddr)
		return
	}
	if pending > 0 {
		// Still waiting; but goals of this frame may remain unstolen
		// on our own goal stack — run them. The emptiness check is a
		// spin on the worker's own cached top word (untraced, like
		// other busy-waiting); only a real pop pays reference costs.
		if int(w.mem.Peek(w.goalR.Base+gsTop).Int()) > gsBase {
			if pfA, slot, entry, args, ok := w.popLiveGoal(w); ok {
				w.startGoal(pfA, slot, entry, args)
			}
		} else {
			// Nothing to run and nothing changed: until the next
			// scheduler event this poll's outcome is fixed.
			w.inertWait = true
			w.waitSeq = w.eng.schedSeq
		}
		return
	}
	// All goals done: continue at the stored continuation.
	w.read(pfAddr+pfPending, trace.ObjParcallCount) // traced wake-up read
	w.e = decAddr(w.read(pfAddr+pfCE, trace.ObjParcallLocal))
	cont := int32(w.read(pfAddr+pfContP, trace.ObjParcallLocal).Int())
	prev := decAddr(w.read(pfAddr+pfPrevPF, trace.ObjParcallLocal))
	ngoals := int(w.read(pfAddr+pfNGoals, trace.ObjParcallGlobal).Int())
	// Reclaim the frame when it is on top of the local stack and no
	// choice point protects it (the determinate-parcall storage
	// recovery of the model; alternatives inside completed parallel
	// goals are discarded — see docs/ARCHITECTURE.md, "Execution
	// model").
	if pfAddr+pfSize(ngoals) == w.localTop && (w.b == none || w.cpSavedLocal(w.b) <= pfAddr) {
		w.localTop = pfAddr
	}
	w.pf = prev
	w.pc = cont
	w.setState(StateRun)
}

// cpSavedLocal reads a choice point's saved local top (host-side).
func (w *worker) cpSavedLocal(b int) int {
	return decAddr(w.mem.Peek(b + cpSavedLo))
}

// parcallFail handles a failed parcall from the owner's side: kill the
// goals still executing, wait for quiescence, recover storage, fail.
func (w *worker) parcallFail(pfAddr int) {
	w.noteSchedEvent() // frame teardown: status/pending/goal stacks move
	ngoals := int(w.mem.Peek(pfAddr + pfNGoals).Int())
	// Discard this frame's un-started goals sitting on our stack
	// (the frame is marked failed, so popLiveGoal drops them and
	// decrements the pending count; live goals of an outer frame stay
	// untouched — they were pushed below and are never reached here).
	if pfA, slot, entry, args, ok := w.popLiveGoal(w); ok {
		// A live goal surfaced (from an outer, still-running frame):
		// put it back by re-pushing and stop purging.
		saved := make([]mem.Word, len(args))
		copy(saved, args)
		regs := w.regs
		copy(w.regs[:], saved)
		w.pushGoal(pfA, slot, entry, len(saved))
		w.regs = regs
	}
	// Kill executing goals on other PEs.
	quiesced := true
	for g := 1; g <= ngoals; g++ {
		s := pfAddr + pfHdr + (g-1)*pfSlotLen
		st := int(w.mem.Peek(s).Int())
		pe := int(w.mem.Peek(s + 1).Int())
		if st == slotExec && pe != w.pe {
			quiesced = false
			if !w.eng.workers[pe].killFlag {
				w.sendMessage(pe, msgKill, pfAddr)
			}
		}
	}
	pending := w.mem.Peek(pfAddr + pfPending).Int()
	if !quiesced || pending > 0 {
		w.setState(StateWait)
		return // poll again next cycle
	}
	// All quiet. First undo the bindings made by goals that COMPLETED
	// on other workers: their trail segments (recorded in the slots)
	// are walked by this worker directly — segment unwinds are sound
	// because a cell can only be rebound after being unbound, and
	// younger trail entries always unwind first. (Bindings made under
	// nested parcalls of a completed goal on third workers are beyond
	// the slot bookkeeping and may persist — see docs/ARCHITECTURE.md,
	// "Failure inside a parcall"; all measured benchmarks are
	// determinate.)
	for g := 1; g <= ngoals; g++ {
		s := pfAddr + pfHdr + (g-1)*pfSlotLen
		st := int(w.mem.Peek(s + slotOffState).Int())
		pe := int(w.mem.Peek(s + slotOffPE).Int())
		if st != slotDone || pe == w.pe || pe < 0 {
			continue
		}
		start := int(w.read(s+slotOffStartTR, trace.ObjParcallGlobal).Int())
		end := int(w.read(s+slotOffEndTR, trace.ObjParcallGlobal).Int())
		w.unwindRemoteSegment(pe, start, end)
	}
	// Mark dead, restore the pre-parcall machine state and recover
	// storage, then fail outside the parcall.
	w.write(pfAddr+pfStatus, mem.MakeInt(pfDead), trace.ObjParcallGlobal)
	parentTR := int(w.read(pfAddr+pfParentTR, trace.ObjParcallGlobal).Int())
	parentH := decAddr(w.read(pfAddr+pfParentH, trace.ObjParcallGlobal))
	parentB := decAddr(w.read(pfAddr+pfParentB, trace.ObjParcallGlobal))
	parentCt := decAddr(w.read(pfAddr+pfParentCt, trace.ObjParcallGlobal))
	w.e = decAddr(w.read(pfAddr+pfCE, trace.ObjParcallLocal))
	prev := decAddr(w.read(pfAddr+pfPrevPF, trace.ObjParcallLocal))
	w.unwindTrail(parentTR)
	w.h = parentH
	w.b = parentB
	w.ctlTop = parentCt
	w.localTop = pfAddr
	w.pf = prev
	if w.b != none {
		w.hb = decAddr(w.read(w.b+cpSavedH, trace.ObjChoicePoint))
	} else {
		w.hb = w.hbFloor
	}
	w.setState(StateRun)
	w.fail()
}

// unwindRemoteSegment resets the bindings recorded in another worker's
// trail segment [start, end). The entries are left in place: a later
// unwind walking past them resets already-unbound cells, which is
// harmless.
func (w *worker) unwindRemoteSegment(pe, start, end int) {
	victim := w.eng.workers[pe]
	for i := end - 1; i >= start; i-- {
		entry := w.read(victim.trailR.Base+i, trace.ObjTrail)
		addr := entry.Addr()
		w.write(addr, mem.MakeRef(addr), w.dataObj(addr))
	}
}

// trySteal probes other workers' goal stacks round-robin for work.
func (w *worker) trySteal() {
	n := w.eng.cfg.PEs
	if n == 1 {
		return
	}
	allEmpty := true
	for attempts := 0; attempts < n-1; attempts++ {
		victim := w.eng.workers[w.stealNext]
		// Advance round-robin, skipping self; stealNext stays in
		// [0, n), so the wrap is a compare instead of a divide (this
		// runs every StealInterval cycles on every idle worker).
		if w.stealNext++; w.stealNext == n {
			w.stealNext = 0
		}
		if w.stealNext == w.pe {
			if w.stealNext++; w.stealNext == n {
				w.stealNext = 0
			}
		}
		if victim.pe == w.pe {
			continue
		}
		w.eng.stealProbes++
		// Probe: an idle worker spins on a cached copy of the victim's
		// top-of-stack word; like other busy-waiting this is untraced
		// (the paper separates work references from idle time). Only a
		// successful steal pays the locked-pop reference cost.
		top := int(w.mem.Peek(victim.goalR.Base + gsTop).Int())
		if top <= gsBase {
			continue
		}
		allEmpty = false
		if pfAddr, slot, entry, args, ok := w.popLiveGoal(victim); ok {
			w.startGoal(pfAddr, slot, entry, args)
			return
		}
	}
	if allEmpty {
		// Until a push happens, every future sweep is the same no-op:
		// tick advances only the probe counters while this holds.
		w.idleInert = true
		w.idleSeq = w.eng.schedSeq
	}
}

// handleKill abandons the worker's current parallel goal: every stack
// section in its marker chain is unwound (bindings undone, heap and
// stacks recovered) and nested parcall frames it owns are killed
// transitively.
func (w *worker) handleKill() {
	w.noteSchedEvent() // unwinding wipes this worker's stack and counters
	w.killFlag = false
	// Consume the kill message (traced reads of the message buffer).
	base := w.msgR.Base
	w.lockAcquire(base+mbLock, trace.ObjMessage)
	count := int(w.read(base+mbCount, trace.ObjMessage).Int())
	if count > 0 {
		w.read(base+mbBase+(count-1)*msgLen, trace.ObjMessage)
		w.write(base+mbCount, mem.MakeInt(int64(count-1)), trace.ObjMessage)
	}
	w.lockRelease(base+mbLock, trace.ObjMessage)

	// Unwind the whole marker chain (the entire current goal and any
	// nested sections).
	bottom := none
	for m := w.gm; m != none; {
		bottom = m
		// Kill children of frames created inside this section. The
		// chain from the current PF leads through nested frames down
		// to the goal's own frame (marker.pf), which is not ours to
		// kill — its owner coordinates via parcallFail.
		savedPF := decAddr(w.mem.Peek(m + mkSavedPF))
		goalPF := decAddr(w.mem.Peek(m + mkPF))
		for f := w.pf; f != none && f != savedPF && f != goalPF; {
			w.killFrameChildren(f)
			f = decAddr(w.mem.Peek(f + pfPrevPF))
		}
		w.pf = savedPF
		w.unwindTrail(int(w.read(m+mkSavedTR, trace.ObjMarker).Int()))
		w.h = decAddr(w.read(m+mkSavedH, trace.ObjMarker))
		w.localTop = decAddr(w.read(m+mkSavedLo, trace.ObjMarker))
		w.gm = decAddr(w.read(m+mkPrevGM, trace.ObjMarker))
		m = w.gm
	}
	// Drop anything we queued.
	w.lockAcquire(w.goalR.Base+gsLock, trace.ObjGoalFrame)
	w.write(w.goalR.Base+gsTop, mem.MakeInt(gsBase), trace.ObjGoalFrame)
	w.lockRelease(w.goalR.Base+gsLock, trace.ObjGoalFrame)

	if bottom != none {
		// Tell the killed goal's frame that this slot is gone.
		pfAddr := decAddr(w.read(bottom+mkPF, trace.ObjMarker))
		slot := int(w.read(bottom+mkSlot, trace.ObjMarker).Int())
		w.setSlot(pfAddr, slot, slotKilled, w.pe)
		w.setSlotTR(pfAddr, slot, slotOffEndTR, w.tr)
		w.lockAcquire(pfAddr+pfLock, trace.ObjParcallCount)
		pending := w.read(pfAddr+pfPending, trace.ObjParcallCount).Int()
		w.write(pfAddr+pfPending, mem.MakeInt(pending-1), trace.ObjParcallCount)
		w.lockRelease(pfAddr+pfLock, trace.ObjParcallCount)
		w.ctlTop = bottom
	}
	w.b = none
	w.b0 = none
	w.e = none
	w.hb = none
	w.hbFloor = none
	// If this worker owns an outstanding frame (it was killed while
	// executing one of its own parcall's goals), it must go back to
	// coordinating that frame rather than idling.
	w.schedule()
}

// killFrameChildren marks a dying frame dead and kills its executing
// goals on other PEs.
func (w *worker) killFrameChildren(pfAddr int) {
	w.noteSchedEvent() // nested frame dies: its waiters must re-poll
	w.write(pfAddr+pfStatus, mem.MakeInt(pfDead), trace.ObjParcallGlobal)
	ngoals := int(w.mem.Peek(pfAddr + pfNGoals).Int())
	for g := 1; g <= ngoals; g++ {
		s := pfAddr + pfHdr + (g-1)*pfSlotLen
		st := int(w.mem.Peek(s).Int())
		pe := int(w.mem.Peek(s + 1).Int())
		if st == slotExec && pe != w.pe {
			w.sendMessage(pe, msgKill, pfAddr)
		}
	}
}

// parGoalFail is invoked when backtracking exhausts a parallel goal's
// section (no choice point inside it): the goal fails, which fails the
// whole parcall.
func (w *worker) parGoalFail() {
	m := w.gm
	// Kill descendants: nested parcall frames created inside this
	// section die with it (their remote goals receive kill messages).
	// The goal's own frame (marker.pf) is excluded — the failure is
	// reported to it through completeGoal.
	savedPF := decAddr(w.mem.Peek(m + mkSavedPF))
	goalPF := decAddr(w.mem.Peek(m + mkPF))
	for f := w.pf; f != none && f != savedPF && f != goalPF; {
		w.killFrameChildren(f)
		f = decAddr(w.mem.Peek(f + pfPrevPF))
	}
	// Unwind this section's bindings and storage before reporting.
	w.unwindTrail(int(w.read(m+mkSavedTR, trace.ObjMarker).Int()))
	w.h = decAddr(w.read(m+mkSavedH, trace.ObjMarker))
	w.localTop = decAddr(w.read(m+mkSavedLo, trace.ObjMarker))
	// The marker's words are read by completeGoal before any new
	// section could reuse them, so the control stack can be cut now.
	w.ctlTop = m
	w.completeGoal(false)
}
