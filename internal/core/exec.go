package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// run is the instruction loop: it executes up to steps instructions, one
// cycle each — the first in the current cycle e.cycle, every later one
// after advancing e.cycle — and reports whether it stopped because an
// instruction moved the scheduler sequence (Engine.schedSeq). Every
// action another worker could observe bumps the sequence (a goal pushed
// or popped, a frame's counters written, a message, a state change, the
// halt), so that one compare is the whole exit test, and a sole runner's
// quantum is one call per cancellation window. Callers that interleave
// workers take one step, run(1), and advance the cycle themselves.
//
// Fetch, count and dispatch share a frame with the opcode switch, and
// the instruction is read through a pointer so the dispatcher moves one
// word, not the whole 24-byte Instr (cases load only the fields they
// use). Instructions advance pc themselves (most by one). Machine errors
// panic as machineError and are annotated with cycle/pc context by
// Engine.Run's single recover — not by a per-instruction defer, which
// would tax every instruction; e.cycle moves before each instruction so
// that context is exact.
func (w *worker) run(steps int64) (moved bool) {
	e := w.eng
	seq := e.schedSeq
	for {
		var ins *isa.Instr
		if w.pc < 0 {
			w.controlSentinel(w.pc)
			goto next
		}
		ins = &w.code[w.pc]
		w.instrs++
		switch ins.Op {

		// --- control ---

		case isa.OpAllocate:
			n := int(ins.N)
			w.checkLocal(envHdr + n)
			at := w.localTop
			w.write(at+envCE, mem.MakeRef(encAddr(w.e)), trace.ObjEnvControl)
			w.write(at+envCP, mem.MakeInt(int64(w.cp)), trace.ObjEnvControl)
			w.write(at+envSize, mem.MakeInt(int64(n)), trace.ObjEnvControl)
			w.e = at
			w.localTop = at + envHdr + n
			if w.localTop > w.localHigh {
				w.localHigh = w.localTop
			}
			w.pc++

		case isa.OpDeallocate:
			size := int(w.read(w.e+envSize, trace.ObjEnvControl).Int())
			w.cp = int32(w.read(w.e+envCP, trace.ObjEnvControl).Int())
			prev := decAddr(w.read(w.e+envCE, trace.ObjEnvControl))
			// Storage recovery: pop the environment when it is topmost and
			// unprotected (no younger choice point, no parcall frame above).
			if w.e+envHdr+size == w.localTop &&
				(w.b == none || w.cpSavedLocal(w.b) <= w.e) &&
				(w.pf == none || w.pf < w.e) {
				w.localTop = w.e
			}
			w.e = prev
			w.pc++

		case isa.OpCall:
			w.inferences++
			w.cp = w.pc + 1
			w.b0 = w.b
			w.pc = ins.N

		case isa.OpExecute:
			w.inferences++
			w.b0 = w.b
			w.pc = ins.N

		case isa.OpProceed:
			w.pc = w.cp

		case isa.OpJump:
			w.pc = ins.N

		case isa.OpStop:
			e.halt(true, w.e)

		case isa.OpFail:
			w.fail()

		// --- choice points ---

		case isa.OpTry:
			arity := int(ins.R1)
			w.checkCtl(cpHdr + arity)
			at := w.ctlTop
			w.write(at+cpPrevB, mem.MakeRef(encAddr(w.b)), trace.ObjChoicePoint)
			w.write(at+cpAltP, mem.MakeInt(int64(w.pc+1)), trace.ObjChoicePoint)
			w.write(at+cpSavedE, mem.MakeRef(encAddr(w.e)), trace.ObjChoicePoint)
			w.write(at+cpSavedCP, mem.MakeInt(int64(w.cp)), trace.ObjChoicePoint)
			w.write(at+cpSavedH, mem.MakeRef(encAddr(w.h)), trace.ObjChoicePoint)
			w.write(at+cpSavedTR, mem.MakeInt(int64(w.tr)), trace.ObjChoicePoint)
			w.write(at+cpSavedPF, mem.MakeRef(encAddr(w.pf)), trace.ObjChoicePoint)
			w.write(at+cpSavedB0, mem.MakeRef(encAddr(w.b0)), trace.ObjChoicePoint)
			w.write(at+cpSavedLo, mem.MakeRef(encAddr(w.localTop)), trace.ObjChoicePoint)
			w.write(at+cpArity, mem.MakeInt(int64(arity)), trace.ObjChoicePoint)
			for i := 0; i < arity; i++ {
				w.write(at+cpHdr+i, w.regs[i], trace.ObjChoicePoint)
			}
			w.ctlTop = at + cpHdr + arity
			if w.ctlTop > w.ctlHigh {
				w.ctlHigh = w.ctlTop
			}
			w.b = at
			w.hb = w.h
			w.pc = ins.N

		case isa.OpRetry:
			w.write(w.b+cpAltP, mem.MakeInt(int64(w.pc+1)), trace.ObjChoicePoint)
			w.pc = ins.N

		case isa.OpTrust:
			prev := decAddr(w.read(w.b+cpPrevB, trace.ObjChoicePoint))
			w.ctlTop = w.b
			w.b = prev
			if w.b != none {
				w.hb = decAddr(w.read(w.b+cpSavedH, trace.ObjChoicePoint))
			} else {
				w.hb = w.hbFloor
			}
			w.pc = ins.N

		case isa.OpSwitchOnTerm:
			tbl := e.code.Switches[ins.N]
			d := w.deref(w.regs[0])
			var target int32
			switch d.Tag() {
			case mem.TagRef:
				target = tbl.Var
			case mem.TagCon, mem.TagInt:
				target = tbl.Con
			case mem.TagLis:
				target = tbl.Lis
			case mem.TagStr:
				target = tbl.Str
			default:
				target = -1
			}
			if target < 0 {
				w.fail()
				goto next
			}
			w.pc = target

		case isa.OpSwitchOnConstant:
			tbl := e.code.Switches[ins.N]
			d := w.deref(w.regs[0])
			if target, ok := tbl.Cases[d]; ok {
				w.pc = target
				goto next
			}
			if tbl.Default >= 0 {
				w.pc = tbl.Default
				goto next
			}
			w.fail()

		case isa.OpSwitchOnStructure:
			tbl := e.code.Switches[ins.N]
			d := w.deref(w.regs[0])
			f := w.read(d.Addr(), trace.ObjHeap)
			if target, ok := tbl.Cases[mem.Word(f.Index())]; ok {
				w.pc = target
				goto next
			}
			if tbl.Default >= 0 {
				w.pc = tbl.Default
				goto next
			}
			w.fail()

		// --- cut ---

		case isa.OpNeckCut:
			if w.b != w.b0 {
				w.b = w.b0
				w.resetHBAfterCut()
				w.recoverCtlAfterCut()
			}
			w.pc++

		case isa.OpGetLevel:
			w.write(w.yaddr(int(ins.R1)), mem.MakeRef(encAddr(w.b0)), trace.ObjEnvPVar)
			w.pc++

		case isa.OpCutY:
			level := decAddr(w.read(w.yaddr(int(ins.R1)), trace.ObjEnvPVar))
			if w.b != level {
				w.b = level
				w.resetHBAfterCut()
				w.recoverCtlAfterCut()
			}
			w.pc++

		// --- get ---

		case isa.OpGetVariableX:
			w.regs[ins.R1] = w.regs[ins.R2]
			w.pc++

		case isa.OpGetVariableY:
			w.write(w.yaddr(int(ins.R1)), w.regs[ins.R2], trace.ObjEnvPVar)
			w.pc++

		case isa.OpGetValueX:
			if !w.unify(w.regs[ins.R1], w.regs[ins.R2]) {
				w.fail()
				goto next
			}
			w.pc++

		case isa.OpGetValueY:
			if !w.unify(mem.MakeRef(w.yaddr(int(ins.R1))), w.regs[ins.R2]) {
				w.fail()
				goto next
			}
			w.pc++

		case isa.OpGetConstant:
			if !w.unifyConstant(w.regs[ins.R2], ins.W) {
				w.fail()
				goto next
			}
			w.pc++

		case isa.OpGetNil:
			if !w.unifyConstant(w.regs[ins.R2], mem.MakeCon(isa.NilAtom)) {
				w.fail()
				goto next
			}
			w.pc++

		case isa.OpGetStructure:
			d := w.deref(w.regs[ins.R2])
			switch d.Tag() {
			case mem.TagRef:
				w.checkHeap()
				w.write(w.h, mem.MakeFun(int(ins.N)), trace.ObjHeap)
				w.bind(d.Addr(), mem.MakeStr(w.h))
				w.h++
				w.mode = modeWrite
			case mem.TagStr:
				f := w.read(d.Addr(), trace.ObjHeap)
				if f.Index() != int(ins.N) {
					w.fail()
					goto next
				}
				w.s = d.Addr() + 1
				w.mode = modeRead
			default:
				w.fail()
				goto next
			}
			w.pc++

		case isa.OpGetList:
			d := w.deref(w.regs[ins.R2])
			switch d.Tag() {
			case mem.TagRef:
				w.bind(d.Addr(), mem.MakeLis(w.h))
				w.mode = modeWrite
			case mem.TagLis:
				w.s = d.Addr()
				w.mode = modeRead
			default:
				w.fail()
				goto next
			}
			w.pc++

		// --- put ---

		case isa.OpPutVariableX:
			w.checkHeap()
			w.write(w.h, mem.MakeRef(w.h), trace.ObjHeap)
			w.regs[ins.R1] = mem.MakeRef(w.h)
			w.regs[ins.R2] = mem.MakeRef(w.h)
			w.h++
			w.pc++

		case isa.OpPutVariableY:
			addr := w.yaddr(int(ins.R1))
			w.write(addr, mem.MakeRef(addr), trace.ObjEnvPVar)
			w.regs[ins.R2] = mem.MakeRef(addr)
			w.pc++

		case isa.OpPutValueX:
			w.regs[ins.R2] = w.regs[ins.R1]
			w.pc++

		case isa.OpPutValueY:
			w.regs[ins.R2] = w.read(w.yaddr(int(ins.R1)), trace.ObjEnvPVar)
			w.pc++

		case isa.OpPutUnsafeValue:
			d := w.deref(mem.MakeRef(w.yaddr(int(ins.R1))))
			if d.Tag() == mem.TagRef && w.local.Contains(d.Addr()) {
				// Globalize: the environment is about to be discarded.
				w.checkHeap()
				w.write(w.h, mem.MakeRef(w.h), trace.ObjHeap)
				w.bind(d.Addr(), mem.MakeRef(w.h))
				w.regs[ins.R2] = mem.MakeRef(w.h)
				w.h++
			} else {
				w.regs[ins.R2] = d
			}
			w.pc++

		case isa.OpPutConstant:
			w.regs[ins.R2] = ins.W
			w.pc++

		case isa.OpPutNil:
			w.regs[ins.R2] = mem.MakeCon(isa.NilAtom)
			w.pc++

		case isa.OpPutStructure:
			w.checkHeap()
			w.write(w.h, mem.MakeFun(int(ins.N)), trace.ObjHeap)
			w.regs[ins.R2] = mem.MakeStr(w.h)
			w.h++
			w.mode = modeWrite
			w.pc++

		case isa.OpPutList:
			w.regs[ins.R2] = mem.MakeLis(w.h)
			w.mode = modeWrite
			w.pc++

		// --- unify ---

		case isa.OpUnifyVariableX:
			if w.mode == modeRead {
				w.regs[ins.R1] = w.read(w.s, trace.ObjHeap)
				w.s++
			} else {
				w.checkHeap()
				w.write(w.h, mem.MakeRef(w.h), trace.ObjHeap)
				w.regs[ins.R1] = mem.MakeRef(w.h)
				w.h++
			}
			w.pc++

		case isa.OpUnifyVariableY:
			if w.mode == modeRead {
				v := w.read(w.s, trace.ObjHeap)
				w.write(w.yaddr(int(ins.R1)), v, trace.ObjEnvPVar)
				w.s++
			} else {
				w.checkHeap()
				w.write(w.h, mem.MakeRef(w.h), trace.ObjHeap)
				w.write(w.yaddr(int(ins.R1)), mem.MakeRef(w.h), trace.ObjEnvPVar)
				w.h++
			}
			w.pc++

		case isa.OpUnifyValueX:
			if w.mode == modeRead {
				if !w.unify(w.regs[ins.R1], mem.MakeRef(w.s)) {
					w.fail()
					goto next
				}
				w.s++
			} else {
				w.checkHeap()
				w.write(w.h, w.regs[ins.R1], trace.ObjHeap)
				w.h++
			}
			w.pc++

		case isa.OpUnifyValueY:
			if w.mode == modeRead {
				if !w.unify(mem.MakeRef(w.yaddr(int(ins.R1))), mem.MakeRef(w.s)) {
					w.fail()
					goto next
				}
				w.s++
			} else {
				w.checkHeap()
				v := w.read(w.yaddr(int(ins.R1)), trace.ObjEnvPVar)
				w.write(w.h, v, trace.ObjHeap)
				w.h++
			}
			w.pc++

		case isa.OpUnifyLocalValueX:
			if w.mode == modeRead {
				if !w.unify(w.regs[ins.R1], mem.MakeRef(w.s)) {
					w.fail()
					goto next
				}
				w.s++
			} else {
				w.regs[ins.R1] = w.pushLocalValue(w.deref(w.regs[ins.R1]))
			}
			w.pc++

		case isa.OpUnifyLocalValueY:
			if w.mode == modeRead {
				if !w.unify(mem.MakeRef(w.yaddr(int(ins.R1))), mem.MakeRef(w.s)) {
					w.fail()
					goto next
				}
				w.s++
			} else {
				w.pushLocalValue(w.deref(mem.MakeRef(w.yaddr(int(ins.R1)))))
			}
			w.pc++

		case isa.OpUnifyConstant:
			if w.mode == modeRead {
				if !w.unifyConstant(mem.MakeRef(w.s), ins.W) {
					w.fail()
					goto next
				}
				w.s++
			} else {
				w.checkHeap()
				w.write(w.h, ins.W, trace.ObjHeap)
				w.h++
			}
			w.pc++

		case isa.OpUnifyNil:
			nilW := mem.MakeCon(isa.NilAtom)
			if w.mode == modeRead {
				if !w.unifyConstant(mem.MakeRef(w.s), nilW) {
					w.fail()
					goto next
				}
				w.s++
			} else {
				w.checkHeap()
				w.write(w.h, nilW, trace.ObjHeap)
				w.h++
			}
			w.pc++

		case isa.OpUnifyVoid:
			n := int(ins.N)
			if w.mode == modeRead {
				w.s += n
			} else {
				for i := 0; i < n; i++ {
					w.checkHeap()
					w.write(w.h, mem.MakeRef(w.h), trace.ObjHeap)
					w.h++
				}
			}
			w.pc++

		// --- arithmetic ---

		case isa.OpArith:
			if !w.arith(ins) {
				w.fail()
				goto next
			}
			w.pc++

		case isa.OpCompare:
			a := w.regs[ins.R1].Int()
			b := w.regs[ins.R2].Int()
			var ok bool
			switch isa.CompareOp(ins.N) {
			case isa.CmpLT:
				ok = a < b
			case isa.CmpGT:
				ok = a > b
			case isa.CmpLE:
				ok = a <= b
			case isa.CmpGE:
				ok = a >= b
			case isa.CmpEQ:
				ok = a == b
			case isa.CmpNE:
				ok = a != b
			}
			if !ok {
				w.fail()
				goto next
			}
			w.pc++

		// --- builtins ---

		case isa.OpBuiltin:
			ok, jumped := w.builtin(isa.Builtin(ins.N), int(ins.R1))
			if !ok {
				w.fail()
				goto next
			}
			if !jumped {
				w.pc++
			}

		// --- AND-parallel ---

		case isa.OpCheckGround:
			if !w.groundCheck(w.regs[ins.R1]) {
				w.checkFails++
				w.pc = ins.N
				goto next
			}
			w.pc++

		case isa.OpCheckIndep:
			if !w.indepCheck(w.regs[ins.R1], w.regs[ins.R2]) {
				w.checkFails++
				w.pc = ins.N
				goto next
			}
			w.pc++

		case isa.OpPFrame:
			w.allocPFrame(int(ins.R1), ins.N)
			w.pc++

		case isa.OpPushGoal:
			w.pushGoal(w.pf, int(ins.R2), ins.N, int(ins.R1))
			w.pc++

		case isa.OpPCallLocal:
			w.pcallLocal(ins.N, int(ins.R2))

		default:
			w.machinePanic(fmt.Sprintf("pe%d: unimplemented opcode %v", w.pe, ins.Op))
		}
	next:
		if e.schedSeq != seq {
			return true
		}
		if steps--; steps <= 0 {
			return false
		}
		e.cycle++
	}
}

// yaddr returns the address of permanent variable n in the current
// environment.
func (w *worker) yaddr(n int) int {
	if w.e == none {
		w.machinePanic(fmt.Sprintf("pe%d: Y%d access with no environment", w.pe, n))
	}
	return w.e + envHdr + n
}

// resetHBAfterCut refreshes HB after B moved backwards.
func (w *worker) resetHBAfterCut() {
	if w.b != none {
		w.hb = decAddr(w.read(w.b+cpSavedH, trace.ObjChoicePoint))
	} else {
		w.hb = w.hbFloor
	}
}

// recoverCtlAfterCut reclaims the control stack above the new B: the
// choice points a cut discards are dead (the WAM's tight control-stack
// recovery, which the paper's storage-efficiency claims rely on).
func (w *worker) recoverCtlAfterCut() {
	top := w.ctl.Base
	if w.gm != none && w.gm+mkSize > top {
		top = w.gm + mkSize
	}
	if w.b != none {
		arity := int(w.read(w.b+cpArity, trace.ObjChoicePoint).Int())
		if end := w.b + cpHdr + arity; end > top {
			top = end
		}
	}
	if top < w.ctlTop {
		w.ctlTop = top
	}
}

// pushLocalValue implements unify_local_value's write mode: push the
// dereferenced value, globalizing a stack-resident unbound variable.
func (w *worker) pushLocalValue(d mem.Word) mem.Word {
	w.checkHeap()
	if d.Tag() == mem.TagRef {
		addr := d.Addr()
		if _, area := w.mem.Classify(addr); area == trace.AreaLocal || area == trace.AreaGoal {
			// Globalize onto this worker's heap.
			w.write(w.h, mem.MakeRef(w.h), trace.ObjHeap)
			w.bind(addr, mem.MakeRef(w.h))
			nw := mem.MakeRef(w.h)
			w.h++
			return nw
		}
	}
	w.write(w.h, d, trace.ObjHeap)
	w.h++
	return d
}

// fail performs backtracking: restore from the youngest choice point, or
// report goal/query failure when none exists.
func (w *worker) fail() {
	if w.b == none {
		if w.gm != none {
			w.parGoalFail()
			return
		}
		// Query failure.
		w.eng.halt(false, none)
		return
	}
	b := w.b
	arity := int(w.read(b+cpArity, trace.ObjChoicePoint).Int())
	for i := 0; i < arity; i++ {
		w.regs[i] = w.read(b+cpHdr+i, trace.ObjChoicePoint)
	}
	w.unwindTrail(int(w.read(b+cpSavedTR, trace.ObjChoicePoint).Int()))
	w.h = decAddr(w.read(b+cpSavedH, trace.ObjChoicePoint))
	w.hb = w.h
	w.e = decAddr(w.read(b+cpSavedE, trace.ObjChoicePoint))
	w.cp = int32(w.read(b+cpSavedCP, trace.ObjChoicePoint).Int())
	w.pf = decAddr(w.read(b+cpSavedPF, trace.ObjChoicePoint))
	w.b0 = decAddr(w.read(b+cpSavedB0, trace.ObjChoicePoint))
	w.localTop = decAddr(w.read(b+cpSavedLo, trace.ObjChoicePoint))
	w.ctlTop = b + cpHdr + arity
	w.pc = int32(w.read(b+cpAltP, trace.ObjChoicePoint).Int())
}
