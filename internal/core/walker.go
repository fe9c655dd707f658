// Package core implements the paper's contribution — Vector Runahead (VR)
// — together with the Precise Runahead (PRE) baseline it is evaluated
// against. Both are built as runahead engines attached to the out-of-order
// core (cpu.Engine): they observe the full-ROB-stall trigger, pre-execute
// the predicted future instruction stream in a transient register context,
// and issue loads into the shared memory hierarchy, where the prefetched
// lines (and the MSHR/DRAM contention they cause) are visible to the main
// thread.
//
// The engines follow the runahead literature's INV discipline: a
// pre-executed load produces a usable value only if it hits in the L1-D;
// otherwise its destination is poisoned and dependents are skipped. This
// single rule reproduces the paper's central observation — classic and
// precise runahead prefetch at most one level of an indirect chain, because
// the next level's address is poisoned. Vector Runahead escapes it by
// *waiting* for entire gather waves (VR's in-order vector subthread
// semantics), overlapping VectorLength independent misses per chain level
// instead of running past them.
package core

import (
	"vrsim/internal/branch"
	"vrsim/internal/cpu"
	"vrsim/internal/isa"
)

// regSpace sizes per-register arrays to the full uint8 index space of
// isa.Reg: indexing such an array with a Reg-typed value is provably in
// bounds, so the pre-execution hot paths carry no bounds checks. Only
// the first isa.NumRegs entries are ever populated — the ISA validates
// register operands at program build time.
const regSpace = 256

// walker is the transient pre-execution context shared by the runahead
// engines: an approximate scalar register file with INV bits, a program
// counter, and a local branch-history register for walking the predicted
// future path.
type walker struct {
	prog  *isa.Program
	pred  branch.Predictor
	regs  [regSpace]uint64
	valid [regSpace]bool
	pc    int
	hist  uint64
	steps uint64 // instructions walked this activation
}

// newWalker snapshots the core's approximate context into a fresh walker.
func newWalker(c *cpu.Core) walker {
	ctx, startPC := c.ApproxContext()
	w := walker{
		prog: c.Program(),
		pred: c.Predictor(),
		pc:   startPC,
		hist: c.GHR(),
	}
	copy(w.regs[:isa.NumRegs], ctx.Regs[:])
	copy(w.valid[:isa.NumRegs], ctx.Valid[:])
	return w
}

// fetch returns the instruction at the walker's PC.
func (w *walker) fetch() isa.Instr { return w.prog.At(w.pc) }

// srcOK reports whether both register sources needed by in are valid, and
// returns their values.
func (w *walker) srcOK(in isa.Instr) (a, b uint64, ok bool) {
	a, b = w.regs[in.Src1], w.regs[in.Src2]
	ok = true
	var srcBuf [3]isa.Reg // stack scratch: Sources appends at most 3 regs
	for _, r := range in.Sources(srcBuf[:0]) {
		if !w.valid[r] {
			ok = false
		}
	}
	return a, b, ok
}

// branchStep follows a branch: the actual direction when operands are
// valid, the predicted direction otherwise. It advances pc and hist and
// returns the direction followed.
func (w *walker) branchStep(in isa.Instr) bool {
	var taken bool
	if in.Op == isa.Jmp {
		taken = true
	} else if a, b, ok := w.srcOK(in); ok {
		taken = isa.BranchTaken(in, a, b)
	} else {
		taken = w.pred.Predict(w.pc, w.hist)
	}
	if in.IsCondBranch() {
		w.hist <<= 1
		if taken {
			w.hist |= 1
		}
	}
	if taken {
		w.pc = in.Target
	} else {
		w.pc++
	}
	return taken
}

// aluStep executes a non-memory, non-branch instruction in the transient
// context, propagating INV, and advances pc.
func (w *walker) aluStep(in isa.Instr) {
	if in.WritesDst() {
		a, b, ok := w.srcOK(in)
		if ok {
			w.regs[in.Dst] = isa.ALUResult(in, a, b)
			w.valid[in.Dst] = true
		} else {
			w.valid[in.Dst] = false
		}
	}
	w.pc++
}
