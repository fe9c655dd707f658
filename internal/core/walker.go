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
	"vrsim/internal/mem"
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

// fetch returns the instruction at the walker's PC, in place.
func (w *walker) fetch() *isa.Instr { return w.prog.At(w.pc) }

// srcOK reports whether every register the instruction reads is valid,
// and returns the values of its Src1 and Src2.
func (w *walker) srcOK(in *isa.Instr) (a, b uint64, ok bool) {
	return w.regs[in.Src1], w.regs[in.Src2], readsAll(in, &w.valid)
}

// readsAll reports whether set is true for every register the
// instruction reads.
func readsAll(in *isa.Instr, set *[regSpace]bool) bool {
	rs := in.Reads()
	return (rs&isa.ReadSrc1 == 0 || set[in.Src1]) &&
		(rs&isa.ReadSrc2 == 0 || set[in.Src2]) &&
		(rs&isa.ReadDst == 0 || set[in.Dst])
}

// readsAny reports whether set is true for some register the instruction
// reads.
func readsAny(in *isa.Instr, set *[regSpace]bool) bool {
	rs := in.Reads()
	return rs&isa.ReadSrc1 != 0 && set[in.Src1] ||
		rs&isa.ReadSrc2 != 0 && set[in.Src2] ||
		rs&isa.ReadDst != 0 && set[in.Dst]
}

// branchStep follows a branch: the actual direction when operands are
// valid, the predicted direction otherwise. It advances pc and hist.
func (w *walker) branchStep(in *isa.Instr) {
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
}

// aluStep executes a non-memory, non-branch instruction in the transient
// context, propagating INV, and advances pc.
func (w *walker) aluStep(in *isa.Instr) {
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

// stepResult is what walker.step did with one instruction, for the
// engines' own counters.
type stepResult uint8

const (
	stepNone     stepResult = iota // a branch, an ALU op, or a store with an INV address
	stepLoad                       // a load issued to the hierarchy
	stepPoisoned                   // a load skipped for an INV address; its Dst is poisoned
	stepStore                      // a store whose target line was prefetched
)

// step pre-executes one instruction in the transient context at cycle now
// under the INV discipline: a load issues as a runahead access and yields
// a value only on an L1 hit, and a store prefetches its line (runahead
// makes no transient memory writes). It advances pc.
func (w *walker) step(c *cpu.Core, in *isa.Instr, now uint64) stepResult {
	res := stepNone
	switch {
	case in.IsBranch():
		w.branchStep(in)
		return stepNone
	case in.IsLoad():
		a, b, ok := w.srcOK(in)
		if !ok {
			w.valid[in.Dst] = false
			res = stepPoisoned
			break
		}
		addr := isa.EffAddr(in, a, b)
		if c.Hier().Access(now, w.pc, addr, false, mem.ClassRunahead, mem.SrcRunahead).Level == mem.AtL1 {
			w.regs[in.Dst] = c.Data().Load(addr)
			w.valid[in.Dst] = true
		} else {
			w.valid[in.Dst] = false // INV: data not back in time
		}
		res = stepLoad
	case in.IsStore():
		if a, b, ok := w.srcOK(in); ok {
			c.Hier().Access(now, w.pc, isa.EffAddr(in, a, b), false, mem.ClassRunahead, mem.SrcRunahead)
			res = stepStore
		}
	default:
		w.aluStep(in)
		return stepNone
	}
	w.pc++
	return res
}
