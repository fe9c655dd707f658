package core

import "vrsim/internal/isa"

// Loop-bound-aware vectorization: an extension beyond the ISCA 2021 design.
//
// The paper's evaluation acknowledges that Vector Runahead over-fetches
// when inner loops are short (bfs on the UR input "evicts useful data from
// the cache and wastes DRAM bandwidth"), because vectorization always spawns
// VectorLength future iterations regardless of how many the loop has left.
// The follow-on work fixes this with a run-time Discovery Mode; this module
// implements the lightweight static version that our kernels' common shape
// admits: when the striding load indexes through a register that a backward
// loop branch compares against a loop-invariant bound, lanes beyond the
// remaining trip count are masked off at vectorization time.
//
// Enabled with VRConfig.LoopBoundAware; off by default to stay faithful to
// the paper's mechanism. The A6 ablation quantifies its effect.

// loopBound describes an inferred loop-control comparison.
type loopBound struct {
	op    isa.Op  // the backward branch's comparison
	bound uint64  // loop-invariant bound value
	induc isa.Reg // the induction register (the striding load's index)
	found bool
}

// inferLoopBound statically scans from the striding load for the loop's
// backward branch and extracts the (induction register, bound) comparison,
// provided the branch tests the striding load's index register directly
// against a register whose scalar value is valid in the walker context.
func (v *VR) inferLoopBound(strideIn isa.Instr) loopBound {
	induc := strideIn.Src2
	if induc == 0 {
		return loopBound{} // no index register: no inference
	}
	pc := v.stridePC + 1
	hist := v.w.hist
	for steps := uint64(0); steps < v.cfg.MaxChainInstrs; steps++ {
		in := v.w.prog.At(pc)
		if in.IsHalt() {
			break
		}
		// Note: updates to the induction register before the branch (the
		// common i++ shape) keep comparing the same register, so the scan
		// continues through them.
		if in.IsCondBranch() && in.Target <= v.stridePC {
			// The backward branch. Accept the canonical shape — the
			// induction register as the first operand (or either operand
			// for the symmetric Beq/Bne) against a valid scalar bound.
			var boundReg isa.Reg
			switch {
			case in.Src1 == induc:
				boundReg = in.Src2
			case in.Src2 == induc && (in.Op == isa.Beq || in.Op == isa.Bne):
				boundReg = in.Src1
			default:
				return loopBound{}
			}
			if !v.w.valid[boundReg] {
				return loopBound{}
			}
			return loopBound{op: in.Op, bound: v.w.regs[boundReg], induc: induc, found: true}
		}
		if in.IsBranch() {
			var taken bool
			if in.Op == isa.Jmp {
				taken = true
			} else {
				taken = v.w.pred.Predict(pc, hist)
				hist <<= 1
				if taken {
					hist |= 1
				}
			}
			if taken {
				pc = in.Target
			} else {
				pc++
			}
			continue
		}
		pc++
	}
	return loopBound{}
}

// maskBeyondBound masks lanes whose induction value would already have
// exited the loop. Lane i's induction value is the walker's current index
// plus (i+1) index steps, mirroring the lane addresses.
func (v *VR) maskBeyondBound(lb loopBound, strideIn isa.Instr) {
	if !lb.found || !v.w.valid[lb.induc] {
		return
	}
	idxStep := v.strideStep >> strideIn.Scale
	if idxStep == 0 {
		return
	}
	cur := v.w.regs[lb.induc]
	for i := 0; i < v.cfg.VectorLength; i++ {
		if !v.mask[i] {
			continue
		}
		lane := uint64(int64(cur) + int64(i+1)*idxStep)
		// Taken on the backward branch means the loop continues; lanes
		// whose induction value fails the test lie past the loop's end.
		if !isa.BranchTaken(isa.Instr{Op: lb.op}, lane, lb.bound) {
			v.mask[i] = false
			v.Stats.LanesBoundMasked++
		}
	}
}
