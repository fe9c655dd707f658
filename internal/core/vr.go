package core

import (
	"vrsim/internal/cpu"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/prefetch"
)

// VRConfig tunes the Vector Runahead engine.
type VRConfig struct {
	// VectorLength is the number of scalar-equivalent lanes — how many
	// future loop iterations one speculative vectorization covers.
	VectorLength int
	// LaneWidth is the number of 64-bit lanes per vector micro-op
	// (8 for AVX-512); a vector operation over VectorLength lanes costs
	// ceil(VectorLength/LaneWidth) issue slots.
	LaneWidth int
	// MaxChainInstrs bounds one vectorized chain (the paper uses a
	// 200-instruction timeout for chains that escape the loop).
	MaxChainInstrs uint64
	// MaxInstrsPerActivation bounds a whole runahead activation.
	MaxInstrsPerActivation uint64
	// DelayedTermination keeps runahead alive (stalling commit) until the
	// current vectorized chain has issued all its gathers, even after the
	// blocking load returns — the paper's delayed termination. Disabling
	// it is the F13 companion ablation.
	DelayedTermination bool
	// MaxHoldCycles bounds how long delayed termination may stall commit
	// past the blocking load's return before the chain is abandoned — the
	// cycle-domain analogue of the paper's chain-instruction timeout.
	MaxHoldCycles uint64
	// MinInterval is the minimum remaining latency of the blocking load
	// for runahead to be worth entering; runahead proposals trigger on
	// off-chip misses, not loads about to return from L2/L3.
	MinInterval uint64
	// StrideEntries sizes the striding-load detector (RPT).
	StrideEntries int
	// LoopBoundAware enables the loop-bound extension (loopbound.go):
	// lanes past the inner loop's remaining trip count are masked at
	// vectorization time instead of prefetching beyond the loop. Off by
	// default — the ISCA 2021 design has no bound analysis (its UR-input
	// over-fetch is a documented behaviour this reproduction preserves).
	LoopBoundAware bool
	// Reconverge enables the divergence-stack extension (reconverge.go):
	// lanes taking the other side of a data-dependent branch are stashed
	// and later run their own path, instead of being invalidated. Off by
	// default — plain VR masks divergent lanes.
	Reconverge bool
}

// DefaultVRConfig returns the paper's VR configuration: 64 scalar-equivalent
// lanes issued as 8-wide vector uops, delayed termination on.
func DefaultVRConfig() VRConfig {
	return VRConfig{
		VectorLength:           64,
		LaneWidth:              8,
		MaxChainInstrs:         200,
		MaxInstrsPerActivation: 4096,
		DelayedTermination:     true,
		MaxHoldCycles:          32,
		MinInterval:            96,
		StrideEntries:          32,
	}
}

// VRStats counts Vector Runahead activity.
type VRStats struct {
	Activations      uint64
	ChainsVectorized uint64 // vectorization episodes (incl. re-rounds)
	GatherLoads      uint64 // scalar-equivalent loads issued from gathers
	VectorUops       uint64 // vector micro-ops issued
	ScalarInstrs     uint64 // scalar instructions pre-executed
	ScalarLoads      uint64 // scalar runahead loads issued
	LanesMasked      uint64 // lanes invalidated by divergence or INV
	LanesBoundMasked uint64 // lanes masked by the loop-bound extension
	LanesStashed     uint64 // divergent lanes stashed for later execution
	LanesResumed     uint64 // stashed lanes resumed on their own path
	DelayedCycles    uint64 // cycles commit was held by delayed termination
}

// VR is the Vector Runahead engine (Naithani et al., ISCA 2021). On a
// full-ROB stall with a load miss at the head it pre-executes the predicted
// future stream like PRE — until it reaches a load its Reference Prediction
// Table knows to be striding. It then speculatively vectorizes: the
// striding load is replaced by VectorLength future copies (a gather of
// lanes lastAddr + k*stride), its destination register is tainted, and
// every subsequent instruction with a tainted source executes as a vector
// across all active lanes, issuing dependent gathers that put VectorLength
// independent misses in flight per chain level. Branch outcomes follow lane
// 0; diverging lanes are masked off (invalidated), as in the paper. When a
// chain completes (control returns to the striding load) and the blocking
// load is still outstanding, the next VectorLength iterations are
// vectorized; if the blocking load has returned, delayed termination holds
// commit until the chain's gathers finish issuing.
type VR struct {
	cfg VRConfig

	strides *prefetch.StrideTable

	active bool
	blDone uint64
	w      walker
	now    uint64

	// Vectorized-chain state. The per-register tables are regSpace-sized
	// (full uint8 index space) so Reg-typed indexing is provably in
	// bounds; only the first isa.NumRegs entries carry lane arrays.
	vec          bool
	taint        [regSpace]bool
	vregs        [regSpace][]uint64
	vvalid       [regSpace][]bool
	mask         []bool
	stridePC     int
	strideBase   uint64 // address of lane 0 for the *next* round
	strideStep   int64
	chainInstrs  uint64
	finalLoadPC  int  // last load of the dependence chain (the FLR)
	boundLimited bool // the loop-bound extension masked lanes this chain
	// coveredPC/coveredUntil remember the highest lane address a
	// bound-limited chain issued for a striding load, so the walker does
	// not redundantly re-vectorize a loop invocation it already covered.
	coveredPC    int
	coveredUntil uint64
	// diverge stashes lane groups that took the other branch direction
	// (the Reconverge extension). Its backing array and per-entry masks
	// are preallocated at construction and reused across episodes.
	diverge []divergePoint

	// laneAddrs and otherMask are per-step lane scratch, owned exclusively
	// by the step that is currently executing: laneAddrs carries gather
	// addresses from computation to issue, otherMask collects a branch's
	// divergent minority before it is stashed or discarded. Neither is
	// read across steps, so one buffer of each serves every episode.
	laneAddrs []uint64
	otherMask []bool

	waitUntil  uint64 // gather data in flight: no steps before this
	uopBacklog int    // issue slots owed from wide vector ops

	Stats VRStats
}

// NewVR returns a Vector Runahead engine. All per-lane scratch — the
// active mask, the vector register file, gather address and divergence
// buffers — is allocated here once and reused for the engine's lifetime;
// no steady-state path allocates.
func NewVR(cfg VRConfig) *VR {
	v := &VR{
		cfg:       cfg,
		strides:   prefetch.NewStrideTable(cfg.StrideEntries),
		mask:      make([]bool, cfg.VectorLength),
		laneAddrs: make([]uint64, cfg.VectorLength),
		otherMask: make([]bool, cfg.VectorLength),
		diverge:   make([]divergePoint, 0, maxDivergeStack),
	}
	for r := 0; r < isa.NumRegs; r++ {
		v.vregs[r] = make([]uint64, cfg.VectorLength)
		v.vvalid[r] = make([]bool, cfg.VectorLength)
	}
	for i := 0; i < maxDivergeStack; i++ {
		v.diverge = append(v.diverge, divergePoint{mask: make([]bool, cfg.VectorLength)})
	}
	v.diverge = v.diverge[:0]
	return v
}

// Bind attaches the engine to a core: it becomes the core's runahead engine
// and trains its stride detector on the main thread's issued loads (the
// paper's stride detector snoops the dispatch/execute stages).
func (v *VR) Bind(c *cpu.Core) {
	c.AttachEngine(v)
	//vrlint:allow observe -- LoadObserver here is the stride detector's training tap, simulator machinery by design, not a validation observer; it must write prefetcher state
	c.LoadObserver = func(pc int, addr uint64) { v.strides.Observe(pc, addr) }
}

// Active reports whether a runahead activation is in progress.
func (v *VR) Active() bool { return v.active }

// HoldCommit implements cpu.Engine: delayed termination.
func (v *VR) HoldCommit() bool {
	hold := v.Holding()
	if hold {
		v.Stats.DelayedCycles++
	}
	return hold
}

// Holding reports the delayed-termination commit hold without the stats
// side effect HoldCommit carries — the side-effect-free predicate the
// runtime invariant checker queries at every retirement to assert that no
// instruction commits architecturally while the engine demands a hold.
func (v *VR) Holding() bool {
	return v.cfg.DelayedTermination && v.active && v.vec && v.now >= v.blDone
}

// EngineIdle implements cpu.EngineIdler: with no activation in progress,
// every Tick over a stall window whose blocking load returns inside
// MinInterval is the activation check falling through — the trigger
// condition bl.Done >= t+MinInterval only gets harder as t grows, so the
// whole window is provably inert and the core may skip it.
func (v *VR) EngineIdle(now, blDone uint64) bool {
	return !v.active && blDone < now+v.cfg.MinInterval
}

// Tick implements cpu.Engine.
func (v *VR) Tick(c *cpu.Core) {
	v.now = c.Cycle()
	if !v.active {
		bl, ok := c.BlockedLoadAtHead()
		if !ok || !bl.Full || bl.Done < v.now+v.cfg.MinInterval {
			return
		}
		v.w = newWalker(c)
		v.blDone = bl.Done
		v.active = true
		v.vec = false
		v.uopBacklog = 0
		v.waitUntil = 0
		v.Stats.Activations++
	}

	// Outside a vectorized chain, the interval ends when the blocking load
	// returns (as in PRE). Inside one, delayed termination lets the chain
	// finish first — up to the hold bound, past which the chain is
	// abandoned rather than stalling commit indefinitely.
	if v.now >= v.blDone {
		if !v.vec || !v.cfg.DelayedTermination {
			v.deactivate()
			return
		}
		if v.now >= v.blDone+v.cfg.MaxHoldCycles {
			v.deactivate()
			return
		}
	}

	budget := c.SpareIssueSlots()
	if v.uopBacklog > 0 {
		use := budget
		if use > v.uopBacklog {
			use = v.uopBacklog
		}
		v.uopBacklog -= use
		budget -= use
	}
	for budget > 0 && v.active && (!v.vec || v.now >= v.waitUntil) && v.uopBacklog == 0 {
		cost := v.step(c)
		budget -= cost
		if budget < 0 {
			v.uopBacklog = -budget
			budget = 0
		}
	}
}

func (v *VR) deactivate() {
	v.active = false
	v.vec = false
	v.diverge = v.diverge[:0]
	// The pooled vector registers keep their (stale) lane values; taint is
	// the access guard — laneVal never reads a register whose taint is
	// clear, and re-tainting always writes every lane first.
	for r := range v.taint {
		v.taint[r] = false
	}
}

// endChain leaves vectorized mode; runahead itself ends if the blocking
// load already returned. The walker does not wait for the final gather's
// data — the paper's delayed termination only covers *generating* the
// chain's memory accesses. Under the Reconverge extension, stashed
// divergent lane groups run their paths to completion first.
func (v *VR) endChain() {
	if v.resumeDivergent() {
		return // still in vectorized mode, on the stashed group's path
	}
	v.vec = false
	v.waitUntil = 0
	for r := range v.taint {
		v.taint[r] = false
	}
	if v.now >= v.blDone {
		v.deactivate()
	}
}

// step pre-executes one instruction and returns its issue-slot cost.
func (v *VR) step(c *cpu.Core) int {
	in := v.w.fetch()
	v.w.steps++
	if v.w.steps > v.cfg.MaxInstrsPerActivation || in.IsHalt() {
		v.deactivate()
		return 1
	}
	if v.vec {
		v.chainInstrs++
		if v.chainInstrs > v.cfg.MaxChainInstrs {
			v.endChain()
			return 1
		}
		// Control returning to the striding load means the chain is
		// complete for these lanes; either re-vectorize the next
		// VectorLength iterations or finish. Bound-limited chains
		// re-derive the lane base from the walker's (scalar-updated)
		// induction state rather than skipping a full VectorLength ahead,
		// so successive invocations of a short inner loop each get their
		// own correctly-masked wave.
		if v.w.pc == v.stridePC {
			wasBound := v.boundLimited
			v.endChain()
			if !v.active {
				return 1
			}
			if wasBound {
				if a, b, okSrc := v.w.srcOK(in); okSrc {
					v.strideBase = isa.EffAddr(in, a, b)
				}
				if v.alreadyCovered(v.strideBase) {
					// This invocation's remaining lanes are in flight;
					// walk it in scalar mode until fresh territory.
					v.scalarStep(c, in)
					return 1
				}
			}
			return v.vectorize(c, in)
		}
		if v.anyTaintedSource(in) {
			return v.vecStep(c, in)
		}
		// Scalar instruction inside the chain: a scalar write to a
		// tainted register un-taints it (the WAW rule in §4.2.1 of the
		// follow-on's description of the VRAT).
		if in.WritesDst() {
			v.taint[in.Dst] = false
		}
		v.scalarStep(c, in)
		return 1
	}

	// Scalar pre-execution; a confident striding load starts vectorization.
	if in.IsLoad() {
		if e, ok := v.strides.Lookup(v.w.pc); ok && e.Confident() {
			v.stridePC = v.w.pc
			v.strideStep = e.Stride
			if a, b, okSrc := v.w.srcOK(in); okSrc {
				v.strideBase = isa.EffAddr(in, a, b)
			} else {
				v.strideBase = e.LastAddr
			}
			if !v.alreadyCovered(v.strideBase) {
				return v.vectorize(c, in)
			}
		}
	}
	v.scalarStep(c, in)
	return 1
}

// alreadyCovered reports whether a bound-limited chain already issued
// gathers at and beyond base for the current striding load (positive
// strides only; the common ascending-loop case).
func (v *VR) alreadyCovered(base uint64) bool {
	return v.cfg.LoopBoundAware && v.coveredPC == v.stridePC &&
		v.strideStep > 0 && base+uint64(v.strideStep) <= v.coveredUntil
}

// scalarStep is the PRE-style scalar transient execution path.
func (v *VR) scalarStep(c *cpu.Core, in isa.Instr) {
	v.Stats.ScalarInstrs++
	switch {
	case in.IsBranch():
		v.w.branchStep(in)
	case in.IsLoad():
		a, b, ok := v.w.srcOK(in)
		if !ok {
			v.w.valid[in.Dst] = false
			v.w.pc++
			return
		}
		addr := isa.EffAddr(in, a, b)
		res := c.Hier().Access(v.now, v.w.pc, addr, false, mem.ClassRunahead, mem.SrcRunahead)
		v.Stats.ScalarLoads++
		if res.Level == mem.AtL1 {
			v.w.regs[in.Dst] = c.Data().Load(addr)
			v.w.valid[in.Dst] = true
		} else {
			v.w.valid[in.Dst] = false
		}
		v.w.pc++
	case in.IsStore():
		if a, b, ok := v.w.srcOK(in); ok {
			addr := isa.EffAddr(in, a, b)
			c.Hier().Access(v.now, v.w.pc, addr, false, mem.ClassRunahead, mem.SrcRunahead)
		}
		v.w.pc++
	default:
		v.w.aluStep(in)
	}
}

// vectorize begins a vectorized chain at the striding load `in` sitting at
// v.stridePC: lanes cover the next VectorLength iterations.
func (v *VR) vectorize(c *cpu.Core, in isa.Instr) int {
	vl := v.cfg.VectorLength
	v.vec = true
	v.chainInstrs = 0
	v.diverge = v.diverge[:0]
	v.Stats.ChainsVectorized++
	for r := range v.taint {
		v.taint[r] = false
	}
	// The clamps below never bind (mask and laneAddrs are VectorLength-
	// sized at construction); they let the compiler drop the per-lane
	// bounds checks.
	addrs, mask := v.laneAddrs, v.mask
	n := vl
	if n > len(addrs) {
		n = len(addrs)
	}
	if n > len(mask) {
		n = len(mask)
	}
	for i := 0; i < n; i++ {
		mask[i] = true
		addrs[i] = uint64(int64(v.strideBase) + int64(i+1)*v.strideStep)
	}
	v.boundLimited = false
	if v.cfg.LoopBoundAware {
		v.maskBeyondBound(v.inferLoopBound(in), in)
		var maxAddr uint64
		for i := 0; i < n; i++ {
			if !mask[i] {
				v.boundLimited = true
			} else if addrs[i] > maxAddr {
				maxAddr = addrs[i]
			}
		}
		if v.boundLimited && v.strideStep > 0 {
			v.coveredPC = v.stridePC
			v.coveredUntil = maxAddr
		}
	}
	// Next round starts where this one ends.
	v.strideBase = uint64(int64(v.strideBase) + int64(vl)*v.strideStep)

	v.finalLoadPC = v.discoverFinalLoad(in)
	cost := v.gather(c, in, addrs)
	v.taint[in.Dst] = true
	v.w.valid[in.Dst] = false // the scalar view of the register is gone
	if v.finalLoadPC == v.stridePC {
		// No dependent loads: nothing a gather wave can add beyond the
		// stride prefetcher; finish immediately.
		v.w.pc++
		v.endChain()
		return cost
	}
	v.w.pc++
	return cost
}

// discoverFinalLoad statically walks the predicted path from the striding
// load, propagating taint, to find the last load of the dependence chain —
// the equivalent of the follow-on paper's Final-Load Register, determined
// here at vectorization time. Runahead terminates the chain as soon as that
// load's gathers have issued.
func (v *VR) discoverFinalLoad(strideIn isa.Instr) int {
	var taint [regSpace]bool
	taint[strideIn.Dst] = true
	final := v.stridePC
	pc := v.stridePC + 1
	hist := v.w.hist
	for steps := uint64(0); steps < v.cfg.MaxChainInstrs; steps++ {
		in := v.w.prog.At(pc)
		if in.IsHalt() {
			break
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
			if pc == v.stridePC {
				break
			}
			continue
		}
		tainted := false
		var srcBuf [3]isa.Reg // stack scratch: Sources appends at most 3 regs
		for _, r := range in.Sources(srcBuf[:0]) {
			if taint[r] {
				tainted = true
			}
		}
		if in.IsLoad() {
			if tainted {
				final = pc
				taint[in.Dst] = true
			} else if in.WritesDst() {
				taint[in.Dst] = false
			}
		} else if in.WritesDst() {
			taint[in.Dst] = tainted
		}
		pc++
		if pc == v.stridePC {
			break
		}
	}
	return final
}

// gather issues one vector load wave: a hierarchy access per active lane,
// landing the per-lane values in vregs[in.Dst]. The walker stalls
// (waitUntil) until the slowest lane returns — the in-order vector
// subthread waits for its data, which is exactly what overlaps the lanes'
// misses.
//
// The destination's pooled lane arrays are overwritten in full: masked
// lanes are cleared, not skipped, preserving the fresh-slice semantics a
// later-resumed divergent lane group observes.
func (v *VR) gather(c *cpu.Core, in isa.Instr, addrs []uint64) int {
	vl := v.cfg.VectorLength
	vals := v.vregs[in.Dst]
	valid := v.vvalid[in.Dst]
	mask := v.mask
	// Dead clamps (every lane slice is VectorLength-sized): they prove the
	// per-lane indexing in bounds so the loop carries no checks.
	n := vl
	if n > len(mask) {
		n = len(mask)
	}
	if n > len(vals) {
		n = len(vals)
	}
	if n > len(valid) {
		n = len(valid)
	}
	if n > len(addrs) {
		n = len(addrs)
	}
	var maxDone uint64
	active := 0
	for i := 0; i < n; i++ {
		if !mask[i] {
			vals[i] = 0
			valid[i] = false
			continue
		}
		active++
		res := c.Hier().Access(v.now, v.w.pc, addrs[i], false, mem.ClassRunahead, mem.SrcRunahead)
		v.Stats.GatherLoads++
		if res.Done > maxDone {
			maxDone = res.Done
		}
		vals[i] = c.Data().Load(addrs[i])
		valid[i] = true
	}
	if maxDone > v.waitUntil {
		v.waitUntil = maxDone
	}
	cost := (active + v.cfg.LaneWidth - 1) / v.cfg.LaneWidth
	if cost < 1 {
		cost = 1
	}
	v.Stats.VectorUops += uint64(cost)
	return cost
}

// anyTaintedSource reports whether in reads a tainted (vectorized) register.
func (v *VR) anyTaintedSource(in isa.Instr) bool {
	var srcBuf [3]isa.Reg // stack scratch: Sources appends at most 3 regs
	for _, r := range in.Sources(srcBuf[:0]) {
		if v.taint[r] {
			return true
		}
	}
	return false
}

// laneVal reads source register r for lane i, broadcasting scalars.
func (v *VR) laneVal(r isa.Reg, i int) (uint64, bool) {
	if v.taint[r] {
		vv, vr := v.vvalid[r], v.vregs[r]
		if uint(i) >= uint(len(vv)) || uint(i) >= uint(len(vr)) || !vv[i] {
			return 0, false
		}
		return vr[i], true
	}
	return v.w.regs[r], v.w.valid[r]
}

// vecStep executes one instruction across all active lanes.
func (v *VR) vecStep(c *cpu.Core, in isa.Instr) int {
	vl := v.cfg.VectorLength
	switch {
	case in.IsBranch():
		// Per-lane outcomes; lane 0 steers, divergent lanes are masked.
		// The clamps are dead (mask and otherMask are VectorLength-sized);
		// they prove the lane indexing in bounds.
		mask, other := v.mask, v.otherMask
		n := vl
		if n > len(mask) {
			n = len(mask)
		}
		if n > len(other) {
			n = len(other)
		}
		lane0 := -1
		for i := 0; i < n; i++ {
			if mask[i] {
				lane0 = i
				break
			}
		}
		if lane0 < 0 {
			v.endChain()
			return 1
		}
		a0, okA := v.laneVal(in.Src1, lane0)
		b0, okB := v.laneVal(in.Src2, lane0)
		var taken0 bool
		if okA && okB {
			taken0 = isa.BranchTaken(in, a0, b0)
		} else {
			taken0 = v.w.pred.Predict(v.w.pc, v.w.hist)
		}
		haveOther := false
		for i := lane0 + 1; i < n; i++ {
			if !mask[i] {
				continue
			}
			a, okA := v.laneVal(in.Src1, i)
			b, okB := v.laneVal(in.Src2, i)
			if !okA || !okB {
				mask[i] = false
				v.Stats.LanesMasked++
				continue
			}
			if isa.BranchTaken(in, a, b) != taken0 {
				mask[i] = false
				if v.cfg.Reconverge {
					if !haveOther {
						haveOther = true
						for j := range other {
							other[j] = false
						}
					}
					other[i] = true
				} else {
					v.Stats.LanesMasked++
				}
			}
		}
		if haveOther {
			// The divergent group resumes on the path lane 0 did not take.
			otherPC := in.Target
			if taken0 {
				otherPC = v.w.pc + 1
			}
			if !v.stashDivergent(otherPC, other) {
				v.Stats.LanesMasked += countTrue(other)
			}
		}
		v.w.hist <<= 1
		if taken0 {
			v.w.hist |= 1
			v.w.pc = in.Target
		} else {
			v.w.pc++
		}
		return 1

	case in.IsLoad():
		// Dead clamps (lane slices are VectorLength-sized) for check-free
		// lane indexing.
		addrs, mask := v.laneAddrs, v.mask
		n := vl
		if n > len(addrs) {
			n = len(addrs)
		}
		if n > len(mask) {
			n = len(mask)
		}
		for i := 0; i < n; i++ {
			if !mask[i] {
				continue
			}
			a, okA := v.laneVal(in.Src1, i)
			b, okB := v.laneVal(in.Src2, i)
			if !okA || !okB {
				mask[i] = false
				v.Stats.LanesMasked++
				continue
			}
			addrs[i] = isa.EffAddr(in, a, b)
		}
		cost := v.gather(c, in, addrs)
		v.taint[in.Dst] = true
		v.w.valid[in.Dst] = false
		if v.w.pc == v.finalLoadPC {
			// The chain's accesses have all been generated: terminate
			// without waiting for this gather's data.
			v.w.pc++
			v.endChain()
			return cost
		}
		v.w.pc++
		return cost

	case in.IsStore():
		// Prefetch per-lane store targets. The clamp is dead (mask is
		// VectorLength-sized); it makes the lane indexing check-free.
		mask := v.mask
		lanes := vl
		if lanes > len(mask) {
			lanes = len(mask)
		}
		n := 0
		for i := 0; i < lanes; i++ {
			if !mask[i] {
				continue
			}
			a, okA := v.laneVal(in.Src1, i)
			b, okB := v.laneVal(in.Src2, i)
			if okA && okB {
				c.Hier().Access(v.now, v.w.pc, isa.EffAddr(in, a, b), false, mem.ClassRunahead, mem.SrcRunahead)
				n++
			}
		}
		v.w.pc++
		cost := (n + v.cfg.LaneWidth - 1) / v.cfg.LaneWidth
		if cost < 1 {
			cost = 1
		}
		v.Stats.VectorUops += uint64(cost)
		return cost

	default:
		// Vector ALU across lanes, in place over the destination's pooled
		// lane arrays. Lane i reads only index i of its sources before
		// writing index i, so Dst aliasing Src1/Src2 is safe; masked and
		// invalid lanes are cleared, not skipped, preserving fresh-slice
		// semantics for later-resumed divergent groups.
		if in.WritesDst() {
			// Dead clamps (lane slices are VectorLength-sized) for
			// check-free lane indexing.
			vals := v.vregs[in.Dst]
			valid := v.vvalid[in.Dst]
			mask := v.mask
			n := vl
			if n > len(vals) {
				n = len(vals)
			}
			if n > len(valid) {
				n = len(valid)
			}
			if n > len(mask) {
				n = len(mask)
			}
			for i := 0; i < n; i++ {
				if !mask[i] {
					vals[i] = 0
					valid[i] = false
					continue
				}
				a, okA := v.laneVal(in.Src1, i)
				b, okB := v.laneVal(in.Src2, i)
				if okA && okB {
					vals[i] = isa.ALUResult(in, a, b)
					valid[i] = true
				} else {
					vals[i] = 0
					valid[i] = false
				}
			}
			v.taint[in.Dst] = true
			v.w.valid[in.Dst] = false
		}
		v.w.pc++
		cost := (vl + v.cfg.LaneWidth - 1) / v.cfg.LaneWidth
		v.Stats.VectorUops += uint64(cost)
		return cost
	}
}
