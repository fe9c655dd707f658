// Package oracle validates the cycle core's architectural behavior at
// runtime. It contains two independent checkers the harness can attach to
// a run:
//
//   - Checker, a cosimulation oracle: an in-order reference model (the
//     functional interpreter over a shadow memory) consuming the core's
//     commit stream event by event. Every retirement must match the
//     reference machine's PC, effective address, store value and
//     destination value, in order, or the timing core has silently
//     computed the wrong program — the class of bug performance counters
//     and end-state spot checks can miss for millions of cycles.
//
//   - InvariantChecker, a microarchitectural white-box checker run at the
//     RunChecked cadence: structure occupancies within capacity, ROB
//     ordering, MSHR accounting, cycle/commit monotonicity.
//
// Both are strictly observational: they never mutate core state, so an
// attached checker cannot change simulated timing, and a run with checking
// disabled is byte-identical to one that never imported this package.
package oracle

import (
	"errors"
	"fmt"
	"strings"

	"vrsim/internal/cpu"
	"vrsim/internal/isa"
)

// ErrDivergence is wrapped by every cosimulation mismatch; callers
// classify with errors.Is.
var ErrDivergence = errors.New("oracle: cosimulation divergence")

// Divergence is the first mismatch between the timing core's commit
// stream and the in-order reference model. It captures both machine
// states at the moment of divergence; checking latches on the first
// divergence, so the snapshot always describes the root cause rather
// than downstream corruption.
type Divergence struct {
	// Field names the comparison that failed: "hold" (commit while the
	// runahead engine demanded a commit hold), "seq" (commit sequence not
	// strictly increasing — a phantom or reordered retirement), "halt"
	// (commit after the reference model halted), "pc", "instr", "addr",
	// "storeval", or "dstval".
	Field string
	// Got is the timing core's value for the field, Want the reference
	// model's. Both are rendered in Error with field-appropriate format.
	Got, Want uint64
	// Ev is the offending commit event as the core reported it.
	Ev cpu.CommitEvent
	// OraclePC and Executed locate the reference machine: the PC it was
	// about to execute and how many instructions it had retired.
	OraclePC int
	Executed uint64
	// OracleRegs is the reference register file at the divergence.
	OracleRegs [isa.NumRegs]uint64
}

// Error renders the divergence with both machine snapshots.
func (d *Divergence) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v: field %q: core has %#x, oracle expects %#x\n",
		ErrDivergence, d.Field, d.Got, d.Want)
	fmt.Fprintf(&sb, "  core:   cycle=%d seq=%d pc=%d %s", d.Ev.Cycle, d.Ev.Seq, d.Ev.PC, isa.Disasm(d.Ev.In))
	if d.Ev.WroteReg {
		fmt.Fprintf(&sb, " -> %s=%#x", d.Ev.Dst, d.Ev.Val)
	}
	if d.Ev.In.IsMem() {
		fmt.Fprintf(&sb, " @%#x", d.Ev.Addr)
	}
	fmt.Fprintf(&sb, "\n  oracle: pc=%d executed=%d", d.OraclePC, d.Executed)
	nz := 0
	for r, v := range d.OracleRegs {
		if v == 0 {
			continue
		}
		if nz == 0 {
			sb.WriteString(" regs{")
		} else {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "r%d=%#x", r, v)
		nz++
	}
	if nz > 0 {
		sb.WriteString("}")
	}
	return sb.String()
}

// Unwrap ties every Divergence to ErrDivergence for errors.Is.
func (d *Divergence) Unwrap() error { return ErrDivergence }

// Checker is the cosimulation oracle: a functional interpreter over a
// shadow memory, advanced in lock step with the timing core's commit
// stream. Attach OnCommit as (or within) the core's CommitObserver and
// poll Err at the RunChecked cadence; call Final once the run completes.
//
// The shadow memory must start with byte-identical contents to the timing
// core's backing store (workloads provide a fresh initialization for
// exactly this purpose); the oracle applies its own stores to it, so
// timing-core store bugs cannot contaminate the reference.
type Checker struct {
	it      *isa.Interp
	holding func() bool
	lastSeq uint64
	div     *Divergence
}

// NewChecker builds an oracle over prog and an independently initialized
// shadow memory. holding, when non-nil, is a side-effect-free predicate
// reporting whether the attached runahead engine currently demands a
// commit hold; the oracle flags any retirement delivered while it is true
// (speculative-mode state must never commit architecturally).
func NewChecker(prog *isa.Program, shadow isa.Memory, holding func() bool) *Checker {
	return &Checker{it: isa.NewInterp(prog, shadow), holding: holding}
}

// OnCommit consumes one retirement. It is latching: after the first
// divergence every subsequent event is ignored, preserving the root-cause
// snapshot. It never mutates core state.
func (k *Checker) OnCommit(ev cpu.CommitEvent) {
	if k.div != nil {
		return
	}
	if k.holding != nil && k.holding() {
		k.fail("hold", 1, 0, ev)
		return
	}
	if ev.Seq <= k.lastSeq {
		k.fail("seq", ev.Seq, k.lastSeq+1, ev)
		return
	}
	k.lastSeq = ev.Seq
	it := k.it
	if it.Halted {
		k.fail("halt", uint64(ev.PC), uint64(it.PC), ev)
		return
	}
	if ev.PC != it.PC {
		k.fail("pc", uint64(ev.PC), uint64(it.PC), ev)
		return
	}
	in := it.Prog.At(it.PC)
	if ev.In != *in {
		k.fail("instr", uint64(ev.In.Op), uint64(in.Op), ev)
		return
	}
	if in.IsMem() {
		ea := isa.EffAddr(in, it.Regs[in.Src1], it.Regs[in.Src2])
		if ev.Addr != ea {
			k.fail("addr", ev.Addr, ea, ev)
			return
		}
	}
	if in.IsStore() {
		if want := it.Regs[in.Dst]; ev.Val != want {
			k.fail("storeval", ev.Val, want, ev)
			return
		}
	}
	it.Step()
	if in.WritesDst() {
		if want := it.Regs[in.Dst]; !ev.WroteReg || ev.Val != want {
			k.fail("dstval", ev.Val, want, ev)
			return
		}
	}
}

func (k *Checker) fail(field string, got, want uint64, ev cpu.CommitEvent) {
	k.div = &Divergence{
		Field:      field,
		Got:        got,
		Want:       want,
		Ev:         ev,
		OraclePC:   k.it.PC,
		Executed:   k.it.Executed,
		OracleRegs: k.it.Regs,
	}
}

// Err returns the latched divergence, or nil while the streams agree.
// The harness polls it at the RunChecked cadence and once more after the
// run ends (a divergence can latch after the last periodic check).
func (k *Checker) Err() error {
	if k.div == nil {
		return nil
	}
	return k.div
}

// Executed returns how many instructions the reference model has retired.
func (k *Checker) Executed() uint64 { return k.it.Executed }

// Final checks end-of-run agreement: the committed architectural register
// file must be identical to the reference model's (valid even for
// budget-limited runs — the oracle has executed exactly the committed
// stream), and when the core reports halted the reference model must have
// halted too. It reports any latched divergence first, so it is safe to
// call as the sole final check.
func (k *Checker) Final(regs [isa.NumRegs]uint64, halted bool) error {
	if k.div != nil {
		return k.div
	}
	if halted && !k.it.Halted {
		k.fail("halt", 0, uint64(k.it.PC), cpu.CommitEvent{PC: -1})
		return k.div
	}
	for r := 0; r < isa.NumRegs; r++ {
		if regs[r] != k.it.Regs[r] {
			k.fail("dstval", regs[r], k.it.Regs[r], cpu.CommitEvent{
				PC: -1, WroteReg: true, Dst: isa.Reg(r), Val: regs[r],
			})
			return k.div
		}
	}
	return nil
}

// Tee composes commit observers: each non-nil observer receives every
// event in order. The harness uses it to feed the oracle and a trace
// recorder from the core's single CommitObserver seam.
func Tee(obs ...func(cpu.CommitEvent)) func(cpu.CommitEvent) {
	live := obs[:0]
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	return func(ev cpu.CommitEvent) {
		for _, o := range live {
			o(ev)
		}
	}
}
