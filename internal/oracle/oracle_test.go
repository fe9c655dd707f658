package oracle_test

import (
	"errors"
	"strings"
	"testing"

	"vrsim/internal/core"
	"vrsim/internal/cpu"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/oracle"
)

// loopProgram builds a small pointer-chasing/accumulating loop with
// loads, stores, ALU work and a data-dependent branch — enough dynamic
// behavior to exercise every oracle comparison.
func loopProgram() *isa.Program {
	b := isa.NewBuilder("oracle-loop")
	b.Li(1, 0)      // i
	b.Li(2, 64)     // n
	b.Li(3, 0x1000) // base
	b.Li(4, 0)      // acc
	b.Label("loop")
	b.Ld(5, 3, 1, 3, 0) // r5 = mem[base + i*8]
	b.Add(4, 4, 5)      // acc += r5
	b.St(4, 3, 1, 3, 0) // mem[base + i*8] = acc
	b.AddI(1, 1, 1)     // i++
	b.Blt(1, 2, "loop")
	b.StD(4, 3, 4096) // final acc
	b.Halt()
	return b.MustBuild()
}

// checked assembles a core over prog with the oracle and invariant
// checker attached (engine wiring selected by tech: "", "vr", "pre",
// "ra") and runs it to completion, returning the first checker error.
func checked(t *testing.T, prog *isa.Program, tech string, faults cpu.FaultConfig) error {
	t.Helper()
	data, shadow := mem.NewBacking(), mem.NewBacking()
	// Seed distinct nonzero loop data into both images identically, so a
	// dropped writeback cannot hide behind an all-zero value stream.
	for i := uint64(0); i < 64; i++ {
		data.Store(0x1000+8*i, 3*i+1)
		shadow.Store(0x1000+8*i, 3*i+1)
	}
	hier := mem.MustHierarchy(mem.DefaultConfig())
	hier.Data = data
	cfg := cpu.DefaultConfig()
	cfg.Faults = faults
	c := cpu.New(cfg, prog, data, hier)

	var holding func() bool
	switch tech {
	case "vr":
		vr := core.NewVR(core.DefaultVRConfig())
		vr.Bind(c)
		holding = vr.Holding
	case "pre":
		pre := core.NewPRE(core.DefaultPREConfig())
		c.AttachEngine(pre)
		holding = pre.Holding
	case "ra":
		ra := core.NewClassicRA(core.DefaultRAConfig())
		c.AttachEngine(ra)
		holding = ra.Holding
	}
	k := oracle.NewChecker(prog, shadow, holding)
	c.CommitObserver = k.OnCommit
	inv := oracle.NewInvariantChecker(c)
	check := func() error {
		if err := k.Err(); err != nil {
			return err
		}
		return inv.Check()
	}
	if err := c.RunChecked(0, 64, check); err != nil {
		return err
	}
	if err := check(); err != nil {
		return err
	}
	return k.Final(c.ArchRegs(), c.Halted())
}

// TestCleanRunAgrees: a healthy core passes full cosimulation under every
// engine wiring.
func TestCleanRunAgrees(t *testing.T) {
	for _, tech := range []string{"", "vr", "pre", "ra"} {
		if err := checked(t, loopProgram(), tech, cpu.FaultConfig{}); err != nil {
			t.Errorf("engine %q: clean run diverged: %v", tech, err)
		}
	}
}

// TestFaultKindsDetected: each injected core fault must surface as a
// divergence with the field naming its failure mode.
func TestFaultKindsDetected(t *testing.T) {
	cases := []struct {
		name      string
		faults    cpu.FaultConfig
		wantField string
	}{
		{"corrupt", cpu.FaultConfig{CorruptValueAt: 40}, "dstval"},
		{"drop", cpu.FaultConfig{DropWritebackAt: 40}, "dstval"},
		{"phantom", cpu.FaultConfig{PhantomCommitAt: 40}, "seq"},
	}
	for _, tc := range cases {
		err := checked(t, loopProgram(), "", tc.faults)
		if err == nil {
			t.Fatalf("%s: fault went undetected", tc.name)
		}
		if !errors.Is(err, oracle.ErrDivergence) {
			t.Fatalf("%s: not a divergence: %v", tc.name, err)
		}
		var div *oracle.Divergence
		if !errors.As(err, &div) {
			t.Fatalf("%s: no *Divergence in chain: %v", tc.name, err)
		}
		if div.Field != tc.wantField {
			t.Errorf("%s: field = %q, want %q", tc.name, div.Field, tc.wantField)
		}
	}
}

// event builds the commit event a correct core would deliver for the
// given step of a Li-only program.
func liProgram() *isa.Program {
	b := isa.NewBuilder("li")
	b.Li(1, 7)
	b.Li(2, 9)
	b.Halt()
	return b.MustBuild()
}

// TestSeqMustIncrease: re-delivering a sequence number (the phantom
// commit signature) diverges immediately.
func TestSeqMustIncrease(t *testing.T) {
	prog := liProgram()
	k := oracle.NewChecker(prog, mem.NewBacking(), nil)
	ev := cpu.CommitEvent{Seq: 1, PC: 0, In: *prog.At(0), WroteReg: true, Dst: 1, Val: 7}
	k.OnCommit(ev)
	if err := k.Err(); err != nil {
		t.Fatalf("valid first commit rejected: %v", err)
	}
	k.OnCommit(ev)
	var div *oracle.Divergence
	if err := k.Err(); !errors.As(err, &div) || div.Field != "seq" {
		t.Fatalf("duplicate seq not flagged: %v", err)
	}
}

// TestCommitDuringHold: a retirement delivered while the engine demands a
// commit hold is flagged even if architecturally correct.
func TestCommitDuringHold(t *testing.T) {
	prog := liProgram()
	k := oracle.NewChecker(prog, mem.NewBacking(), func() bool { return true })
	k.OnCommit(cpu.CommitEvent{Seq: 1, PC: 0, In: *prog.At(0), WroteReg: true, Dst: 1, Val: 7})
	var div *oracle.Divergence
	if err := k.Err(); !errors.As(err, &div) || div.Field != "hold" {
		t.Fatalf("commit during hold not flagged: %v", err)
	}
}

// TestDivergenceLatches: the first divergence's snapshot survives
// subsequent (even valid) events.
func TestDivergenceLatches(t *testing.T) {
	prog := liProgram()
	k := oracle.NewChecker(prog, mem.NewBacking(), nil)
	k.OnCommit(cpu.CommitEvent{Seq: 1, PC: 5, In: *prog.At(0)}) // wrong PC
	first := k.Err()
	if first == nil {
		t.Fatal("wrong-PC commit accepted")
	}
	k.OnCommit(cpu.CommitEvent{Seq: 2, PC: 0, In: *prog.At(0), WroteReg: true, Dst: 1, Val: 7})
	if again := k.Err(); again != first {
		t.Fatalf("divergence did not latch: %v then %v", first, again)
	}
}

// TestFinalCatchesRegisterDrift: a register mismatch invisible to the
// per-commit checks (e.g. corruption of a never-rewritten register)
// surfaces in the final register-file comparison.
func TestFinalCatchesRegisterDrift(t *testing.T) {
	prog := liProgram()
	k := oracle.NewChecker(prog, mem.NewBacking(), nil)
	k.OnCommit(cpu.CommitEvent{Seq: 1, PC: 0, In: *prog.At(0), WroteReg: true, Dst: 1, Val: 7})
	k.OnCommit(cpu.CommitEvent{Seq: 2, PC: 1, In: *prog.At(1), WroteReg: true, Dst: 2, Val: 9})
	k.OnCommit(cpu.CommitEvent{Seq: 3, PC: 2, In: *prog.At(2)})
	var regs [isa.NumRegs]uint64
	regs[1], regs[2] = 7, 9
	if err := k.Final(regs, true); err != nil {
		t.Fatalf("matching final state rejected: %v", err)
	}
	// Fresh checker, same stream, corrupted final file.
	k = oracle.NewChecker(prog, mem.NewBacking(), nil)
	k.OnCommit(cpu.CommitEvent{Seq: 1, PC: 0, In: *prog.At(0), WroteReg: true, Dst: 1, Val: 7})
	k.OnCommit(cpu.CommitEvent{Seq: 2, PC: 1, In: *prog.At(1), WroteReg: true, Dst: 2, Val: 9})
	k.OnCommit(cpu.CommitEvent{Seq: 3, PC: 2, In: *prog.At(2)})
	regs[2] = 10
	if err := k.Final(regs, true); !errors.Is(err, oracle.ErrDivergence) {
		t.Fatalf("register drift not flagged: %v", err)
	}
}

// TestDivergenceRendering: the error message must carry both machine
// snapshots — the core's event and the oracle's position.
func TestDivergenceRendering(t *testing.T) {
	prog := liProgram()
	k := oracle.NewChecker(prog, mem.NewBacking(), nil)
	k.OnCommit(cpu.CommitEvent{Seq: 1, Cycle: 42, PC: 5, In: *prog.At(0)})
	msg := k.Err().Error()
	for _, want := range []string{"core:", "oracle:", "cycle=42", "pc=5"} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence message %q missing %q", msg, want)
		}
	}
}

// TestInvariantRearm: the ROI statistics reset zeroes the commit counter;
// without Rearm the monotonicity check trips, with it the reset is clean.
func TestInvariantRearm(t *testing.T) {
	prog := loopProgram()
	data := mem.NewBacking()
	hier := mem.MustHierarchy(mem.DefaultConfig())
	hier.Data = data
	c := cpu.New(cpu.DefaultConfig(), prog, data, hier)
	inv := oracle.NewInvariantChecker(c)
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := inv.Check(); err != nil {
		t.Fatalf("healthy core flagged: %v", err)
	}
	c.ResetStats()
	if err := inv.Check(); !errors.Is(err, oracle.ErrInvariant) {
		t.Fatalf("commit counter reset not flagged without Rearm: %v", err)
	}
	inv2 := oracle.NewInvariantChecker(c)
	if err := c.Run(150); err != nil {
		t.Fatal(err)
	}
	if err := inv2.Check(); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	inv2.Rearm()
	if err := inv2.Check(); err != nil {
		t.Fatalf("Rearm did not re-baseline the monotonicity check: %v", err)
	}
}

// TestViolationRendering: invariant violations carry their snapshot and
// classify under ErrInvariant.
func TestViolationRendering(t *testing.T) {
	v := &oracle.Violation{Msg: "ROB occupancy 400 outside [0,350]", Cycle: 7, Committed: 3, HeadPC: 12}
	if !errors.Is(v, oracle.ErrInvariant) {
		t.Error("Violation does not unwrap to ErrInvariant")
	}
	msg := v.Error()
	for _, want := range []string{"ROB occupancy", "cycle=7", "head pc=12"} {
		if !strings.Contains(msg, want) {
			t.Errorf("violation message %q missing %q", msg, want)
		}
	}
}

// TestTraceRecorder: the recorder caps at Max, renders deterministically,
// and two identical runs produce identical text.
func TestTraceRecorder(t *testing.T) {
	run := func() string {
		prog := loopProgram()
		data := mem.NewBacking()
		hier := mem.MustHierarchy(mem.DefaultConfig())
		hier.Data = data
		c := cpu.New(cpu.DefaultConfig(), prog, data, hier)
		rec := &oracle.TraceRecorder{Max: 16}
		c.CommitObserver = rec.OnCommit
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(rec.Lines()) != 16 || !rec.Full() {
			t.Fatalf("recorded %d lines, want 16", len(rec.Lines()))
		}
		return rec.Text()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("trace nondeterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "li r1, 0") {
		t.Errorf("trace missing disassembly:\n%s", a)
	}
}

// TestTee: composed observers each see every event; nils are skipped.
func TestTee(t *testing.T) {
	var a, b int
	obs := oracle.Tee(func(cpu.CommitEvent) { a++ }, nil, func(cpu.CommitEvent) { b++ })
	obs(cpu.CommitEvent{})
	obs(cpu.CommitEvent{})
	if a != 2 || b != 2 {
		t.Errorf("observers saw %d/%d events, want 2/2", a, b)
	}
}
