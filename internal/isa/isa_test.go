package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// mapMem is a simple map-backed Memory for tests.
type mapMem map[uint64]uint64

func (m mapMem) Load(addr uint64) uint64 { return m[addr] }
func (m mapMem) Store(addr, v uint64)    { m[addr] = v }

func TestOpStrings(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("unknown opcode string = %q", got)
	}
}

func TestALUResultBasics(t *testing.T) {
	cases := []struct {
		in   Instr
		a, b uint64
		want uint64
	}{
		{Instr{Op: Add}, 2, 3, 5},
		{Instr{Op: Sub}, 2, 3, ^uint64(0)},
		{Instr{Op: And}, 0b1100, 0b1010, 0b1000},
		{Instr{Op: Or}, 0b1100, 0b1010, 0b1110},
		{Instr{Op: Xor}, 0b1100, 0b1010, 0b0110},
		{Instr{Op: Shl}, 1, 4, 16},
		{Instr{Op: Shr}, 16, 4, 1},
		{Instr{Op: Shl}, 1, 64, 1}, // shift count mod 64
		{Instr{Op: Slt}, uint64(^uint64(0)), 0, 1},
		{Instr{Op: Sltu}, ^uint64(0), 0, 0},
		{Instr{Op: Seq}, 7, 7, 1},
		{Instr{Op: Seq}, 7, 8, 0},
		{Instr{Op: Min}, uint64(^uint64(0)), 1, ^uint64(0)}, // -1 < 1 signed
		{Instr{Op: Max}, uint64(^uint64(0)), 1, 1},
		{Instr{Op: AddI, Imm: -1}, 10, 0, 9},
		{Instr{Op: AndI, Imm: 0xf}, 0x1234, 0, 4},
		{Instr{Op: ShlI, Imm: 3}, 2, 0, 16},
		{Instr{Op: ShrI, Imm: 1}, 16, 0, 8},
		{Instr{Op: SltI, Imm: 5}, 4, 0, 1},
		{Instr{Op: Li, Imm: -9}, 0, 0, negU64(9)},
		{Instr{Op: Mov}, 42, 99, 42},
		{Instr{Op: Mul}, 6, 7, 42},
		{Instr{Op: Div}, negU64(9), 2, negU64(4)},
		{Instr{Op: Div}, 9, 0, 0},
		{Instr{Op: Rem}, 9, 4, 1},
		{Instr{Op: Rem}, 9, 0, 9},
	}
	for _, c := range cases {
		if got := ALUResult(c.in, c.a, c.b); got != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.in.Op, c.a, c.b, got, c.want)
		}
	}
}

func TestFloatOps(t *testing.T) {
	f := math.Float64bits
	if got := ALUResult(Instr{Op: FAdd}, f(1.5), f(2.25)); got != f(3.75) {
		t.Errorf("fadd = %v", math.Float64frombits(got))
	}
	if got := ALUResult(Instr{Op: FMul}, f(3), f(4)); got != f(12) {
		t.Errorf("fmul = %v", math.Float64frombits(got))
	}
	if got := ALUResult(Instr{Op: FDiv}, f(1), f(4)); got != f(0.25) {
		t.Errorf("fdiv = %v", math.Float64frombits(got))
	}
	if got := ALUResult(Instr{Op: FSlt}, f(1), f(2)); got != 1 {
		t.Errorf("fslt(1,2) = %d", got)
	}
	if got := ALUResult(Instr{Op: ItoF}, negU64(3), 0); got != f(-3) {
		t.Errorf("itof = %v", math.Float64frombits(got))
	}
	if got := ALUResult(Instr{Op: FtoI}, f(-3.7), 0); got != negU64(3) {
		t.Errorf("ftoi = %d", int64(got))
	}
}

func TestBranchTaken(t *testing.T) {
	neg := negU64(1)
	cases := []struct {
		op   Op
		a, b uint64
		want bool
	}{
		{Beq, 1, 1, true}, {Beq, 1, 2, false},
		{Bne, 1, 2, true}, {Bne, 2, 2, false},
		{Blt, neg, 0, true}, {Blt, 0, neg, false},
		{Bge, 0, neg, true}, {Bge, neg, 0, false},
		{Bltu, 0, neg, true}, {Bltu, neg, 0, false},
		{Bgeu, neg, 0, true}, {Bgeu, 0, neg, false},
		{Jmp, 0, 0, true},
		{Add, 1, 1, false}, // non-branch never taken
	}
	for _, c := range cases {
		if got := BranchTaken(Instr{Op: c.op}, c.a, c.b); got != c.want {
			t.Errorf("%s(%d,%d) taken = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEffAddr(t *testing.T) {
	in := Instr{Op: Ld, Scale: 3, Imm: 16}
	if got := EffAddr(in, 1000, 5); got != 1000+40+16 {
		t.Errorf("EffAddr = %d", got)
	}
	in = Instr{Op: Ld, Scale: 0, Imm: -8}
	if got := EffAddr(in, 1000, 0); got != 992 {
		t.Errorf("EffAddr neg disp = %d", got)
	}
}

func TestClassification(t *testing.T) {
	if !(Instr{Op: Ld}).IsLoad() || (Instr{Op: St}).IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !(Instr{Op: St}).IsStore() || (Instr{Op: Ld}).IsStore() {
		t.Error("IsStore misclassifies")
	}
	for _, op := range []Op{Beq, Bne, Blt, Bge, Bltu, Bgeu, Jmp} {
		if !(Instr{Op: op}).IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	if (Instr{Op: Jmp}).IsCondBranch() {
		t.Error("jmp is not conditional")
	}
	if !(Instr{Op: Beq}).IsCondBranch() {
		t.Error("beq is conditional")
	}
	if (Instr{Op: St}).WritesDst() || (Instr{Op: Beq}).WritesDst() || (Instr{Op: Halt}).WritesDst() {
		t.Error("WritesDst misclassifies non-writers")
	}
	if !(Instr{Op: Ld}).WritesDst() || !(Instr{Op: Add}).WritesDst() {
		t.Error("WritesDst misclassifies writers")
	}
}

func TestSources(t *testing.T) {
	got := (Instr{Op: St, Dst: 3, Src1: 1, Src2: 2}).Sources(nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("store sources = %v", got)
	}
	got = (Instr{Op: Li, Dst: 3}).Sources(nil)
	if len(got) != 0 {
		t.Errorf("li sources = %v", got)
	}
	got = (Instr{Op: AddI, Dst: 3, Src1: 7}).Sources(nil)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("addi sources = %v", got)
	}
	got = (Instr{Op: Jmp}).Sources(nil)
	if len(got) != 0 {
		t.Errorf("jmp sources = %v", got)
	}
}

func TestFUClasses(t *testing.T) {
	cases := map[Op]FUClass{
		Nop: FUNone, Halt: FUNone,
		Add: FUIntALU, Li: FUIntALU, Mov: FUIntALU,
		Mul: FUIntMul, Div: FUIntDiv, Rem: FUIntDiv,
		FAdd: FUFPAdd, FSlt: FUFPAdd, ItoF: FUFPAdd,
		FMul: FUFPMul, FDiv: FUFPDiv,
		Ld: FUMem, St: FUMem,
		Beq: FUBranch, Jmp: FUBranch,
	}
	for op, want := range cases {
		if got := (Instr{Op: op}).FU(); got != want {
			t.Errorf("FU(%s) = %d, want %d", op, got, want)
		}
	}
}

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("loop8")
	const (
		rIdx Reg = 1
		rN   Reg = 2
		rAcc Reg = 3
	)
	b.Li(rIdx, 0)
	b.Li(rN, 8)
	b.Li(rAcc, 0)
	b.Label("loop")
	b.Add(rAcc, rAcc, rIdx)
	b.AddI(rIdx, rIdx, 1)
	b.Blt(rIdx, rN, "loop") // backward ref
	b.Jmp("done")           // forward ref
	b.Halt()                // unreachable
	b.Label("done")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(p, mapMem{})
	if err := it.Run(0); err != nil {
		t.Fatal(err)
	}
	if it.Regs[rAcc] != 28 { // 0+1+...+7
		t.Errorf("acc = %d, want 28", it.Regs[rAcc])
	}
	if p.Symbols["loop"] != 3 || p.Symbols["done"] != 8 {
		t.Errorf("symbols = %v", p.Symbols)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestInterpMemoryOps(t *testing.T) {
	m := mapMem{}
	m[0x1000] = 7
	b := NewBuilder("memops")
	b.Li(1, 0x1000)
	b.Li(2, 2)
	b.Ld(3, 1, 2, 3, -16) // M[0x1000 + 2*8 - 16] = M[0x1000] = 7
	b.AddI(3, 3, 1)
	b.St(3, 1, 2, 3, -8) // M[0x1000+8] = 8
	b.Halt()
	it := NewInterp(b.MustBuild(), m)
	if err := it.Run(0); err != nil {
		t.Fatal(err)
	}
	if m[0x1008] != 8 {
		t.Errorf("store result = %d, want 8", m[0x1008])
	}
	if it.Loads != 1 || it.Stores != 1 {
		t.Errorf("loads/stores = %d/%d", it.Loads, it.Stores)
	}
}

func TestInterpBudget(t *testing.T) {
	b := NewBuilder("spin")
	b.Label("top")
	b.Jmp("top")
	it := NewInterp(b.MustBuild(), mapMem{})
	if err := it.Run(100); err == nil {
		t.Fatal("expected ErrBudget")
	}
	if it.Executed != 100 {
		t.Errorf("executed = %d", it.Executed)
	}
}

func TestProgramAtOutOfRange(t *testing.T) {
	p := &Program{Instrs: []Instr{{Op: Add}}}
	if !p.At(-1).IsHalt() || !p.At(5).IsHalt() {
		t.Error("out-of-range fetch must return Halt")
	}
	if p.At(0).Op != Add {
		t.Error("in-range fetch wrong")
	}
}

func TestDisasmCoversAllOps(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		in := Instr{Op: op, Dst: 1, Src1: 2, Src2: 3, Imm: 4, Target: 5}
		s := Disasm(in)
		if s == "" {
			t.Errorf("no disassembly for %s", op)
		}
	}
	b := NewBuilder("d")
	b.Label("entry")
	b.Li(1, 1)
	b.Halt()
	text := DisasmProgram(b.MustBuild())
	if !strings.Contains(text, "entry:") || !strings.Contains(text, "li r1, 1") {
		t.Errorf("program disassembly missing parts:\n%s", text)
	}
}

// Property: ALU operations agree with Go's own arithmetic on random inputs.
func TestALUProperties(t *testing.T) {
	type pair struct{ A, B uint64 }
	checks := []struct {
		name string
		op   Op
		want func(a, b uint64) uint64
	}{
		{"add", Add, func(a, b uint64) uint64 { return a + b }},
		{"sub", Sub, func(a, b uint64) uint64 { return a - b }},
		{"xor", Xor, func(a, b uint64) uint64 { return a ^ b }},
		{"mul", Mul, func(a, b uint64) uint64 { return a * b }},
		{"shl", Shl, func(a, b uint64) uint64 { return a << (b & 63) }},
	}
	for _, c := range checks {
		f := func(p pair) bool {
			return ALUResult(Instr{Op: c.op}, p.A, p.B) == c.want(p.A, p.B)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// Property: Slt/Blt agree: the set-less-than result predicts the branch.
func TestSltBltAgree(t *testing.T) {
	f := func(a, b uint64) bool {
		slt := ALUResult(Instr{Op: Slt}, a, b)
		return (slt == 1) == BranchTaken(Instr{Op: Blt}, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EffAddr is linear in the displacement.
func TestEffAddrProperty(t *testing.T) {
	f := func(base, idx uint64, scale uint8, disp int32) bool {
		s := scale % 4
		in := Instr{Op: Ld, Scale: s, Imm: int64(disp)}
		return EffAddr(in, base, idx) == base+(idx<<s)+uint64(int64(disp))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// negU64 returns the two's-complement encoding of -v.
func negU64(v int64) uint64 { return uint64(-v) }

func TestBuildRejectsRZeroWrites(t *testing.T) {
	b := NewBuilder("bad-r0")
	b.Li(RZero, 0) // allowed: the conventional initialization
	b.AddI(RZero, 1, 5)
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected r0-write rejection")
	}
	b2 := NewBuilder("bad-li")
	b2.Li(RZero, 7) // li r0 with nonzero immediate is also a violation
	b2.Halt()
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected nonzero li r0 rejection")
	}
	b3 := NewBuilder("good")
	b3.Li(RZero, 0)
	b3.Li(1, 5)
	b3.Halt()
	if _, err := b3.Build(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

// TestSourcesBoundedOverEveryOpcode pins why (Instr).Sources is
// allocation-free: for every opcode it appends at most 3 registers — exactly the opcode's true data sources — and never grows
// past a caller-provided capacity of 3, so a caller reusing a
// cap-3 scratch slice allocates nothing.
func TestSourcesBoundedOverEveryOpcode(t *testing.T) {
	// Expected source count per opcode class; every opcode must appear.
	wantCount := map[Op]int{
		Nop: 0, Li: 0, Jmp: 0, Halt: 0,
		AddI: 1, AndI: 1, OrI: 1, XorI: 1, ShlI: 1, ShrI: 1, SltI: 1,
		Mov: 1, ItoF: 1, FtoI: 1,
		Add: 2, Sub: 2, And: 2, Or: 2, Xor: 2, Shl: 2, Shr: 2,
		Slt: 2, Sltu: 2, Seq: 2, Min: 2, Max: 2,
		Mul: 2, Div: 2, Rem: 2,
		FAdd: 2, FSub: 2, FMul: 2, FDiv: 2, FSlt: 2,
		Ld: 2, Beq: 2, Bne: 2, Blt: 2, Bge: 2, Bltu: 2, Bgeu: 2,
		St: 3,
	}
	if len(wantCount) != int(numOps) {
		t.Fatalf("expectation table covers %d opcodes, ISA has %d — update the test for new opcodes", len(wantCount), numOps)
	}
	for op := Op(0); op < numOps; op++ {
		want, ok := wantCount[op]
		if !ok {
			t.Errorf("%v: no expected source count", op)
			continue
		}
		in := Instr{Op: op, Dst: 13, Src1: 5, Src2: 9}
		buf := make([]Reg, 0, 3)
		out := in.Sources(buf)
		if len(out) != want {
			t.Errorf("%v: Sources appended %d regs (%v), want %d", op, len(out), out, want)
		}
		if len(out) > 3 {
			t.Errorf("%v: Sources appended %d regs, above the documented bound of 3", op, len(out))
		}
		// No growth: append within cap keeps the caller's backing array.
		if cap(out) != cap(buf) {
			t.Errorf("%v: Sources grew the slice (cap %d -> %d); callers rely on zero-alloc reuse", op, cap(buf), cap(out))
		}
		if len(out) > 0 && &out[0] != &buf[:1][0] {
			t.Errorf("%v: Sources reallocated the caller's backing array", op)
		}
		// The regs appended are drawn from the instruction's fields in
		// src1, src2, store-value order.
		wantRegs := []Reg{}
		if in.hasSrc1() {
			wantRegs = append(wantRegs, in.Src1)
		}
		if in.hasSrc2() {
			wantRegs = append(wantRegs, in.Src2)
		}
		if in.IsStore() {
			wantRegs = append(wantRegs, in.Dst)
		}
		for i, r := range out {
			if r != wantRegs[i] {
				t.Errorf("%v: Sources[%d] = r%d, want r%d", op, i, r, wantRegs[i])
			}
		}
	}
}

// TestSourcesAllocFree measures the claim directly: with a cap-3 scratch,
// Sources performs zero allocations for any opcode.
func TestSourcesAllocFree(t *testing.T) {
	buf := make([]Reg, 0, 3)
	allocs := testing.AllocsPerRun(100, func() {
		for op := Op(0); op < numOps; op++ {
			in := Instr{Op: op, Dst: 13, Src1: 5, Src2: 9}
			buf = in.Sources(buf[:0])
		}
	})
	if allocs != 0 {
		t.Errorf("Sources allocated %.1f times per sweep over all opcodes; want 0", allocs)
	}
}
