// Package isa defines the mini instruction set architecture used by the
// vrsim out-of-order core model and its runahead engines.
//
// The ISA is a 64-bit, load/store, RISC-style machine with 32 integer
// registers. Floating-point values are carried in the same registers using
// their IEEE-754 bit patterns (math.Float64bits); dedicated FP opcodes
// interpret them. Memory is byte-addressed; loads and stores move 64-bit
// words (the unit the paper's indirect chains operate on).
//
// The package provides:
//   - the instruction encoding (Instr) and opcode set (Op),
//   - classification helpers used by the timing model (IsLoad, FUClass, ...),
//   - centralized functional semantics (EffAddr, ALUResult, BranchTaken)
//     shared by the out-of-order core, the runahead engines, and
//   - a simple functional interpreter (Interp) used for validation.
package isa

import "fmt"

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

// Reg names an architectural register, 0 through NumRegs-1.
// By convention register 0 is an ordinary register (not hardwired to zero);
// the Builder reserves it as an assembler temporary.
type Reg uint8

// String returns the conventional register name, e.g. "r7".
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op enumerates the mini-ISA opcodes.
type Op uint8

// Opcode space. Grouped by functional-unit class.
const (
	// Nop does nothing. The zero value of Instr is a Nop.
	Nop Op = iota

	// Integer ALU, register-register: Dst = Src1 op Src2.
	Add
	Sub
	And
	Or
	Xor
	Shl  // logical shift left by Src2 (mod 64)
	Shr  // logical shift right by Src2 (mod 64)
	Slt  // set Dst=1 if int64(Src1) < int64(Src2) else 0
	Sltu // set Dst=1 if Src1 < Src2 (unsigned) else 0
	Seq  // set Dst=1 if Src1 == Src2 else 0
	Min  // Dst = min(int64(Src1), int64(Src2))
	Max  // Dst = max(int64(Src1), int64(Src2))

	// Integer ALU, register-immediate: Dst = Src1 op Imm.
	AddI
	AndI
	OrI
	XorI
	ShlI
	ShrI
	SltI

	// Li loads a 64-bit immediate: Dst = Imm.
	Li
	// Mov copies a register: Dst = Src1.
	Mov

	// Long-latency integer units.
	Mul // Dst = Src1 * Src2
	Div // Dst = int64(Src1) / int64(Src2); x/0 = 0 (well-defined, no trap)
	Rem // Dst = int64(Src1) % int64(Src2); x%0 = x

	// Floating point (operands are Float64bits patterns).
	FAdd
	FSub
	FMul
	FDiv
	FSlt // set Dst=1 if float(Src1) < float(Src2)
	ItoF // Dst = Float64bits(float64(int64(Src1)))
	FtoI // Dst = uint64(int64(float64value(Src1)))

	// Memory. Effective address = Src1 + (Src2 << Scale) + Imm.
	Ld // Dst = Mem[EA]
	St // Mem[EA] = Dst (the Dst field names the value register)

	// Control flow. Conditional branches compare Src1 and Src2 and
	// transfer to Target when the condition holds.
	Beq
	Bne
	Blt  // signed
	Bge  // signed
	Bltu // unsigned
	Bgeu // unsigned
	Jmp  // unconditional branch to Target
	Halt // stop the program

	numOps // sentinel; keep last
)

var opNames = [numOps]string{
	Nop: "nop",
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Slt: "slt", Sltu: "sltu", Seq: "seq",
	Min: "min", Max: "max",
	AddI: "addi", AndI: "andi", OrI: "ori", XorI: "xori",
	ShlI: "shli", ShrI: "shri", SltI: "slti",
	Li: "li", Mov: "mov",
	Mul: "mul", Div: "div", Rem: "rem",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv",
	FSlt: "fslt", ItoF: "itof", FtoI: "ftoi",
	Ld: "ld", St: "st",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge",
	Bltu: "bltu", Bgeu: "bgeu", Jmp: "jmp", Halt: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// FUClass identifies the functional-unit class an instruction executes on.
// The timing model assigns per-class unit counts and latencies.
type FUClass uint8

// Functional-unit classes, mirroring the paper's Table 1 unit mix.
const (
	FUNone   FUClass = iota // no unit (Nop, Halt)
	FUIntALU                // 1-cycle integer ops
	FUIntMul                // 3-cycle integer multiply
	FUIntDiv                // 18-cycle integer divide
	FUFPAdd                 // 3-cycle FP add/sub/compare/convert
	FUFPMul                 // 5-cycle FP multiply
	FUFPDiv                 // 6-cycle FP divide
	FUMem                   // address generation + cache port
	FUBranch                // branch resolution (shares ALU timing)

	NumFUClasses // sentinel
)

// Instr is one instruction. The zero value is a Nop.
type Instr struct {
	Op     Op
	Dst    Reg   // destination register; for St, the value source register
	Src1   Reg   // first source (base register for Ld/St)
	Src2   Reg   // second source (index register for Ld/St)
	Imm    int64 // immediate / displacement
	Scale  uint8 // index scale for Ld/St: EA += Src2 << Scale
	Target int   // branch target, as an instruction index
}

// IsLoad reports whether the instruction reads memory.
func (in Instr) IsLoad() bool { return in.Op == Ld }

// IsStore reports whether the instruction writes memory.
func (in Instr) IsStore() bool { return in.Op == St }

// IsMem reports whether the instruction accesses memory.
func (in Instr) IsMem() bool { return in.Op == Ld || in.Op == St }

// IsBranch reports whether the instruction may redirect control flow.
func (in Instr) IsBranch() bool { return in.Op >= Beq && in.Op <= Jmp }

// IsCondBranch reports whether the instruction is a conditional branch.
func (in Instr) IsCondBranch() bool { return in.Op >= Beq && in.Op <= Bgeu }

// IsHalt reports whether the instruction terminates the program.
func (in Instr) IsHalt() bool { return in.Op == Halt }

// WritesDst reports whether the instruction produces a register result.
func (in Instr) WritesDst() bool {
	switch {
	case in.Op == Nop || in.Op == Halt:
		return false
	case in.IsStore(), in.IsBranch():
		return false
	}
	return true
}

// hasSrc1/hasSrc2 describe which register fields are true data sources.
func (in Instr) hasSrc1() bool {
	switch in.Op {
	case Nop, Halt, Li, Jmp:
		return false
	default:
		return true
	}
}

func (in Instr) hasSrc2() bool {
	switch in.Op {
	case Add, Sub, And, Or, Xor, Shl, Shr, Slt, Sltu, Seq, Min, Max,
		Mul, Div, Rem, FAdd, FSub, FMul, FDiv, FSlt,
		Ld, St, Beq, Bne, Blt, Bge, Bltu, Bgeu:
		return true
	default:
		return false
	}
}

// Sources appends the architectural registers the instruction reads to dst
// and returns the extended slice. Store-value registers are included.
func (in Instr) Sources(dst []Reg) []Reg {
	if in.hasSrc1() {
		dst = append(dst, in.Src1)
	}
	if in.hasSrc2() {
		dst = append(dst, in.Src2)
	}
	if in.IsStore() {
		dst = append(dst, in.Dst)
	}
	return dst
}

// FU returns the functional-unit class for the instruction.
func (in Instr) FU() FUClass {
	switch in.Op {
	case Nop, Halt:
		return FUNone
	case Mul:
		return FUIntMul
	case Div, Rem:
		return FUIntDiv
	case FAdd, FSub, FSlt, ItoF, FtoI:
		return FUFPAdd
	case FMul:
		return FUFPMul
	case FDiv:
		return FUFPDiv
	case Ld, St:
		return FUMem
	case Beq, Bne, Blt, Bge, Bltu, Bgeu, Jmp:
		return FUBranch
	default:
		return FUIntALU
	}
}

// Program is an executable sequence of instructions with optional named
// entry points. Instruction indices serve as program-counter values.
type Program struct {
	Instrs []Instr
	// Symbols maps label names to instruction indices (for diagnostics).
	Symbols map[string]int
	// Name identifies the program in reports.
	Name string
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// At returns the instruction at pc. Out-of-range PCs return Halt so a
// runaway speculative fetch self-terminates.
func (p *Program) At(pc int) Instr {
	if pc < 0 || pc >= len(p.Instrs) {
		return Instr{Op: Halt}
	}
	return p.Instrs[pc]
}
