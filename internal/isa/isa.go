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

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if n := o.info().name; n != "" {
		return n
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
func (in Instr) WritesDst() bool { return in.Op.info().writes }

// Reads returns the register fields the instruction reads as data
// sources, without listing them.
func (in Instr) Reads() ReadSet { return in.Op.info().reads }

// FU returns the functional-unit class for the instruction.
func (in Instr) FU() FUClass { return in.Op.info().fu }

// opInfo is one opcode's row of facts: its mnemonic, the functional-unit
// class it executes on, the register fields it reads and whether it
// writes Dst.
type opInfo struct {
	name   string
	fu     FUClass
	reads  ReadSet
	writes bool
}

// ReadSet names the register fields an instruction reads as data
// sources: a bit for each of Src1, Src2 and Dst (a store's value).
type ReadSet uint8

// The fields of a ReadSet.
const (
	ReadSrc1 ReadSet = 1 << iota
	ReadSrc2
	ReadDst // a store's value register

	readNone  ReadSet = 0
	readRR            = ReadSrc1 | ReadSrc2 // register-register ops, loads, conditional branches
	readStore         = readRR | ReadDst    // base, index, value
)

// opTable is the single source of every opcode's facts. vrlint's
// exhaustive pass requires a row for each opcode.
var opTable = [numOps]opInfo{
	Nop: {"nop", FUNone, readNone, false},

	Add:  {"add", FUIntALU, readRR, true},
	Sub:  {"sub", FUIntALU, readRR, true},
	And:  {"and", FUIntALU, readRR, true},
	Or:   {"or", FUIntALU, readRR, true},
	Xor:  {"xor", FUIntALU, readRR, true},
	Shl:  {"shl", FUIntALU, readRR, true},
	Shr:  {"shr", FUIntALU, readRR, true},
	Slt:  {"slt", FUIntALU, readRR, true},
	Sltu: {"sltu", FUIntALU, readRR, true},
	Seq:  {"seq", FUIntALU, readRR, true},
	Min:  {"min", FUIntALU, readRR, true},
	Max:  {"max", FUIntALU, readRR, true},

	AddI: {"addi", FUIntALU, ReadSrc1, true},
	AndI: {"andi", FUIntALU, ReadSrc1, true},
	OrI:  {"ori", FUIntALU, ReadSrc1, true},
	XorI: {"xori", FUIntALU, ReadSrc1, true},
	ShlI: {"shli", FUIntALU, ReadSrc1, true},
	ShrI: {"shri", FUIntALU, ReadSrc1, true},
	SltI: {"slti", FUIntALU, ReadSrc1, true},

	Li:  {"li", FUIntALU, readNone, true},
	Mov: {"mov", FUIntALU, ReadSrc1, true},

	Mul: {"mul", FUIntMul, readRR, true},
	Div: {"div", FUIntDiv, readRR, true},
	Rem: {"rem", FUIntDiv, readRR, true},

	FAdd: {"fadd", FUFPAdd, readRR, true},
	FSub: {"fsub", FUFPAdd, readRR, true},
	FMul: {"fmul", FUFPMul, readRR, true},
	FDiv: {"fdiv", FUFPDiv, readRR, true},
	FSlt: {"fslt", FUFPAdd, readRR, true},
	ItoF: {"itof", FUFPAdd, ReadSrc1, true},
	FtoI: {"ftoi", FUFPAdd, ReadSrc1, true},

	Ld: {"ld", FUMem, readRR, true},
	St: {"st", FUMem, readStore, false},

	Beq:  {"beq", FUBranch, readRR, false},
	Bne:  {"bne", FUBranch, readRR, false},
	Blt:  {"blt", FUBranch, readRR, false},
	Bge:  {"bge", FUBranch, readRR, false},
	Bltu: {"bltu", FUBranch, readRR, false},
	Bgeu: {"bgeu", FUBranch, readRR, false},
	Jmp:  {"jmp", FUBranch, readNone, false},
	Halt: {"halt", FUNone, readNone, false},
}

// unknownOp answers for an Op at or above numOps, which no Builder method
// emits: an integer ALU op reading Src1 and writing Dst, printed as
// op(N) — the answers the per-fact switches gave before the table.
var unknownOp = opInfo{fu: FUIntALU, reads: ReadSrc1, writes: true}

// info returns the opcode's row of opTable.
func (o Op) info() *opInfo {
	if o < numOps {
		return &opTable[o]
	}
	return &unknownOp
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

// haltInstr is the instruction At returns for a PC outside the program.
var haltInstr = Instr{Op: Halt}

// At returns the instruction at pc, in place: the pointer is into the
// program's instruction array, which every core, engine and interpreter
// running the program shares, so nothing writes through it.
// Out-of-range PCs return a Halt so a runaway speculative fetch
// self-terminates.
func (p *Program) At(pc int) *Instr {
	if uint(pc) >= uint(len(p.Instrs)) {
		return &haltInstr
	}
	return &p.Instrs[pc]
}
