package isa

import "math"

// EffAddr computes the effective address of a memory instruction given the
// values of its base (Src1) and index (Src2) registers.
func EffAddr(in *Instr, base, index uint64) uint64 {
	return base + (index << in.Scale) + uint64(in.Imm)
}

// ALUResult computes the register result of a non-memory, non-branch
// instruction from its source values. Loads, stores, branches, Nop and Halt
// return 0; callers handle those separately.
//
// Division by zero is well-defined (quotient 0, remainder = dividend) so
// that transient runahead execution over garbage values never traps.
func ALUResult(in *Instr, a, b uint64) uint64 {
	switch in.Op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (b & 63)
	case Shr:
		return a >> (b & 63)
	case Slt:
		return boolTo64(int64(a) < int64(b))
	case Sltu:
		return boolTo64(a < b)
	case Seq:
		return boolTo64(a == b)
	case Min:
		if int64(a) < int64(b) {
			return a
		}
		return b
	case Max:
		if int64(a) > int64(b) {
			return a
		}
		return b
	case AddI:
		return a + uint64(in.Imm)
	case AndI:
		return a & uint64(in.Imm)
	case OrI:
		return a | uint64(in.Imm)
	case XorI:
		return a ^ uint64(in.Imm)
	case ShlI:
		return a << (uint64(in.Imm) & 63)
	case ShrI:
		return a >> (uint64(in.Imm) & 63)
	case SltI:
		return boolTo64(int64(a) < in.Imm)
	case Li:
		return uint64(in.Imm)
	case Mov:
		return a
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case Rem:
		if b == 0 {
			return a
		}
		return uint64(int64(a) % int64(b))
	case FAdd:
		return f64op(a, b, fadd)
	case FSub:
		return f64op(a, b, fsub)
	case FMul:
		return f64op(a, b, fmul)
	case FDiv:
		return f64op(a, b, fdiv)
	case FSlt:
		return boolTo64(math.Float64frombits(a) < math.Float64frombits(b))
	case ItoF:
		return math.Float64bits(float64(int64(a)))
	case FtoI:
		return uint64(int64(math.Float64frombits(a)))
	default:
		// Loads, stores, branches, Nop and Halt: no ALU result.
		return 0
	}
}

// BranchTaken evaluates a conditional branch's condition from its source
// values. Jmp is always taken; non-branches are never taken.
func BranchTaken(in *Instr, a, b uint64) bool {
	switch in.Op {
	case Beq:
		return a == b
	case Bne:
		return a != b
	case Blt:
		return int64(a) < int64(b)
	case Bge:
		return int64(a) >= int64(b)
	case Bltu:
		return a < b
	case Bgeu:
		return a >= b
	case Jmp:
		return true
	default:
		// Non-branches are never taken.
		return false
	}
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f64op(a, b uint64, f func(x, y float64) float64) uint64 {
	return math.Float64bits(f(math.Float64frombits(a), math.Float64frombits(b)))
}

// Named (rather than literal) so the per-uop ALU path passes static funcs,
// never closure values.
func fadd(x, y float64) float64 { return x + y }
func fsub(x, y float64) float64 { return x - y }
func fmul(x, y float64) float64 { return x * y }
func fdiv(x, y float64) float64 { return x / y }
