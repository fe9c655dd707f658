package core

import (
	"strings"
	"testing"

	"vrsim/internal/cpu"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
)

// readFields lists the register fields each opcode reads as data: '1'
// for Src1, '2' for Src2 and 'd' for Dst (a store's value register). It
// restates the facts isa's own tests pin, whose table this package cannot
// import.
var readFields = map[isa.Op]string{
	isa.Nop: "",

	isa.Add: "12", isa.Sub: "12", isa.And: "12", isa.Or: "12", isa.Xor: "12",
	isa.Shl: "12", isa.Shr: "12", isa.Slt: "12", isa.Sltu: "12", isa.Seq: "12",
	isa.Min: "12", isa.Max: "12",

	isa.AddI: "1", isa.AndI: "1", isa.OrI: "1", isa.XorI: "1",
	isa.ShlI: "1", isa.ShrI: "1", isa.SltI: "1",

	isa.Li: "", isa.Mov: "1",

	isa.Mul: "12", isa.Div: "12", isa.Rem: "12",

	isa.FAdd: "12", isa.FSub: "12", isa.FMul: "12", isa.FDiv: "12", isa.FSlt: "12",
	isa.ItoF: "1", isa.FtoI: "1",

	isa.Ld: "12", isa.St: "12d",

	isa.Beq: "12", isa.Bne: "12", isa.Blt: "12", isa.Bge: "12", isa.Bltu: "12", isa.Bgeu: "12",
	isa.Jmp: "", isa.Halt: "",
}

// askedPredictor predicts not-taken and counts how often it is asked.
type askedPredictor struct{ asked int }

func (p *askedPredictor) Predict(int, uint64) bool { p.asked++; return false }
func (p *askedPredictor) Update(int, uint64, bool) {}
func (p *askedPredictor) Name() string             { return "asked" }

// runaheadAccesses counts the runahead accesses h served, at every level.
func runaheadAccesses(h *mem.Hierarchy) (n uint64) {
	for _, v := range h.Stats.RunaheadAccesses {
		n += v
	}
	return n
}

// TestWalkerReadSets: the walker treats exactly an opcode's read fields
// as its sources. With one register field poisoned at a time, an opcode
// that writes Dst leaves it valid exactly when the poisoned field is
// outside its read set (any other opcode leaves Dst as it was), a load
// or store with a poisoned read register issues no access, and a
// conditional branch with one asks the predictor instead of resolving.
func TestWalkerReadSets(t *testing.T) {
	if len(readFields) != int(isa.Halt)+1 {
		t.Fatalf("readFields covers %d opcodes, the ISA has %d", len(readFields), int(isa.Halt)+1)
	}
	const src1, src2, dst isa.Reg = 5, 9, 13
	fields := []struct {
		name byte
		reg  isa.Reg
	}{{'1', src1}, {'2', src2}, {'d', dst}}
	for op := isa.Nop; op <= isa.Halt; op++ {
		reads, ok := readFields[op]
		if !ok {
			t.Fatalf("%v: no read fields listed", op)
		}
		prog := &isa.Program{Instrs: []isa.Instr{{Op: op, Dst: dst, Src1: src1, Src2: src2, Scale: 3, Imm: 8, Target: 0}}}
		for _, f := range fields {
			data := mem.NewBacking()
			h := mem.MustHierarchy(mem.DefaultConfig())
			h.PerfectL1 = true // every issued load returns its value
			h.Data = data
			c := cpu.New(cpu.DefaultConfig(), prog, data, h)
			pred := &askedPredictor{}
			w := walker{prog: prog, pred: pred}
			for r := 0; r < isa.NumRegs; r++ {
				w.valid[r] = true
			}
			w.regs[src1], w.regs[src2], w.regs[dst] = 0x10_0000, 3, 42
			w.valid[f.reg] = false

			in := w.fetch()
			w.step(c, in, 100)

			read := strings.IndexByte(reads, f.name) >= 0
			wantValid := f.name != 'd'
			if in.WritesDst() {
				wantValid = !read
			}
			if w.valid[dst] != wantValid {
				t.Errorf("%v with field %c poisoned: Dst valid %v, want %v", op, f.name, w.valid[dst], wantValid)
			}
			var wantAccesses uint64
			if in.IsMem() && !read {
				wantAccesses = 1
			}
			if got := runaheadAccesses(h); got != wantAccesses {
				t.Errorf("%v with field %c poisoned: %d runahead accesses, want %d", op, f.name, got, wantAccesses)
			}
			wantAsked := 0
			if in.IsCondBranch() && read {
				wantAsked = 1
			}
			if pred.asked != wantAsked {
				t.Errorf("%v with field %c poisoned: predictor asked %d times, want %d", op, f.name, pred.asked, wantAsked)
			}
		}
	}
}
