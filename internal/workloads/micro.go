package workloads

import (
	"fmt"

	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/rng"
)

// Micro-benchmarks: small calibration kernels outside the paper's 13
// benchmarks. Each isolates one memory behaviour (pure streaming, serial
// pointer chasing, k-level indirection with tunable compute density), so
// tests and users can pin down which regime a technique helps in. They are
// not part of the default registry; build them with the constructors below.

// MicroStream walks an array sequentially, one load per element: the
// stride prefetcher's best case and runahead's no-op case.
func MicroStream(words int) *Workload {
	const (
		rA   isa.Reg = 1
		rI   isa.Reg = 2
		rN   isa.Reg = 3
		rV   isa.Reg = 4
		rSum isa.Reg = 5
	)
	l := newLayout()
	base := l.array(words)
	b := isa.NewBuilder("micro-stream")
	b.Li(rA, int64(base))
	b.Li(rI, 0)
	b.Li(rN, int64(words))
	b.Li(rSum, 0)
	b.Label("loop")
	b.Ld(rV, rA, rI, 3, 0)
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()
	fill := func(d *mem.Backing) {
		x := rng.New(1)
		for i := 0; i < words; i++ {
			d.Store(base+uint64(i)*8, x.Next()%1000)
		}
	}
	validate := func(d *mem.Backing, regs [isa.NumRegs]uint64) error {
		x := rng.New(1)
		var want uint64
		for i := 0; i < words; i++ {
			want += x.Next() % 1000
		}
		if regs[rSum] != want {
			return fmt.Errorf("micro-stream: sum = %d, want %d", regs[rSum], want)
		}
		return nil
	}
	return &Workload{Name: "micro-stream", Prog: b.MustBuild(), Init: fill,
		Validate: validate, SuggestedBudget: uint64(words) * 6}
}

// MicroChase follows a serial pointer chain: one fully dependent miss per
// step, the worst case for every window-based technique and the classic
// motivation for runahead.
func MicroChase(nodes, hops int) *Workload {
	const (
		rP isa.Reg = 1
		rI isa.Reg = 2
		rN isa.Reg = 3
	)
	l := newLayout()
	base := l.array(nodes * 64) // node spacing: one per 512 B
	b := isa.NewBuilder("micro-chase")
	b.Li(rP, int64(base))
	b.Li(rI, 0)
	b.Li(rN, int64(hops))
	b.Label("loop")
	b.LdD(rP, rP, 0)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()
	// Sattolo's algorithm: a uniformly random single-cycle permutation, so
	// the chase visits every node before repeating.
	succ := func() []uint64 {
		x := rng.New(2)
		perm := make([]uint64, nodes)
		for i := range perm {
			perm[i] = uint64(i)
		}
		for i := nodes - 1; i > 0; i-- {
			j := int(x.Next() % uint64(i))
			perm[i], perm[j] = perm[j], perm[i]
		}
		next := make([]uint64, nodes)
		for i := 0; i < nodes; i++ {
			next[perm[i]] = perm[(i+1)%nodes]
		}
		return next
	}
	fill := func(d *mem.Backing) {
		for i, nx := range succ() {
			d.Store(base+uint64(i)*512, base+nx*512)
		}
	}
	validate := func(d *mem.Backing, regs [isa.NumRegs]uint64) error {
		next := succ()
		cur := uint64(0)
		for i := 0; i < hops; i++ {
			cur = next[cur]
		}
		if want := base + cur*512; regs[rP] != want {
			return fmt.Errorf("micro-chase: final pointer %#x, want %#x", regs[rP], want)
		}
		return nil
	}
	return &Workload{Name: "micro-chase", Prog: b.MustBuild(), Init: fill,
		Validate: validate, SuggestedBudget: uint64(hops) * 5}
}

// MicroIndirect builds a k-level indirect chain with `rounds` rounds of
// value mixing between levels — the instructions-per-iteration knob that
// decides whether the out-of-order window or runahead extracts the MLP.
// Levels and rounds sweep the space between MicroStream and MicroChase.
func MicroIndirect(levels, rounds, tableLog, iters int) *Workload {
	const (
		rIdx  isa.Reg = 1
		rT0   isa.Reg = 2
		rI    isa.Reg = 3
		rN    isa.Reg = 4
		rV    isa.Reg = 5
		rSum  isa.Reg = 6
		rT    isa.Reg = 7
		rMask isa.Reg = 8
	)
	size := 1 << tableLog
	l := newLayout()
	baseIdx := l.array(iters)
	baseT := l.array(size)
	name := fmt.Sprintf("micro-indirect-l%dr%d", levels, rounds)

	b := isa.NewBuilder(name)
	b.Li(rIdx, int64(baseIdx))
	b.Li(rT0, int64(baseT))
	b.Li(rI, 0)
	b.Li(rN, int64(iters))
	b.Li(rSum, 0)
	b.Li(rMask, int64(size-1))
	b.Label("loop")
	b.Ld(rV, rIdx, rI, 3, 0)
	for lvl := 0; lvl < levels; lvl++ {
		for r := 0; r < rounds; r++ {
			b.ShrI(rT, rV, 7)
			b.Xor(rV, rV, rT)
			b.ShlI(rT, rV, 5)
			b.Add(rV, rV, rT)
		}
		b.And(rV, rV, rMask)
		b.Ld(rV, rT0, rV, 3, 0)
	}
	b.Add(rSum, rSum, rV)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()

	mask := uint64(size - 1)
	fill := func(d *mem.Backing) {
		x := rng.New(3)
		for i := 0; i < iters; i++ {
			d.Store(baseIdx+uint64(i)*8, x.Next())
		}
		for i := 0; i < size; i++ {
			d.Store(baseT+uint64(i)*8, x.Next())
		}
	}
	validate := func(d *mem.Backing, regs [isa.NumRegs]uint64) error {
		x := rng.New(3)
		idx := make([]uint64, iters)
		for i := range idx {
			idx[i] = x.Next()
		}
		tab := make([]uint64, size)
		for i := range tab {
			tab[i] = x.Next()
		}
		var want uint64
		for i := 0; i < iters; i++ {
			v := idx[i]
			for lvl := 0; lvl < levels; lvl++ {
				v = nativeHash(v, rounds) & mask
				v = tab[v]
			}
			want += v
		}
		if regs[rSum] != want {
			return fmt.Errorf("%s: sum = %d, want %d", name, regs[rSum], want)
		}
		return nil
	}
	return &Workload{Name: name, Prog: b.MustBuild(), Init: fill,
		Validate: validate, SuggestedBudget: uint64(iters) * uint64(8+levels*(rounds*4+2))}
}
