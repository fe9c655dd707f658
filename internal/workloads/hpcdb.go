package workloads

import (
	"fmt"
	"sort"

	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/rng"
)

// sortedKeys returns m's keys in ascending order, so validators visit
// expected values deterministically and report the same first mismatch on
// every run.
func sortedKeys(m map[uint64]uint64) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m { //vrlint:allow simdet -- collect-then-sort: order is normalized below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// hashRounds emits `rounds` of the xorshift-style mixing used by the camel
// and hash-join kernels on register rv (clobbering rt), and returns the
// matching native Go function.
func hashRounds(b *isa.Builder, rv, rt isa.Reg, rounds int) {
	for r := 0; r < rounds; r++ {
		b.ShrI(rt, rv, 7)
		b.Xor(rv, rv, rt)
		b.ShlI(rt, rv, 5)
		b.Add(rv, rv, rt)
	}
}

// nativeHash mirrors hashRounds in Go.
func nativeHash(v uint64, rounds int) uint64 {
	for r := 0; r < rounds; r++ {
		v ^= v >> 7
		v += v << 5
	}
	return v
}

// fillDraws is a drawPages fill that writes each draw as it is.
func fillDraws(s uint64, page [][]uint64) uint64 {
	for w := range page[0] {
		s = rng.Step(s)
		page[0][w] = s
	}
	return s
}

// fillIndices returns a drawPages fill that writes each draw modulo n.
func fillIndices(n uint64) func(s uint64, page [][]uint64) uint64 {
	return func(s uint64, page [][]uint64) uint64 {
		for w := range page[0] {
			s = rng.Step(s)
			page[0][w] = s % n
		}
		return s
	}
}

// Camel is the paper's Figure-1 kernel: a two-level indirect chain with a
// hash between levels, C[hash(B[hash(A[i])])]++ — the canonical pattern
// Vector Runahead targets.
func Camel(tableLog, iters int) *Workload {
	const (
		rA    isa.Reg = 1
		rB    isa.Reg = 2
		rC    isa.Reg = 3
		rI    isa.Reg = 4
		rN    isa.Reg = 5
		rV    isa.Reg = 6
		rT    isa.Reg = 7
		rMask isa.Reg = 8
		rCnt  isa.Reg = 9
	)
	const rounds = 4
	size := 1 << tableLog
	l := newLayout()
	baseA := l.array(iters)
	baseB := l.array(size)
	baseC := l.array(size)

	b := isa.NewBuilder("camel")
	b.Li(rZero, 0)
	b.Li(rA, int64(baseA))
	b.Li(rB, int64(baseB))
	b.Li(rC, int64(baseC))
	b.Li(rI, 0)
	b.Li(rN, int64(iters))
	b.Li(rMask, int64(size-1))
	b.Label("loop")
	b.Ld(rV, rA, rI, 3, 0) // v = A[i]
	hashRounds(b, rV, rT, rounds)
	b.And(rV, rV, rMask)
	b.Ld(rV, rB, rV, 3, 0) // v = B[hash(v)]
	hashRounds(b, rV, rT, rounds)
	b.And(rV, rV, rMask)
	b.Ld(rCnt, rC, rV, 3, 0) // C[hash(v)]++
	b.AddI(rCnt, rCnt, 1)
	b.St(rCnt, rC, rV, 3, 0)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()

	mask := uint64(size - 1)
	fill := func(d *mem.Backing) {
		drawPages(d, 101, 0, iters, []uint64{baseA}, fillDraws)
		drawPages(d, 101, uint64(iters), size, []uint64{baseB}, fillDraws)
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		x := rng.New(101)
		a := make([]uint64, iters)
		for i := range a {
			a[i] = x.Next()
		}
		bt := make([]uint64, size)
		for i := range bt {
			bt[i] = x.Next()
		}
		want := make(map[uint64]uint64)
		for i := 0; i < iters; i++ {
			v := nativeHash(a[i], rounds) & mask
			v = nativeHash(bt[v], rounds) & mask
			want[v]++
		}
		for _, idx := range sortedKeys(want) {
			if got := d.Load(baseC + idx*8); got != want[idx] {
				return fmt.Errorf("camel: C[%d] = %d, want %d", idx, got, want[idx])
			}
		}
		return nil
	}
	return &Workload{
		Name: "camel", Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(iters) * 30,
	}
}

// Kangaroo hops through two levels of pure indirection with no address
// computation between them: D[i] = C[B[A[i]]]; indices are pre-masked at
// initialization. (After the kernel of the same name used by the
// event-triggered-prefetcher and software-prefetching studies the paper
// draws its hpc-db set from.)
func Kangaroo(tableLog, iters int) *Workload {
	const (
		rA isa.Reg = 1
		rB isa.Reg = 2
		rC isa.Reg = 3
		rD isa.Reg = 4
		rI isa.Reg = 5
		rN isa.Reg = 6
		rV isa.Reg = 7
	)
	size := 1 << tableLog
	l := newLayout()
	baseA := l.array(iters)
	baseB := l.array(size)
	baseC := l.array(size)
	baseD := l.array(iters)

	b := isa.NewBuilder("kangaroo")
	b.Li(rZero, 0)
	b.Li(rA, int64(baseA))
	b.Li(rB, int64(baseB))
	b.Li(rC, int64(baseC))
	b.Li(rD, int64(baseD))
	b.Li(rI, 0)
	b.Li(rN, int64(iters))
	b.Label("loop")
	b.Ld(rV, rA, rI, 3, 0) // v = A[i]
	b.Ld(rV, rB, rV, 3, 0) // v = B[v]
	b.Ld(rV, rC, rV, 3, 0) // v = C[v]
	b.St(rV, rD, rI, 3, 0) // D[i] = v
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()

	um := uint64(size)
	fill := func(d *mem.Backing) {
		drawPages(d, 202, 0, iters, []uint64{baseA}, fillIndices(um))
		drawPages(d, 202, uint64(iters), size, []uint64{baseB, baseC}, func(s uint64, page [][]uint64) uint64 {
			b, c := page[0], page[1]
			for w := range b {
				s = rng.Step(s)
				b[w] = s % um
				s = rng.Step(s)
				c[w] = s % 1_000_000
			}
			return s
		})
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		x := rng.New(202)
		a := make([]uint64, iters)
		for i := range a {
			a[i] = x.Next() % um
		}
		bt := make([]uint64, size)
		ct := make([]uint64, size)
		for i := 0; i < size; i++ {
			bt[i] = x.Next() % um
			ct[i] = x.Next() % 1_000_000
		}
		for i := 0; i < iters; i++ {
			want := ct[bt[a[i]]]
			if got := d.Load(baseD + uint64(i)*8); got != want {
				return fmt.Errorf("kangaroo: D[%d] = %d, want %d", i, got, want)
			}
		}
		return nil
	}
	return &Workload{
		Name: "kangaroo", Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(iters) * 10,
	}
}

// HashJoin models the probe phase of an in-memory hash join with a bucket
// chain of the given depth: hj2 probes two dependent memory locations per
// key (bucket head, then payload), hj8 eight (a longer collision chain) —
// the paper's HJ-2/HJ-8 pair of database kernels.
func HashJoin(depth, tableLog, iters int) *Workload {
	const (
		rK    isa.Reg = 1  // key array
		rHT   isa.Reg = 2  // bucket heads
		rNx   isa.Reg = 3  // chain next
		rP    isa.Reg = 4  // payloads
		rI    isa.Reg = 5  // loop index
		rN    isa.Reg = 6  // loop bound
		rV    isa.Reg = 7  // current value
		rT    isa.Reg = 8  // hash temp
		rMask isa.Reg = 9  // table mask
		rSum  isa.Reg = 10 // matched payload sum
	)
	const rounds = 3
	size := 1 << tableLog
	l := newLayout()
	baseK := l.array(iters)
	baseHT := l.array(size)
	baseNx := l.array(size)
	baseP := l.array(size)

	name := fmt.Sprintf("hj%d", depth)
	b := isa.NewBuilder(name)
	b.Li(rZero, 0)
	b.Li(rK, int64(baseK))
	b.Li(rHT, int64(baseHT))
	b.Li(rNx, int64(baseNx))
	b.Li(rP, int64(baseP))
	b.Li(rI, 0)
	b.Li(rN, int64(iters))
	b.Li(rMask, int64(size-1))
	b.Li(rSum, 0)
	b.Label("loop")
	b.Ld(rV, rK, rI, 3, 0) // key = K[i]
	hashRounds(b, rV, rT, rounds)
	b.And(rV, rV, rMask)
	b.Ld(rV, rHT, rV, 3, 0) // e = HT[h]
	for hop := 1; hop < depth-1; hop++ {
		b.Ld(rV, rNx, rV, 3, 0) // e = Next[e]
	}
	b.Ld(rT, rP, rV, 3, 0) // payload = P[e]
	b.Add(rSum, rSum, rT)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()

	mask := uint64(size - 1)
	fill := func(d *mem.Backing) {
		drawPages(d, 303, 0, iters, []uint64{baseK}, fillDraws)
		drawPages(d, 303, uint64(iters), size, []uint64{baseHT, baseNx, baseP}, func(s uint64, page [][]uint64) uint64 {
			ht, nx, pl := page[0], page[1], page[2]
			for w := range ht {
				s = rng.Step(s)
				ht[w] = s & mask
				s = rng.Step(s)
				nx[w] = s & mask
				s = rng.Step(s)
				pl[w] = s % 1000
			}
			return s
		})
	}
	validate := func(d *mem.Backing, regs [isa.NumRegs]uint64) error {
		x := rng.New(303)
		keys := make([]uint64, iters)
		for i := range keys {
			keys[i] = x.Next()
		}
		ht := make([]uint64, size)
		nx := make([]uint64, size)
		pl := make([]uint64, size)
		for i := 0; i < size; i++ {
			ht[i] = x.Next() & mask
			nx[i] = x.Next() & mask
			pl[i] = x.Next() % 1000
		}
		var sum uint64
		for i := 0; i < iters; i++ {
			e := ht[nativeHash(keys[i], rounds)&mask]
			for hop := 1; hop < depth-1; hop++ {
				e = nx[e]
			}
			sum += pl[e]
		}
		if regs[rSum] != sum {
			return fmt.Errorf("%s: sum = %d, want %d", name, regs[rSum], sum)
		}
		return nil
	}
	return &Workload{
		Name: name, Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(iters) * uint64(20+depth*2),
	}
}

// NASCG is the conjugate-gradient kernel's sparse matrix–vector multiply:
// y[r] = Σ vals[j] · x[col[j]] over CSR rows, with indirect gathers of x —
// the NAS-CG access pattern.
func NASCG(rows, nnzPerRow int) *Workload {
	const (
		rRp   isa.Reg = 1  // rowptr
		rCol  isa.Reg = 2  // col indices
		rVal  isa.Reg = 3  // matrix values (f64 bits)
		rX    isa.Reg = 4  // dense vector
		rY    isa.Reg = 5  // result
		rR    isa.Reg = 6  // row
		rNR   isa.Reg = 7  // row count
		rJ    isa.Reg = 8  // edge cursor
		rEnd  isa.Reg = 9  // row end
		rAcc  isa.Reg = 10 // fp accumulator
		rC    isa.Reg = 11 // col value
		rV1   isa.Reg = 12 // matrix value
		rV2   isa.Reg = 13 // x value
		rProd isa.Reg = 14
	)
	nnz := rows * nnzPerRow
	l := newLayout()
	baseRp := l.array(rows + 1)
	baseCol := l.array(nnz)
	baseVal := l.array(nnz)
	baseX := l.array(rows)
	baseY := l.array(rows)

	b := isa.NewBuilder("nas-cg")
	b.Li(rZero, 0)
	b.Li(rRp, int64(baseRp))
	b.Li(rCol, int64(baseCol))
	b.Li(rVal, int64(baseVal))
	b.Li(rX, int64(baseX))
	b.Li(rY, int64(baseY))
	b.Li(rR, 0)
	b.Li(rNR, int64(rows))
	b.Label("rows")
	b.Ld(rJ, rRp, rR, 3, 0)   // j = rowptr[r]
	b.Ld(rEnd, rRp, rR, 3, 8) // end = rowptr[r+1]
	b.Li(rAcc, 0)             // 0.0
	b.Bge(rJ, rEnd, "emit")
	b.Label("inner")
	b.Ld(rC, rCol, rJ, 3, 0)  // c = col[j]
	b.Ld(rV1, rVal, rJ, 3, 0) // a = vals[j]
	b.Ld(rV2, rX, rC, 3, 0)   // xv = x[c]
	b.FMul(rProd, rV1, rV2)
	b.FAdd(rAcc, rAcc, rProd)
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rEnd, "inner")
	b.Label("emit")
	b.St(rAcc, rY, rR, 3, 0)
	b.AddI(rR, rR, 1)
	b.Blt(rR, rNR, "rows")
	b.Halt()

	fill := func(d *mem.Backing) {
		rp := make([]uint64, rows+1)
		for r := range rp {
			rp[r] = uint64(r * nnzPerRow)
		}
		d.Adopt(baseRp, rp)
		drawPages(d, 404, 0, nnz, []uint64{baseCol, baseVal}, func(s uint64, page [][]uint64) uint64 {
			col, val := page[0], page[1]
			for w := range col {
				s = rng.Step(s)
				col[w] = s % uint64(rows)
				s = rng.Step(s)
				val[w] = f64bits(float64(s%16) / 4)
			}
			return s
		})
		drawPages(d, 404, 2*uint64(nnz), rows, []uint64{baseX}, func(s uint64, page [][]uint64) uint64 {
			for w := range page[0] {
				s = rng.Step(s)
				page[0][w] = f64bits(float64(s%256) / 64)
			}
			return s
		})
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		x := rng.New(404)
		col := make([]uint64, nnz)
		val := make([]float64, nnz)
		for j := 0; j < nnz; j++ {
			col[j] = x.Next() % uint64(rows)
			val[j] = float64(x.Next()%16) / 4
		}
		xv := make([]float64, rows)
		for i := range xv {
			xv[i] = float64(x.Next()%256) / 64
		}
		for r := 0; r < rows; r++ {
			acc := 0.0
			for j := r * nnzPerRow; j < (r+1)*nnzPerRow; j++ {
				acc += val[j] * xv[col[j]]
			}
			if got := f64frombits(d.Load(baseY + uint64(r)*8)); got != acc {
				return fmt.Errorf("nas-cg: y[%d] = %v, want %v", r, got, acc)
			}
		}
		return nil
	}
	return &Workload{
		Name: "nas-cg", Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(nnz) * 10,
	}
}

// NASIS is the integer-sort key-counting kernel: a histogram of random
// keys, R[K[i]]++ — NAS-IS's bucket phase, a single level of indirection
// with read-modify-write updates.
func NASIS(tableLog, iters int) *Workload {
	const (
		rK   isa.Reg = 1
		rR   isa.Reg = 2
		rI   isa.Reg = 3
		rN   isa.Reg = 4
		rV   isa.Reg = 5
		rCnt isa.Reg = 6
	)
	size := 1 << tableLog
	l := newLayout()
	baseK := l.array(iters)
	baseR := l.array(size)

	b := isa.NewBuilder("nas-is")
	b.Li(rZero, 0)
	b.Li(rK, int64(baseK))
	b.Li(rR, int64(baseR))
	b.Li(rI, 0)
	b.Li(rN, int64(iters))
	b.Label("loop")
	b.Ld(rV, rK, rI, 3, 0)   // k = K[i]
	b.Ld(rCnt, rR, rV, 3, 0) // R[k]++
	b.AddI(rCnt, rCnt, 1)
	b.St(rCnt, rR, rV, 3, 0)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()

	um := uint64(size)
	fill := func(d *mem.Backing) {
		drawPages(d, 505, 0, iters, []uint64{baseK}, fillIndices(um))
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		x := rng.New(505)
		want := make(map[uint64]uint64)
		for i := 0; i < iters; i++ {
			want[x.Next()%um]++
		}
		for _, k := range sortedKeys(want) {
			if got := d.Load(baseR + k*8); got != want[k] {
				return fmt.Errorf("nas-is: R[%d] = %d, want %d", k, got, want[k])
			}
		}
		return nil
	}
	return &Workload{
		Name: "nas-is", Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(iters) * 8,
	}
}

// RandomAccess is the HPCC GUPS kernel: random xor-updates into a huge
// table, T[I[i]] ^= I[i], with the random indices streamed from a
// precomputed array (giving the striding induction load runahead
// techniques key off).
func RandomAccess(tableLog, iters int) *Workload {
	const (
		rIdx isa.Reg = 1
		rT   isa.Reg = 2
		rI   isa.Reg = 3
		rN   isa.Reg = 4
		rV   isa.Reg = 5
		rOld isa.Reg = 6
	)
	size := 1 << tableLog
	l := newLayout()
	baseI := l.array(iters)
	baseT := l.array(size)

	b := isa.NewBuilder("randomaccess")
	b.Li(rZero, 0)
	b.Li(rIdx, int64(baseI))
	b.Li(rT, int64(baseT))
	b.Li(rI, 0)
	b.Li(rN, int64(iters))
	b.Label("loop")
	b.Ld(rV, rIdx, rI, 3, 0) // v = I[i]
	b.Ld(rOld, rT, rV, 3, 0) // T[v] ^= v
	b.Xor(rOld, rOld, rV)
	b.St(rOld, rT, rV, 3, 0)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Halt()

	um := uint64(size)
	fill := func(d *mem.Backing) {
		drawPages(d, 606, 0, iters, []uint64{baseI}, fillIndices(um))
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		x := rng.New(606)
		want := make(map[uint64]uint64)
		for i := 0; i < iters; i++ {
			v := x.Next() % um
			want[v] ^= v
		}
		for _, k := range sortedKeys(want) {
			if got := d.Load(baseT + k*8); got != want[k] {
				return fmt.Errorf("randomaccess: T[%d] = %d, want %d", k, got, want[k])
			}
		}
		return nil
	}
	return &Workload{
		Name: "randomaccess", Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(iters) * 8,
	}
}
