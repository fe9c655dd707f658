// Package graph provides the compressed-sparse-row graph representation
// and the synthetic generators standing in for the paper's GAP inputs:
// Kronecker (KR, power-law, like Graph500) and uniform-random (UR, Erdős–
// Rényi-style). The paper's billion-edge inputs are replaced by
// laptop-scale instances whose working sets still exceed the 8 MB LLC; the
// property that differentiates KR from UR in the evaluation — heavy-tailed
// versus uniform degree distributions — is preserved by construction.
package graph

import (
	"math/bits"
	"slices"
	"sort"
)

// CSR is a directed graph in compressed sparse row form.
type CSR struct {
	// RowPtr has NumNodes+1 entries; the neighbors of u are
	// ColIdx[RowPtr[u]:RowPtr[u+1]].
	RowPtr []uint64
	ColIdx []uint64
	// Weights holds per-edge weights parallel to ColIdx (for sssp); nil
	// for unweighted graphs.
	Weights []uint64
}

// NumNodes returns the vertex count.
func (g *CSR) NumNodes() int { return len(g.RowPtr) - 1 }

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() int { return len(g.ColIdx) }

// Degree returns the out-degree of u.
func (g *CSR) Degree(u int) int { return int(g.RowPtr[u+1] - g.RowPtr[u]) }

// Neighbors returns the adjacency slice of u.
func (g *CSR) Neighbors(u int) []uint64 { return g.ColIdx[g.RowPtr[u]:g.RowPtr[u+1]] }

// MaxDegree returns the largest out-degree.
func (g *CSR) MaxDegree() int {
	m := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(u); d > m {
			m = d
		}
	}
	return m
}

// rng is a splitmix64-seeded xorshift generator: deterministic, cheap,
// independent of math/rand for reproducibility across Go versions.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s = xorshift(r.s)
	return r.s
}

// xorshift advances a generator state by one step.
func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// radixMin is the shortest adjacency list fromEdges sorts by radix;
// slices.Sort is faster below it.
const radixMin = 257

// fromEdges builds a CSR from an edge list, sorting adjacency lists and
// keeping duplicate edges (as Graph500 generators do). Every dst value
// must be below n.
func fromEdges(n int, src, dst []uint64, weighted bool, rnd *rng) *CSR {
	rowPtr := make([]uint64, n+1)
	for _, u := range src {
		rowPtr[u+1]++
	}
	for i := 1; i <= n; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	// Scatter with rowPtr[u] as u's cursor. Each cursor ends at its
	// list's end, the next list's start, so shifting the array up one
	// slot restores the row pointers.
	col := make([]uint64, len(dst))
	for i, u := range src {
		col[rowPtr[u]] = dst[i]
		rowPtr[u]++
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	width := bits.Len64(uint64(n - 1)) // bits in the largest vertex id
	var tmp []uint64
	for u := 0; u < n; u++ {
		// slices.Sort, not sort.Slice: the latter allocates a swapper and
		// closure per call, and this loop runs once per vertex.
		if adj := col[rowPtr[u]:rowPtr[u+1]]; len(adj) < radixMin {
			slices.Sort(adj)
		} else {
			tmp = radixSort(adj, tmp, width)
		}
	}
	g := &CSR{RowPtr: rowPtr, ColIdx: col}
	if weighted {
		g.Weights = make([]uint64, len(col))
		for i := range g.Weights {
			g.Weights[i] = 1 + rnd.next()%255
		}
	}
	return g
}

// radixSort sorts a, whose values lie below 1<<width, by least-significant
// byte first, through tmp as scratch (grown to len(a) if short); it
// returns tmp for reuse.
func radixSort(a, tmp []uint64, width int) []uint64 {
	if cap(tmp) < len(a) {
		tmp = make([]uint64, len(a))
	}
	from, to := a, tmp[:len(a)]
	for shift := 0; shift < width; shift += 8 {
		var next [256]int // each byte value's next slot in to
		for _, x := range from {
			next[byte(x>>shift)]++
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, x := range from {
			d := byte(x >> shift)
			to[next[d]] = x
			next[d]++
		}
		from, to = to, from
	}
	copy(a, from) // from is a itself after an even number of passes
	return tmp
}

// Uniform generates a UR-style graph: n nodes, degree*n directed edges with
// both endpoints uniform. Degree concentration is tight (Poisson-like), the
// property that starves Vector Runahead of long inner loops in the paper's
// UR results.
func Uniform(n, avgDegree int, seed uint64, weighted bool) *CSR {
	r := newRNG(seed)
	m := n * avgDegree
	src := make([]uint64, m)
	dst := make([]uint64, m)
	for i := 0; i < m; i++ {
		src[i] = uint64(r.intn(n))
		dst[i] = uint64(r.intn(n))
	}
	return fromEdges(n, src, dst, weighted, r)
}

// Kronecker generates a KR-style power-law graph with 2^scale nodes and
// edgeFactor*2^scale edges using the Graph500 RMAT parameters
// (A,B,C) = (0.57, 0.19, 0.19). A few vertices collect enormous adjacency
// lists — the long inner loops VR vectorizes profitably.
func Kronecker(scale, edgeFactor int, seed uint64, weighted bool) *CSR {
	r := newRNG(seed)
	n := 1 << scale
	m := n * edgeFactor
	src := make([]uint64, m)
	dst := make([]uint64, m)
	const a, b, c = 57, 19, 19 // percent; d = 5
	// quadrant maps a draw in [0, 100) to its RMAT quadrant: bit 1 sets
	// u's bit, bit 0 sets v's. The lookup replaces a three-way branch on
	// the draw, which mispredicts on a large share of the draws.
	var quadrant [100]uint8
	for p := range quadrant {
		switch {
		case p < a:
			// u:0 v:0
		case p < a+b:
			quadrant[p] = 1
		case p < a+b+c:
			quadrant[p] = 2
		default:
			quadrant[p] = 3
		}
	}
	s := r.s // a local state stays in a register through the draws
	for i := 0; i < m; i++ {
		var u, v uint64
		for bit := 0; bit < scale; bit++ {
			s = xorshift(s)
			q := quadrant[s%100]
			u |= uint64(q>>1) << bit
			v |= uint64(q&1) << bit
		}
		// Permute vertex labels so the heavy vertices are scattered.
		src[i] = scramble(u, uint64(n))
		dst[i] = scramble(v, uint64(n))
	}
	r.s = s
	return fromEdges(n, src, dst, weighted, r)
}

// scramble applies a fixed odd-multiplier permutation modulo a power of two.
func scramble(x, n uint64) uint64 {
	return (x*0x9e3779b97f4a7c15 + 0x7f4a7c15) & (n - 1)
}

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Avg    float64
	Max    int
	P99    int
	Zeroes int // vertices with no out-edges
}

// Degrees computes distribution statistics.
func (g *CSR) Degrees() DegreeStats {
	n := g.NumNodes()
	ds := make([]int, n)
	var sum, zeroes int
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		ds[u] = d
		sum += d
		if d == 0 {
			zeroes++
		}
	}
	sort.Ints(ds)
	return DegreeStats{
		Avg:    float64(sum) / float64(n),
		Max:    ds[n-1],
		P99:    ds[n*99/100],
		Zeroes: zeroes,
	}
}
