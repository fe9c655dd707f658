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
	"runtime"
	"slices"
	"sort"
	"sync"

	"vrsim/internal/rng"
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

// fanOut runs body(c) for every c below p, each on its own goroutine,
// and returns when all have returned.
func fanOut(p int, body func(c int)) {
	var wg sync.WaitGroup
	wg.Add(p)
	for c := range p {
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
}

// radixMin is the shortest adjacency list fromEdges sorts by radix;
// slices.Sort is faster below it.
const radixMin = 257

// vertexBits returns the bits in the largest of n vertex ids. An edge
// list packs each edge into one word, its source's bits above its
// destination's, so n must be at most 2^32.
func vertexBits(n int) int {
	width := bits.Len64(uint64(n - 1))
	if width > 32 {
		//vrlint:allow panicfree -- precondition assertion: every generator call builds at most 2^scale vertices at a fixed scale far below 32
		panic("graph: more than 2^32 vertices")
	}
	return width
}

// fromEdges builds a CSR from a packed edge list (see vertexBits), sorting
// adjacency lists and keeping duplicate edges (as Graph500 generators do).
// The lists take the edge list's storage. Weights, if wanted, are the
// generator's draws after state s.
//
// GOMAXPROCS goroutines share three passes, and between them each pass
// reads every edge once, whatever the goroutine count. Goroutine c takes
// the c-th chunk of the edge list and the c-th range of vertices.
//  1. Each counts its chunk's edges by the range of their source.
//  2. The counts number the slots of a second array range by range, and
//     chunk by chunk within a range, so a range's edges get the slots its
//     lists will fill. Each goroutine moves its chunk's edges into their
//     slots, each source replaced by its offset in its range.
//  3. Each counts its range's degrees from those edges, scatters their
//     destinations into lists in the edge list's storage, and sorts each
//     list. A list's entries arrive in no fixed order, and it is sorted
//     afterwards anyway.
func fromEdges(n int, edges []uint64, weighted bool, s uint64) *CSR {
	width := vertexBits(n)
	m := len(edges)
	rowPtr := make([]uint64, n+1)
	byRange := make([]uint64, m)
	p := runtime.GOMAXPROCS(0)
	chunk := func(c int) []uint64 { return edges[m*c/p : m*(c+1)/p] }
	// Vertex u lies in range r = (u*p)>>width, which starts at firsts[r].
	pp := uint64(p)
	firsts := make([]uint64, p+1)
	for r := range firsts {
		firsts[r] = min(uint64(n), (uint64(r)<<width+pp-1)/pp)
	}
	// slots[c*p+r] counts chunk c's edges leaving range r, and then holds
	// the next slot for them.
	slots := make([]uint64, p*p)
	fanOut(p, func(c int) {
		count := slots[c*p : (c+1)*p]
		for _, e := range chunk(c) {
			count[((e>>width)*pp)>>width]++
		}
	})
	// starts[r] is range r's first slot.
	starts := make([]uint64, p+1)
	for r := range p {
		starts[r+1] = starts[r]
		for c := range p {
			k := c*p + r
			slots[k], starts[r+1] = starts[r+1], starts[r+1]+slots[k]
		}
	}
	fanOut(p, func(c int) {
		next := slots[c*p : (c+1)*p]
		for _, e := range chunk(c) {
			r := ((e >> width) * pp) >> width
			byRange[next[r]] = e - firsts[r]<<width
			next[r]++
		}
	})
	fanOut(p, func(r int) {
		lo, hi := firsts[r], firsts[r+1]
		own := byRange[starts[r]:starts[r+1]]
		for _, e := range own {
			rowPtr[lo+e>>width]++
		}
		// Scatter with rowPtr[u] as u's cursor, starting at its list's
		// start. Each cursor ends at its list's end.
		for u, next := lo, starts[r]; u < hi; u++ {
			rowPtr[u], next = next, next+rowPtr[u]
		}
		for _, e := range own {
			u := lo + e>>width
			edges[rowPtr[u]] = e & (1<<width - 1)
			rowPtr[u]++
		}
		// Sort each list, and move each row pointer back to its start,
		// the previous list's end.
		start := starts[r]
		var tmp []uint64
		for u := lo; u < hi; u++ {
			end := rowPtr[u]
			// slices.Sort, not sort.Slice: the latter allocates a swapper
			// and closure per call, and this loop runs once per vertex.
			if adj := edges[start:end]; len(adj) < radixMin {
				slices.Sort(adj)
			} else {
				tmp = radixSort(adj, tmp, width)
			}
			rowPtr[u], start = start, end
		}
	})
	rowPtr[n] = uint64(m)
	g := &CSR{RowPtr: rowPtr, ColIdx: edges}
	if weighted {
		g.Weights = make([]uint64, m)
		// Weight i is draw i+1 after s.
		rng.Chunks(m, func(lo, hi int) {
			r := rng.At(rng.Jump(s, uint64(lo)))
			for i := lo; i < hi; i++ {
				g.Weights[i] = 1 + r.Next()%255
			}
		})
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
	s := rng.Seed(seed)
	m := n * avgDegree
	width := vertexBits(n)
	edges := make([]uint64, m)
	// Edge i takes draws 2i+1 (its source) and 2i+2 (its destination).
	rng.Chunks(m, func(lo, hi int) {
		r := rng.At(rng.Jump(s, 2*uint64(lo)))
		for i := lo; i < hi; i++ {
			u := uint64(r.Intn(n))
			edges[i] = u<<width | uint64(r.Intn(n))
		}
	})
	return fromEdges(n, edges, weighted, rng.Jump(s, 2*uint64(m)))
}

// Kronecker generates a KR-style power-law graph with 2^scale nodes and
// edgeFactor*2^scale edges using the Graph500 RMAT parameters
// (A,B,C) = (0.57, 0.19, 0.19). A few vertices collect enormous adjacency
// lists — the long inner loops VR vectorizes profitably.
func Kronecker(scale, edgeFactor int, seed uint64, weighted bool) *CSR {
	s0 := rng.Seed(seed)
	n := 1 << scale
	m := n * edgeFactor
	width := vertexBits(n)
	edges := make([]uint64, m)
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
	// Edge i takes draws scale·i+1 to scale·(i+1).
	rng.Chunks(m, func(lo, hi int) {
		s := rng.Jump(s0, uint64(scale*lo)) // a local state stays in a register through the draws
		for i := lo; i < hi; i++ {
			var u, v uint64
			for bit := 0; bit < scale; bit++ {
				s = rng.Step(s)
				q := quadrant[s%100]
				u |= uint64(q>>1) << bit
				v |= uint64(q&1) << bit
			}
			// Permute vertex labels so the heavy vertices are scattered.
			edges[i] = scramble(u, uint64(n))<<width | scramble(v, uint64(n))
		}
	})
	return fromEdges(n, edges, weighted, rng.Jump(s0, uint64(scale*m)))
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
