package workloads

import (
	"fmt"
	"slices"

	"vrsim/internal/graph"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/rng"
)

// GraphKind selects a synthetic graph generator standing in for the
// paper's Table 2 inputs.
type GraphKind int

// Graph kinds.
const (
	// GraphKron is a Kronecker/RMAT power-law graph (the paper's KR and
	// the Graph500 input): few vertices own very long adjacency lists.
	GraphKron GraphKind = iota
	// GraphUniform is a uniform-random graph (the paper's UR): degrees
	// concentrate near the mean, starving VR of long inner loops.
	GraphUniform
)

func buildGraph(kind GraphKind, scale, edgeFactor int, weighted bool, seed uint64) *graph.CSR {
	switch kind {
	case GraphUniform:
		return graph.Uniform(1<<scale, edgeFactor, seed, weighted)
	default:
		return graph.Kronecker(scale, edgeFactor, seed, weighted)
	}
}

// csrBases records where an unweighted CSR graph lives in simulated
// memory.
type csrBases struct {
	rowPtr, colIdx uint64
}

// placeCSR reserves space and returns a function that hands the graph's
// arrays to the image, which makes them read-only: the validators read
// the same memory as the kernel's image.
func placeCSR(l *layout, g *graph.CSR) (csrBases, func(d *mem.Backing)) {
	bs := csrBases{rowPtr: l.array(len(g.RowPtr)), colIdx: l.array(len(g.ColIdx))}
	write := func(d *mem.Backing) {
		d.Adopt(bs.rowPtr, g.RowPtr)
		d.Adopt(bs.colIdx, g.ColIdx)
	}
	return bs, write
}

// shuffleEdges permutes parallel edge arrays deterministically, breaking
// the u-sorted order CSR flattening produces: GAP's frontier- and
// bucket-driven kernels visit vertices in data-dependent order, so the
// per-vertex arrays are accessed randomly — the pattern runahead targets.
func shuffleEdges(seed uint64, arrays ...[]uint64) {
	if len(arrays) == 0 {
		return
	}
	x := rng.New(seed)
	n := len(arrays[0])
	for i := n - 1; i > 0; i-- {
		j := int(x.Next() % uint64(i+1))
		for _, a := range arrays {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// edgeList flattens g, in CSR order, into parallel source, destination
// and weight arrays; wts is nil for an unweighted graph.
func edgeList(g *graph.CSR) (srcs, dsts, wts []uint64) {
	srcs = make([]uint64, g.NumEdges())
	for u := 0; u < g.NumNodes(); u++ {
		for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
			srcs[e] = uint64(u)
		}
	}
	return srcs, slices.Clone(g.ColIdx), slices.Clone(g.Weights)
}

// minLabels computes each vertex's converged label under min-label
// propagation: the minimum vertex id in its (weakly) connected component.
// It reads g's edges in CSR order; the minima do not depend on the order.
func minLabels(g *graph.CSR) []uint64 {
	parent := make([]uint64, g.NumNodes())
	for v := range parent {
		parent[v] = uint64(v)
	}
	var find func(uint64) uint64
	find = func(v uint64) uint64 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for u := range parent {
		for _, v := range g.Neighbors(u) {
			a, b := find(uint64(u)), find(v)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	out := make([]uint64, len(parent))
	for v := range out {
		out[v] = find(uint64(v))
	}
	return out
}

// shortestPaths returns each vertex's distance from src over g's edge
// weights, inf where unreachable. It is Dial's bucket-queue Dijkstra: no
// tentative distance exceeds the one being settled by more than the
// largest weight, so a ring of that many buckets plus one, indexed by
// distance modulo its size, holds the whole frontier. A vertex queued
// again at a shorter distance leaves a stale entry behind, skipped when
// its bucket comes up.
func shortestPaths(g *graph.CSR, src int, inf uint64) []uint64 {
	dist := make([]uint64, g.NumNodes())
	for v := range dist {
		dist[v] = inf
	}
	var maxW uint64
	for _, w := range g.Weights {
		maxW = max(maxW, w)
	}
	size := maxW + 1
	ring := make([][]uint64, size)
	dist[src] = 0
	ring[0] = append(ring[0], uint64(src))
	for d, queued := uint64(0), 1; queued > 0; d++ {
		k := d % size
		for i := 0; i < len(ring[k]); i++ {
			u := ring[k][i]
			if dist[u] != d {
				continue
			}
			for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
				v := g.ColIdx[e]
				if nd := d + g.Weights[e]; nd < dist[v] {
					dist[v] = nd
					ring[nd%size] = append(ring[nd%size], v)
					queued++
				}
			}
		}
		queued -= len(ring[k])
		ring[k] = ring[k][:0]
	}
	return dist
}

// pickSource returns a deterministic source vertex with nonzero degree.
func pickSource(g *graph.CSR) int {
	x := rng.New(99)
	n := g.NumNodes()
	for {
		v := int(x.Next() % uint64(n))
		if g.Degree(v) > 0 {
			return v
		}
	}
}

// ---------------------------------------------------------------- BFS ---

// bfsProgram emits the paper's Algorithm 1: top-down breadth-first search
// with a worklist queue — two striding loads (the queue at the outer level,
// the adjacency list inner) and a highly data-dependent visited check.
func bfsProgram(name string, bs csrBases, baseQ, baseVis uint64, src int) *isa.Program {
	const (
		rRp   isa.Reg = 1
		rCol  isa.Reg = 2
		rQ    isa.Reg = 3
		rVis  isa.Reg = 4
		rHead isa.Reg = 5
		rTail isa.Reg = 6
		rU    isa.Reg = 7
		rJ    isa.Reg = 8
		rEnd  isa.Reg = 9
		rV    isa.Reg = 10
		rT    isa.Reg = 11
		rOne  isa.Reg = 12
	)
	b := isa.NewBuilder(name)
	b.Li(rZero, 0)
	b.Li(rRp, int64(bs.rowPtr))
	b.Li(rCol, int64(bs.colIdx))
	b.Li(rQ, int64(baseQ))
	b.Li(rVis, int64(baseVis))
	b.Li(rOne, 1)
	// Seed: Q[0] = src; visited[src] = 1; head = 0; tail = 1.
	b.Li(rU, int64(src))
	b.St(rU, rQ, rZero, 3, 0)
	b.St(rOne, rVis, rU, 3, 0)
	b.Li(rHead, 0)
	b.Li(rTail, 1)
	b.Label("outer")
	b.Bge(rHead, rTail, "done")
	b.Ld(rU, rQ, rHead, 3, 0) // u = Q[head]   (striding)
	b.AddI(rHead, rHead, 1)
	b.Ld(rJ, rRp, rU, 3, 0)   // j   = rowptr[u]
	b.Ld(rEnd, rRp, rU, 3, 8) // end = rowptr[u+1]
	b.Bge(rJ, rEnd, "outer")
	b.Label("inner")
	b.Ld(rV, rCol, rJ, 3, 0) // v = col[j]    (striding)
	b.Ld(rT, rVis, rV, 3, 0) // visited[v]?
	b.Bne(rT, rZero, "skip")
	b.St(rOne, rVis, rV, 3, 0) // visited[v] = 1
	b.St(rV, rQ, rTail, 3, 0)  // Q[tail++] = v
	b.AddI(rTail, rTail, 1)
	b.Label("skip")
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rEnd, "inner")
	b.Jmp("outer")
	b.Label("done")
	b.Halt()
	return b.MustBuild()
}

// nativeBFS mirrors bfsProgram exactly (same visit order).
func nativeBFS(g *graph.CSR, src int) (visited []uint64, order []uint64) {
	n := g.NumNodes()
	visited = make([]uint64, n)
	order = make([]uint64, 0, n)
	visited[src] = 1
	order = append(order, uint64(src))
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range g.Neighbors(int(u)) {
			if visited[v] == 0 {
				visited[v] = 1
				order = append(order, v)
			}
		}
	}
	return visited, order
}

func bfsWorkload(name string, scale int, kind GraphKind, seed uint64) *Workload {
	g := buildGraph(kind, scale, csrEdgeFactor, false, seed)
	src := pickSource(g)
	n := g.NumNodes()
	l := newLayout()
	bs, writeCSR := placeCSR(l, g)
	baseQ := l.array(n + 1)
	baseVis := l.array(n)

	prog := bfsProgram(name, bs, baseQ, baseVis, src)
	fill := func(d *mem.Backing) { writeCSR(d) }
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		visited, order := nativeBFS(g, src)
		if err := checkRange(d, baseVis, visited, name+": visited"); err != nil {
			return err
		}
		return checkRange(d, baseQ, order, name+": queue")
	}
	return &Workload{
		Name: name, Prog: prog, Init: fill, Validate: validate,
		SuggestedBudget: uint64(g.NumEdges()) * 8,
		Nodes:           n,
		Edges:           g.NumEdges(),
	}
}

// BFS is GAP breadth-first search on the selected graph.
func BFS(scale int, kind GraphKind, tag string) *Workload {
	return bfsWorkload("bfs_"+tag, scale, kind, 11)
}

// Graph500 is the Graph500 BFS kernel: the same top-down search on a
// Kronecker graph with the reference generator parameters.
func Graph500(scale int) *Workload {
	return bfsWorkload("graph500", scale, GraphKron, 500)
}

// ---------------------------------------------------------------- CC ----

// CC is GAP connected components, label-propagation style: repeated sweeps
// over the edge list pulling the smaller component label across each edge
// until a sweep makes no change. Striding edge-array loads feed indirect
// comp[] accesses with data-dependent updates.
func CC(scale int, kind GraphKind, tag string) *Workload {
	name := "cc_" + tag
	g := buildGraph(kind, scale, edgeListFactor, false, 22)
	n := g.NumNodes()
	m := g.NumEdges()

	// Flatten to an edge list (the GAP implementation's SV variant also
	// iterates edges).
	srcs, dsts, _ := edgeList(g)

	// Region of interest: the steady state of label propagation. The
	// image holds converged labels (component minima) with a sprinkling
	// of perturbed vertices, so sweeps do real-but-biased work — most
	// edges see settled labels, as in the later iterations the paper's
	// 500M-instruction ROI samples. The minima come from g, so another
	// goroutine finds them while the edge list is shuffled.
	labels := make(chan []uint64, 1)
	go func() { labels <- minLabels(g) }()
	shuffleEdges(77, srcs, dsts)
	initComp := <-labels
	px := rng.New(123)
	for v := 0; v < n; v++ {
		if px.Next()%64 == 0 {
			initComp[v] = uint64(n + v)
		}
	}

	l := newLayout()
	baseSrc := l.array(m)
	baseDst := l.array(m)
	baseComp := l.array(n)

	const (
		rSrc  isa.Reg = 1
		rDst  isa.Reg = 2
		rComp isa.Reg = 3
		rI    isa.Reg = 4
		rM    isa.Reg = 5
		rU    isa.Reg = 6
		rV    isa.Reg = 7
		rCU   isa.Reg = 8
		rCV   isa.Reg = 9
		rChg  isa.Reg = 10
		rN    isa.Reg = 11
	)
	b := isa.NewBuilder(name)
	b.Li(rZero, 0)
	b.Li(rSrc, int64(baseSrc))
	b.Li(rDst, int64(baseDst))
	b.Li(rComp, int64(baseComp))
	b.Li(rM, int64(m))
	b.Li(rN, int64(n))
	// comp[v] = v comes preinitialized in the memory image (ROI starts at
	// the propagation sweeps).
	// Sweeps until no change.
	b.Label("sweep")
	b.Li(rChg, 0)
	b.Li(rI, 0)
	b.Label("edges")
	b.Ld(rU, rSrc, rI, 3, 0) // u = src[i]   (striding)
	b.Ld(rV, rDst, rI, 3, 0) // v = dst[i]   (striding)
	b.Ld(rCU, rComp, rU, 3, 0)
	b.Ld(rCV, rComp, rV, 3, 0)
	b.Bge(rCU, rCV, "try2")
	b.St(rCU, rComp, rV, 3, 0) // comp[v] = comp[u]
	b.Li(rChg, 1)
	b.Jmp("next")
	b.Label("try2")
	b.Bge(rCV, rCU, "next") // equal: nothing to do
	b.St(rCV, rComp, rU, 3, 0)
	b.Li(rChg, 1)
	b.Label("next")
	b.AddI(rI, rI, 1)
	b.Blt(rI, rM, "edges")
	b.Bne(rChg, rZero, "sweep")
	b.Halt()

	fill := func(d *mem.Backing) {
		d.Adopt(baseSrc, srcs)
		d.Adopt(baseDst, dsts)
		d.Adopt(baseComp, initComp)
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		comp := make([]uint64, n)
		copy(comp, initComp)
		for changed := true; changed; {
			changed = false
			for i := 0; i < m; i++ {
				u, v := srcs[i], dsts[i]
				cu, cv := comp[u], comp[v]
				if cu < cv {
					comp[v] = cu
					changed = true
				} else if cv < cu {
					comp[u] = cv
					changed = true
				}
			}
		}
		return checkRange(d, baseComp, comp, name+": comp")
	}
	return &Workload{
		Name: name, Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(m) * 30,
		Nodes:           n,
		Edges:           m,
	}
}

// ---------------------------------------------------------------- PR ----

// PR is one GAP PageRank pull iteration: rank'[u] = (1-d)/n + d·Σ
// contrib[col[j]], with contrib = rank/outdegree precomputed — streaming
// CSR loads feeding indirect floating-point gathers.
func PR(scale int, kind GraphKind, tag string) *Workload {
	name := "pr_" + tag
	g := buildGraph(kind, scale, csrEdgeFactor, false, 33)
	n := g.NumNodes()

	const damping = 0.85
	contrib := make([]uint64, n)
	x := rng.New(44)
	for v := 0; v < n; v++ {
		r := float64(x.Next()%1000) / 1000
		d := g.Degree(v)
		if d == 0 {
			d = 1
		}
		contrib[v] = f64bits(r / float64(d))
	}

	l := newLayout()
	bs, writeCSR := placeCSR(l, g)
	baseContrib := l.array(n)
	baseRank := l.array(n)

	const (
		rRp   isa.Reg = 1
		rCol  isa.Reg = 2
		rCtr  isa.Reg = 3
		rRank isa.Reg = 4
		rU    isa.Reg = 5
		rN    isa.Reg = 6
		rJ    isa.Reg = 7
		rEnd  isa.Reg = 8
		rV    isa.Reg = 9
		rAcc  isa.Reg = 10
		rT    isa.Reg = 11
		rBase isa.Reg = 12
		rD    isa.Reg = 13
	)
	b := isa.NewBuilder(name)
	b.Li(rZero, 0)
	b.Li(rRp, int64(bs.rowPtr))
	b.Li(rCol, int64(bs.colIdx))
	b.Li(rCtr, int64(baseContrib))
	b.Li(rRank, int64(baseRank))
	b.Li(rN, int64(n))
	b.Li(rBase, int64(f64bits((1-damping)/float64(n))))
	b.Li(rD, int64(f64bits(damping)))
	b.Li(rU, 0)
	b.Label("rows")
	b.Ld(rJ, rRp, rU, 3, 0)
	b.Ld(rEnd, rRp, rU, 3, 8)
	b.Li(rAcc, 0)
	b.Bge(rJ, rEnd, "emit")
	b.Label("inner")
	b.Ld(rV, rCol, rJ, 3, 0) // v = col[j]   (striding)
	b.Ld(rT, rCtr, rV, 3, 0) // contrib[v]   (indirect)
	b.FAdd(rAcc, rAcc, rT)
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rEnd, "inner")
	b.Label("emit")
	b.FMul(rAcc, rAcc, rD)
	b.FAdd(rAcc, rAcc, rBase)
	b.St(rAcc, rRank, rU, 3, 0)
	b.AddI(rU, rU, 1)
	b.Blt(rU, rN, "rows")
	b.Halt()

	fill := func(d *mem.Backing) {
		writeCSR(d)
		d.Adopt(baseContrib, contrib)
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		for u := 0; u < n; u++ {
			acc := 0.0
			for _, v := range g.Neighbors(u) {
				acc += f64frombits(contrib[v])
			}
			want := acc*damping + (1-damping)/float64(n)
			if got := f64frombits(d.Load(baseRank + uint64(u)*8)); got != want {
				return fmt.Errorf("%s: rank[%d] = %v, want %v", name, u, got, want)
			}
		}
		return nil
	}
	return &Workload{
		Name: name, Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(g.NumEdges()) * 8,
		Nodes:           n,
		Edges:           g.NumEdges(),
	}
}

// ---------------------------------------------------------------- SSSP --

// SSSP is single-source shortest paths, Bellman-Ford style: bounded sweeps
// over the weighted edge list relaxing dist[] — striding edge loads feeding
// indirect distance reads with a highly data-dependent relaxation branch.
func SSSP(scale int, kind GraphKind, tag string) *Workload {
	name := "sssp_" + tag
	g := buildGraph(kind, scale, edgeListFactor, true, 55)
	src := pickSource(g)
	n := g.NumNodes()
	m := g.NumEdges()
	const inf = uint64(1) << 60
	const maxSweeps = 6 // bounded relaxation, deterministic

	// Region of interest: the steady state of the relaxation. The image
	// holds fully converged distances with a sprinkling of vertices whose
	// distance just improved (as when delta-stepping opens a new bucket):
	// sweeps then do real-but-mostly-failing relaxations with biased
	// branches, matching the algorithm's dominant phase. The distances
	// come from g, so another goroutine finds them while the edge list is
	// flattened and shuffled.
	dists := make(chan []uint64, 1)
	go func() { dists <- shortestPaths(g, src, inf) }()
	srcs, dsts, wts := edgeList(g)
	shuffleEdges(88, srcs, dsts, wts)
	initDist := <-dists
	px := rng.New(5150)
	for v := 0; v < n; v++ {
		if initDist[v] != inf && initDist[v] > 1 && px.Next()%64 == 0 {
			initDist[v] /= 2
		}
	}
	initDist[src] = 0

	l := newLayout()
	baseSrc := l.array(m)
	baseDst := l.array(m)
	baseW := l.array(m)
	baseDist := l.array(n)

	const (
		rSrc  isa.Reg = 1
		rDst  isa.Reg = 2
		rW    isa.Reg = 3
		rDist isa.Reg = 4
		rI    isa.Reg = 5
		rM    isa.Reg = 6
		rU    isa.Reg = 7
		rV    isa.Reg = 8
		rDU   isa.Reg = 9
		rDV   isa.Reg = 10
		rWt   isa.Reg = 11
		rCand isa.Reg = 12
		rN    isa.Reg = 13
		rInf  isa.Reg = 14
		rS    isa.Reg = 15
		rMaxS isa.Reg = 16
	)
	b := isa.NewBuilder(name)
	b.Li(rZero, 0)
	b.Li(rSrc, int64(baseSrc))
	b.Li(rDst, int64(baseDst))
	b.Li(rW, int64(baseW))
	b.Li(rDist, int64(baseDist))
	b.Li(rM, int64(m))
	b.Li(rN, int64(n))
	b.Li(rInf, int64(inf))
	b.Li(rMaxS, maxSweeps)
	// dist[] comes preinitialized in the memory image (mid-computation).
	b.Li(rS, 0)
	b.Label("sweep")
	b.Li(rI, 0)
	b.Label("edges")
	b.Ld(rU, rSrc, rI, 3, 0)
	b.Ld(rDU, rDist, rU, 3, 0)
	b.Bge(rDU, rInf, "next") // unreachable source: skip
	b.Ld(rV, rDst, rI, 3, 0)
	b.Ld(rWt, rW, rI, 3, 0)
	b.Add(rCand, rDU, rWt)
	b.Ld(rDV, rDist, rV, 3, 0)
	b.Bge(rCand, rDV, "next")
	b.St(rCand, rDist, rV, 3, 0)
	b.Label("next")
	b.AddI(rI, rI, 1)
	b.Blt(rI, rM, "edges")
	b.AddI(rS, rS, 1)
	b.Blt(rS, rMaxS, "sweep")
	b.Halt()

	fill := func(d *mem.Backing) {
		d.Adopt(baseSrc, srcs)
		d.Adopt(baseDst, dsts)
		d.Adopt(baseW, wts)
		d.Adopt(baseDist, initDist)
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		dist := make([]uint64, n)
		copy(dist, initDist)
		for s := 0; s < maxSweeps; s++ {
			for i := 0; i < m; i++ {
				du := dist[srcs[i]]
				if du >= inf {
					continue
				}
				if cand := du + wts[i]; cand < dist[dsts[i]] {
					dist[dsts[i]] = cand
				}
			}
		}
		return checkRange(d, baseDist, dist, name+": dist")
	}
	return &Workload{
		Name: name, Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(m) * 40,
		Nodes:           n,
		Edges:           m,
	}
}

// ---------------------------------------------------------------- BC ----

// BC is Brandes betweenness centrality from a single source: a forward BFS
// accumulating shortest-path counts (sigma), then a reverse sweep over the
// BFS order accumulating dependencies with floating-point divides — the
// most control- and data-dependent kernel in the GAP set.
func BC(scale int, kind GraphKind, tag string) *Workload {
	name := "bc_" + tag
	g := buildGraph(kind, scale, csrEdgeFactor, false, 66)
	src := pickSource(g)
	n := g.NumNodes()
	const inf = uint64(1) << 60

	l := newLayout()
	bs, writeCSR := placeCSR(l, g)
	baseQ := l.array(n + 1)
	baseDepth := l.array(n)
	baseSigma := l.array(n)
	baseDelta := l.array(n)

	const (
		rRp    isa.Reg = 1
		rCol   isa.Reg = 2
		rQ     isa.Reg = 3
		rDep   isa.Reg = 4
		rSig   isa.Reg = 5
		rDel   isa.Reg = 6
		rHead  isa.Reg = 7
		rTail  isa.Reg = 8
		rU     isa.Reg = 9
		rJ     isa.Reg = 10
		rEnd   isa.Reg = 11
		rV     isa.Reg = 12
		rT     isa.Reg = 13
		rT2    isa.Reg = 14
		rN     isa.Reg = 15
		rInf   isa.Reg = 16
		rOne   isa.Reg = 17
		rI     isa.Reg = 18
		rDepU1 isa.Reg = 19
		rF1    isa.Reg = 20
		rF2    isa.Reg = 21
		rF3    isa.Reg = 22
		rOneF  isa.Reg = 23
	)
	b := isa.NewBuilder(name)
	b.Li(rZero, 0)
	b.Li(rRp, int64(bs.rowPtr))
	b.Li(rCol, int64(bs.colIdx))
	b.Li(rQ, int64(baseQ))
	b.Li(rDep, int64(baseDepth))
	b.Li(rSig, int64(baseSigma))
	b.Li(rDel, int64(baseDelta))
	b.Li(rN, int64(n))
	b.Li(rInf, int64(inf))
	b.Li(rOne, 1)
	b.Li(rOneF, int64(f64bits(1.0)))
	// depth[]=INF, sigma[]=0, delta[]=0 come preinitialized in the image.
	// Seed source.
	b.Li(rU, int64(src))
	b.St(rU, rQ, rZero, 3, 0)
	b.St(rZero, rDep, rU, 3, 0)
	b.St(rOne, rSig, rU, 3, 0)
	b.Li(rHead, 0)
	b.Li(rTail, 1)
	// Forward BFS with sigma accumulation.
	b.Label("outer")
	b.Bge(rHead, rTail, "back")
	b.Ld(rU, rQ, rHead, 3, 0)
	b.AddI(rHead, rHead, 1)
	b.Ld(rJ, rRp, rU, 3, 0)
	b.Ld(rEnd, rRp, rU, 3, 8)
	b.Ld(rDepU1, rDep, rU, 3, 0)
	b.AddI(rDepU1, rDepU1, 1) // depth[u]+1
	b.Bge(rJ, rEnd, "outer")
	b.Label("inner")
	b.Ld(rV, rCol, rJ, 3, 0)
	b.Ld(rT, rDep, rV, 3, 0)
	b.Bne(rT, rInf, "notnew")
	b.St(rDepU1, rDep, rV, 3, 0) // depth[v] = depth[u]+1
	b.St(rV, rQ, rTail, 3, 0)    // enqueue
	b.AddI(rTail, rTail, 1)
	b.Mov(rT, rDepU1) // fall through: v is now a tree child
	b.Label("notnew")
	b.Bne(rT, rDepU1, "skip") // tree edge? depth[v] == depth[u]+1
	b.Ld(rT2, rSig, rV, 3, 0)
	b.Ld(rT, rSig, rU, 3, 0)
	b.Add(rT2, rT2, rT)
	b.St(rT2, rSig, rV, 3, 0) // sigma[v] += sigma[u]
	b.Label("skip")
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rEnd, "inner")
	b.Jmp("outer")
	// Backward accumulation over the BFS order.
	b.Label("back")
	b.AddI(rI, rTail, -1)
	b.Label("bloop")
	b.Blt(rI, rZero, "done")
	b.Ld(rU, rQ, rI, 3, 0)
	b.Ld(rJ, rRp, rU, 3, 0)
	b.Ld(rEnd, rRp, rU, 3, 8)
	b.Ld(rDepU1, rDep, rU, 3, 0)
	b.AddI(rDepU1, rDepU1, 1)
	b.Bge(rJ, rEnd, "bnext")
	b.Label("binner")
	b.Ld(rV, rCol, rJ, 3, 0)
	b.Ld(rT, rDep, rV, 3, 0)
	b.Bne(rT, rDepU1, "bskip") // only children (depth[v] == depth[u]+1)
	// delta[u] += sigma[u]/sigma[v] * (1 + delta[v])
	b.Ld(rT, rSig, rU, 3, 0)
	b.ItoF(rF1, rT)
	b.Ld(rT, rSig, rV, 3, 0)
	b.ItoF(rF2, rT)
	b.FDiv(rF1, rF1, rF2) // sigma[u]/sigma[v]
	b.Ld(rF2, rDel, rV, 3, 0)
	b.FAdd(rF2, rF2, rOneF) // 1 + delta[v]
	b.FMul(rF1, rF1, rF2)
	b.Ld(rF3, rDel, rU, 3, 0)
	b.FAdd(rF3, rF3, rF1)
	b.St(rF3, rDel, rU, 3, 0)
	b.Label("bskip")
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rEnd, "binner")
	b.Label("bnext")
	b.AddI(rI, rI, -1)
	b.Jmp("bloop")
	b.Label("done")
	b.Halt()

	fill := func(d *mem.Backing) {
		writeCSR(d)
		depth := make([]uint64, n)
		for v := range depth {
			depth[v] = inf
		}
		d.Adopt(baseDepth, depth)
	}
	validate := func(d *mem.Backing, _ [isa.NumRegs]uint64) error {
		// Replicate the exact algorithm (including FP operation order).
		depth := make([]uint64, n)
		sigma := make([]uint64, n)
		delta := make([]float64, n)
		for i := range depth {
			depth[i] = inf
		}
		order := []uint64{uint64(src)}
		depth[src] = 0
		sigma[src] = 1
		for head := 0; head < len(order); head++ {
			u := order[head]
			du1 := depth[u] + 1
			for _, v := range g.Neighbors(int(u)) {
				if depth[v] == inf {
					depth[v] = du1
					order = append(order, v)
				}
				if depth[v] == du1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			du1 := depth[u] + 1
			for _, v := range g.Neighbors(int(u)) {
				if depth[v] == du1 {
					delta[u] += float64(sigma[u]) / float64(sigma[v]) * (1 + delta[v])
				}
			}
		}
		for v := 0; v < n; v++ {
			if got := f64frombits(d.Load(baseDelta + uint64(v)*8)); got != delta[v] {
				return fmt.Errorf("%s: delta[%d] = %v, want %v", name, v, got, delta[v])
			}
		}
		return checkRange(d, baseSigma, sigma, name+": sigma")
	}
	return &Workload{
		Name: name, Prog: b.MustBuild(), Init: fill, Validate: validate,
		SuggestedBudget: uint64(g.NumEdges()) * 20,
		Nodes:           n,
		Edges:           g.NumEdges(),
	}
}
