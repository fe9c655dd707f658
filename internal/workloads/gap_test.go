package workloads

import (
	"slices"
	"testing"
)

// bellmanFord relaxes to convergence and returns the distance array: the
// reference shortestPaths must reproduce.
func bellmanFord(n int, srcs, dsts, wts []uint64, src int, inf uint64) []uint64 {
	dist := make([]uint64, n)
	for v := range dist {
		dist[v] = inf
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for i := range srcs {
			du := dist[srcs[i]]
			if du >= inf {
				continue
			}
			if cand := du + wts[i]; cand < dist[dsts[i]] {
				dist[dsts[i]] = cand
				changed = true
			}
		}
	}
	return dist
}

// TestShortestPathsMatchBellmanFord checks SSSP's initial distances
// against full Bellman-Ford relaxation over the shuffled edge list, on the
// graphs SSSP builds at scales 8 to 14. Kronecker graphs leave many
// vertices unreachable, so inf entries are compared too.
func TestShortestPathsMatchBellmanFord(t *testing.T) {
	const inf = uint64(1) << 60
	for _, kind := range []GraphKind{GraphKron, GraphUniform} {
		unreachable := 0
		for scale := 8; scale <= 14; scale++ {
			g := buildGraph(kind, scale, edgeListFactor, true, 55)
			src := pickSource(g)
			srcs, dsts, wts := edgeList(g)
			shuffleEdges(88, srcs, dsts, wts)
			want := bellmanFord(g.NumNodes(), srcs, dsts, wts, src, inf)
			got := shortestPaths(g, src, inf)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("kind %d scale %d: dist[%d] = %d, want %d", kind, scale, v, got[v], want[v])
				}
				if want[v] == inf {
					unreachable++
				}
			}
		}
		if kind == GraphKron && unreachable == 0 {
			t.Error("no Kronecker vertex was unreachable: inf entries went unchecked")
		}
	}
}

// TestMinLabelsMatchPropagation checks CC's initial labels against min-
// label propagation run to convergence over the shuffled edge list, as
// CC's validator runs it, on the graphs CC builds at scales 8 to 12.
func TestMinLabelsMatchPropagation(t *testing.T) {
	for _, kind := range []GraphKind{GraphKron, GraphUniform} {
		for scale := 8; scale <= 12; scale++ {
			g := buildGraph(kind, scale, edgeListFactor, false, 22)
			srcs, dsts, _ := edgeList(g)
			shuffleEdges(77, srcs, dsts)
			want := make([]uint64, g.NumNodes())
			for v := range want {
				want[v] = uint64(v)
			}
			for changed := true; changed; {
				changed = false
				for i := range srcs {
					cu, cv := want[srcs[i]], want[dsts[i]]
					if cu < cv {
						want[dsts[i]] = cu
						changed = true
					} else if cv < cu {
						want[srcs[i]] = cv
						changed = true
					}
				}
			}
			if got := minLabels(g); !slices.Equal(got, want) {
				t.Fatalf("kind %d scale %d: minLabels differs from propagation", kind, scale)
			}
		}
	}
}
