package workloads

import (
	"strings"
	"testing"

	"vrsim/internal/isa"
)

// runAndValidate executes a workload functionally and checks its
// validator. The image must digest the same after the run and the
// validator as before them: the GAP validators read the arrays the image
// adopted, so neither a run nor a validator may write them.
func runAndValidate(t *testing.T, w *Workload) *isa.Interp {
	t.Helper()
	d := w.Fresh()
	before := w.image.Digest()
	it := isa.NewInterp(w.Prog, d)
	if err := it.Run(500_000_000); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !it.Halted {
		t.Fatalf("%s: did not halt", w.Name)
	}
	if err := w.Validate(d, it.Regs); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if after := w.image.Digest(); after != before {
		t.Fatalf("%s: image digest %s after the run and the validator, %s before", w.Name, after, before)
	}
	return it
}

// Small-scale instances keep the functional validation fast while touching
// every code path.
func smallRegistry() []*Workload {
	var ws []*Workload
	for _, gk := range []struct {
		tag  string
		kind GraphKind
	}{{"kr", GraphKron}, {"ur", GraphUniform}} {
		ws = append(ws,
			BC(10, gk.kind, gk.tag),
			BFS(10, gk.kind, gk.tag),
			CC(9, gk.kind, gk.tag),
			PR(10, gk.kind, gk.tag),
			SSSP(9, gk.kind, gk.tag),
		)
	}
	ws = append(ws,
		Camel(14, 4000),
		Graph500(10),
		HashJoin(2, 14, 4000),
		HashJoin(8, 14, 4000),
		Kangaroo(14, 4000),
		NASCG(1<<10, 8),
		NASIS(14, 4000),
		RandomAccess(14, 4000),
	)
	return ws
}

func TestAllWorkloadsValidate(t *testing.T) {
	for _, w := range smallRegistry() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			it := runAndValidate(t, w)
			if it.Loads == 0 {
				t.Error("kernel executed no loads")
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("registry has %d workloads, want 18 (5 GAP x 2 graphs + 8 hpc-db)", len(names))
	}
	want := []string{
		"bc_kr", "bfs_kr", "cc_kr", "pr_kr", "sssp_kr",
		"bc_ur", "bfs_ur", "cc_ur", "pr_ur", "sssp_ur",
		"camel", "graph500", "hj2", "hj8", "kangaroo",
		"nas-cg", "nas-is", "randomaccess",
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("registry missing %q", n)
		}
	}
	// Small-scale instances must be complete workloads.
	for _, w := range smallRegistry() {
		if w.Prog == nil || w.Init == nil || w.Validate == nil {
			t.Errorf("%s: incomplete workload", w.Name)
		}
		if w.SuggestedBudget == 0 {
			t.Errorf("%s: no suggested budget", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("camel")
	if err != nil || w.Name != "camel" {
		t.Fatalf("ByName(camel) = %v, %v", w, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	// Two fresh runs of the same workload must agree bit-for-bit.
	mk := func() (uint64, uint64) {
		w := Camel(12, 1000)
		d := w.Fresh()
		it := isa.NewInterp(w.Prog, d)
		if err := it.Run(0); err != nil {
			t.Fatal(err)
		}
		return it.Executed, it.Regs[9]
	}
	e1, r1 := mk()
	e2, r2 := mk()
	if e1 != e2 || r1 != r2 {
		t.Fatal("nondeterministic workload")
	}
}

func TestIndirectionDepths(t *testing.T) {
	// hj8 must execute strictly more loads per iteration than hj2.
	iters := 2000
	l2 := runAndValidate(t, HashJoin(2, 13, iters)).Loads
	l8 := runAndValidate(t, HashJoin(8, 13, iters)).Loads
	if l8 <= l2 {
		t.Errorf("hj8 loads (%d) should exceed hj2 (%d)", l8, l2)
	}
	perIter := float64(l8-l2) / float64(iters)
	if perIter < 5.5 || perIter > 6.5 {
		t.Errorf("hj8-hj2 loads per iteration = %f, want ~6", perIter)
	}
}

func TestGraphKindsDiffer(t *testing.T) {
	// KR and UR BFS must explore different structures: the work differs.
	kr := runAndValidate(t, BFS(10, GraphKron, "kr"))
	ur := runAndValidate(t, BFS(10, GraphUniform, "ur"))
	if kr.Executed == ur.Executed {
		t.Error("KR and UR BFS executed identical instruction counts")
	}
}

func TestNamesAreWellFormed(t *testing.T) {
	for _, n := range Names() {
		if strings.ContainsAny(n, " \t/") {
			t.Errorf("bad workload name %q", n)
		}
	}
}

// TestGraphSizes checks the input sizes the graph kernels report, which
// T2 prints: the CSR kernels run on csrEdgeFactor edges per vertex, the
// edge-list kernels (cc, sssp) on edgeListFactor, and the hpc-db kernels
// on no graph.
func TestGraphSizes(t *testing.T) {
	for _, c := range []struct {
		w            *Workload
		nodes, edges int
	}{
		{BFS(10, GraphKron, "kr"), 1 << 10, csrEdgeFactor << 10},
		{Graph500(10), 1 << 10, csrEdgeFactor << 10},
		{PR(10, GraphUniform, "ur"), 1 << 10, csrEdgeFactor << 10},
		{BC(10, GraphKron, "kr"), 1 << 10, csrEdgeFactor << 10},
		{CC(9, GraphKron, "kr"), 1 << 9, edgeListFactor << 9},
		{SSSP(9, GraphUniform, "ur"), 1 << 9, edgeListFactor << 9},
		{Camel(12, 1000), 0, 0},
	} {
		if c.w.Nodes != c.nodes || c.w.Edges != c.edges {
			t.Errorf("%s: %d nodes and %d edges, want %d and %d", c.w.Name, c.w.Nodes, c.w.Edges, c.nodes, c.edges)
		}
	}
}
