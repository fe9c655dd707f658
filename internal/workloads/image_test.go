package workloads

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"vrsim/internal/isa"
)

// TestImageDigests pins memory images by their mem.Image digests: the
// hpc-db kernels' at default scale, and small BC, BFS, CC, PR and SSSP
// instances on KR and UR graphs, at GOMAXPROCS 1, 2, 3 and 8, since the
// hpc-db tables and BC's depth array are filled a run of pages per
// goroutine and the graphs are synthesized on every core; and the four
// GAP kernels vrperf's gap-graphs runs at default scale, once, at the
// test's own GOMAXPROCS, since TestGeneratorDigests already pins their
// graphs at all four. The hpc-db validators regenerate their inputs on
// their own, so they check what a kernel computes from its image but not
// the image itself; these digests do. hj2 and hj8 share their seed and
// layout, so their images are equal.
func TestImageDigests(t *testing.T) {
	type pin struct {
		name  string
		build func() *Workload
		want  string
	}
	defaults := map[string]func() *Workload{}
	for _, b := range Builders() {
		defaults[b.Name] = b.Build
	}
	check := func(procs int, c pin) {
		t.Helper()
		w := c.build()
		w.Fresh()
		if got := w.image.Digest(); got != c.want {
			t.Errorf("GOMAXPROCS %d: %s: image digest %s, want %s", procs, c.name, got, c.want)
		}
	}
	for _, c := range []pin{
		{"bfs_kr", defaults["bfs_kr"], "ff3cff71af5c403e53d8e681b2b462a6a2e4548c632b6e61144ce4259d6b2b29"},
		{"pr_kr", defaults["pr_kr"], "e2a6bc4b39317b596304401a4efbb9137bfc8fb7752d7720a5beef3a46b02fd0"},
		{"cc_ur", defaults["cc_ur"], "404b5ad095cf5b3b317d4916b634b7ec4d5ef1257a6823a70bfa78022a91a121"},
		{"sssp_ur", defaults["sssp_ur"], "329990b034a5802bbdb2c9dc55411f100c8e477e70786d50fb4ff638f5c172db"},
	} {
		check(runtime.GOMAXPROCS(0), c)
	}
	everyProcs := []pin{
		{"camel", defaults["camel"], "1bc95b429dfed2be683b92a6e845e81174e928571d7f2574983b70905a73421c"},
		{"kangaroo", defaults["kangaroo"], "7191e98a1ffd5c2c4d2b48b406d205645c79fff51bdfea6c59de93d3fbeef581"},
		{"hj2", defaults["hj2"], "0794d209e3face97cd21254d661fa2058f3c49130955f7e9c68dbee450a6b711"},
		{"hj8", defaults["hj8"], "0794d209e3face97cd21254d661fa2058f3c49130955f7e9c68dbee450a6b711"},
		{"nas-cg", defaults["nas-cg"], "24edb67219f2877ea3ccafb3ea23ff0a89949ccd6fe8435b000a89d1f711e7b6"},
		{"nas-is", defaults["nas-is"], "7ec3e93a2755346c82838816bfbb679542abe4ceb5222d3410454787049df9e2"},
		{"randomaccess", defaults["randomaccess"], "dcaa53af3ca6b578915e659a443d1677aca84b38a0b634b368eba6f8ef0a2bc3"},
		{"BC(10,kr)", func() *Workload { return BC(10, GraphKron, "kr") }, "d047892497e7216777249ac94eebb5167a85910841ce4c3d11e3c84942b8d074"},
		{"BC(10,ur)", func() *Workload { return BC(10, GraphUniform, "ur") }, "433f9d7b44c7efa7fc35aea7b0036d85e2391d4b179c512789844983db676300"},
		{"BFS(10,kr)", func() *Workload { return BFS(10, GraphKron, "kr") }, "119c5307726990b62375bb6eb9ccabb507ae5baf84c4ac783bdad7c55f8febfd"},
		{"BFS(10,ur)", func() *Workload { return BFS(10, GraphUniform, "ur") }, "a1659837cf29f07bdf75d491e564fded15b2e781887301d88dda39df9731f3a2"},
		{"CC(9,kr)", func() *Workload { return CC(9, GraphKron, "kr") }, "fc17040326a89ac2e164965feb9664efa1c81823fcb1ee6776d20535fede1e9d"},
		{"CC(9,ur)", func() *Workload { return CC(9, GraphUniform, "ur") }, "a0841e2f055bf8a78f88d5556091a2b9b52f83e3180a43842f87cbc33e9babac"},
		{"PR(10,kr)", func() *Workload { return PR(10, GraphKron, "kr") }, "c7e00edcca7e9e94ec6f0f86d0b602bd5c78b2e5c8e724f4c07bd1160084d1eb"},
		{"PR(10,ur)", func() *Workload { return PR(10, GraphUniform, "ur") }, "de0dabb836c262def09d81c49be6205551170f7e1f6a18486180c334bac50e77"},
		{"SSSP(9,kr)", func() *Workload { return SSSP(9, GraphKron, "kr") }, "7f5bc9058de373e1d2a4adb6d2c9fc351da8e360dfafd989d7eff06a45bae504"},
		{"SSSP(9,ur)", func() *Workload { return SSSP(9, GraphUniform, "ur") }, "0f0cc3da225bdc211b3f36435e9932f7a5c841a4890f3a2c579d72a47cb2575b"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range everyProcs {
			check(procs, c)
		}
	}
}

// TestSmallImagesAtEveryGOMAXPROCS builds every small-scale instance at
// GOMAXPROCS 1, 2, 3 and 8. Each must validate against its sequential
// reference, and its image must digest the same at every setting. The
// fills split a few pages over up to eight goroutines, some of which get
// none; under -race the test also checks that they write disjoint pages.
func TestSmallImagesAtEveryGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	digests := map[string]string{}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, w := range smallRegistry() {
			runAndValidate(t, w)
			got := w.image.Digest()
			if want, ok := digests[w.Name]; !ok {
				digests[w.Name] = got
			} else if got != want {
				t.Errorf("GOMAXPROCS %d: %s: image digest %s, at GOMAXPROCS 1 %s", procs, w.Name, got, want)
			}
		}
	}
}

// TestPublishOpenRoundTrip publishes the small images TestImageDigests
// pins and the six hpc-db kernels vrperf runs, and opens each file: the
// opened workload has the built one's program, metadata and image digest
// and no Init or Validate, and a run from its image to Halt passes the
// built workload's validator.
func TestPublishOpenRoundTrip(t *testing.T) {
	ws := []*Workload{
		BC(10, GraphKron, "kr"), BC(10, GraphUniform, "ur"),
		BFS(10, GraphKron, "kr"), BFS(10, GraphUniform, "ur"),
		CC(9, GraphKron, "kr"), CC(9, GraphUniform, "ur"),
		PR(10, GraphKron, "kr"), PR(10, GraphUniform, "ur"),
		SSSP(9, GraphKron, "kr"), SSSP(9, GraphUniform, "ur"),
	}
	for _, name := range []string{"camel", "kangaroo", "hj2", "hj8", "nas-is", "randomaccess"} {
		build, err := Builder(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, build())
	}
	dir := t.TempDir()
	for i, w := range ws {
		path := filepath.Join(dir, fmt.Sprint(i))
		if err := Publish(path, w); err != nil {
			t.Fatal(err)
		}
		o, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if o.Name != w.Name || o.SuggestedBudget != w.SuggestedBudget || o.Nodes != w.Nodes ||
			o.Edges != w.Edges || o.SkipInstrs != w.SkipInstrs || o.Init != nil || o.Validate != nil {
			t.Errorf("%s: opened as %+v", w.Name, o)
		}
		if !reflect.DeepEqual(o.Prog, w.Prog) {
			t.Errorf("%s: the opened program differs from the built one", w.Name)
		}
		o.Fresh()
		if got, want := o.image.Digest(), w.image.Digest(); got != want {
			t.Errorf("%s: opened image digests %s, built %s", w.Name, got, want)
		}
		d := o.Fresh()
		it := isa.NewInterp(o.Prog, d)
		if err := it.Run(500_000_000); err != nil || !it.Halted {
			t.Fatalf("%s: run from the opened image: halted %v, %v", w.Name, it.Halted, err)
		}
		if err := w.Validate(d, it.Regs); err != nil {
			t.Errorf("%s: run from the opened image: %v", w.Name, err)
		}
	}
}
