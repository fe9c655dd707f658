package workloads

import (
	"runtime"
	"testing"
)

// TestImageDigests pins the memory images the hpc-db kernels build at
// default scale, and small BC instances' (whose depth array is filled
// like the hpc-db tables), by their mem.Image digests. The validators
// regenerate their inputs on their own, so they check what a kernel
// computes from its image but not the image itself; these digests do. The
// images must come out the same at every GOMAXPROCS. hj2 and hj8 share
// their seed and layout, so their images are equal.
func TestImageDigests(t *testing.T) {
	defaults := map[string]func() *Workload{}
	for _, b := range Builders() {
		defaults[b.Name] = b.Build
	}
	cases := []struct {
		name  string
		build func() *Workload
		want  string
	}{
		{"camel", defaults["camel"], "1bc95b429dfed2be683b92a6e845e81174e928571d7f2574983b70905a73421c"},
		{"kangaroo", defaults["kangaroo"], "7191e98a1ffd5c2c4d2b48b406d205645c79fff51bdfea6c59de93d3fbeef581"},
		{"hj2", defaults["hj2"], "0794d209e3face97cd21254d661fa2058f3c49130955f7e9c68dbee450a6b711"},
		{"hj8", defaults["hj8"], "0794d209e3face97cd21254d661fa2058f3c49130955f7e9c68dbee450a6b711"},
		{"nas-cg", defaults["nas-cg"], "24edb67219f2877ea3ccafb3ea23ff0a89949ccd6fe8435b000a89d1f711e7b6"},
		{"nas-is", defaults["nas-is"], "7ec3e93a2755346c82838816bfbb679542abe4ceb5222d3410454787049df9e2"},
		{"randomaccess", defaults["randomaccess"], "dcaa53af3ca6b578915e659a443d1677aca84b38a0b634b368eba6f8ef0a2bc3"},
		{"BC(10,kr)", func() *Workload { return BC(10, GraphKron, "kr") }, "d047892497e7216777249ac94eebb5167a85910841ce4c3d11e3c84942b8d074"},
		{"BC(10,ur)", func() *Workload { return BC(10, GraphUniform, "ur") }, "433f9d7b44c7efa7fc35aea7b0036d85e2391d4b179c512789844983db676300"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			w := c.build()
			w.Fresh()
			if got := w.image.Digest(); got != c.want {
				t.Errorf("GOMAXPROCS %d: %s: image digest %s, want %s", procs, c.name, got, c.want)
			}
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
