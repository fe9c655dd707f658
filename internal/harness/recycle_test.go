package harness

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// drain empties the list, so the next cells build their hierarchies.
func (l *hierarchyList) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = nil
}

// len returns how many hierarchies the list holds.
func (l *hierarchyList) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// recycleVariants are TestRecycledCellsMatchFresh's configurations of one
// workload: every checked technique, VR under seeded latency spikes,
// dropped prefetches and MSHR starvation, and OoO without the stride
// prefetcher (the one cell that attaches no prefetcher at all). The two
// pairs that share a technique sit next to each other in the list, or at
// its two ends.
func recycleVariants(workload string) []RunConfig {
	faults := mem.FaultConfig{
		Seed:             7,
		LatencySpikeProb: 0.05, LatencySpikeCycles: 300,
		DropPrefetchProb: 0.1,
		MSHRStarveProb:   0.05, MSHRStarveCycles: 40,
	}
	var rcs []RunConfig
	for _, tech := range []Technique{TechOoO, TechPRE, TechIMP, TechVR, TechVR, TechOracle, TechRA, TechOoO} {
		rc := DefaultRunConfig(tech)
		rc.MaxBudget = timingGoldenBudget
		rcs = append(rcs, rc)
	}
	rcs[4].Faults = faults.ForCell(workload, string(TechVR), 0)
	rcs[7].DisableStridePrefetcher = true
	return rcs
}

// canonicalResult renders a Result as canonical JSON.
func canonicalResult(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRecycledCellsMatchFresh runs every small workload under every
// checked technique, faulted VR and OoO without the stride prefetcher,
// first on new hierarchies and pages with nothing released, then
// serially through RunSupervised, which recycles each cell's hierarchy
// and pages into the next. Each recycled cell follows one of another
// workload and another technique, so it inherits what that cell left
// behind: lines, MSHR entries, the DRAM schedule, an attached prefetcher,
// fault injector or perfect L1, and pages its workload's earlier cells
// dirtied. Every result must match its fresh run byte for byte.
func TestRecycledCellsMatchFresh(t *testing.T) {
	hierarchies.drain()
	fresh := smallWorkloads()
	want := make([][]string, len(fresh))
	for wi, w := range fresh {
		for _, rc := range recycleVariants(w.Name) {
			in, err := newInstance(w, rc)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, rc.Tech, err)
			}
			r, err := in.execute()
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, rc.Tech, err)
			}
			want[wi] = append(want[wi], canonicalResult(t, r))
		}
	}
	if n := hierarchies.len(); n != 0 {
		t.Fatalf("the fresh runs released %d hierarchies, want none", n)
	}

	// Diagonal order: stepping the variant by 3 per workload never puts
	// two cells of one technique next to each other (the check below
	// holds the order to that).
	ws := smallWorkloads()
	nv := len(want[0])
	prevW, prevTech := "", Technique("")
	for d := 0; d < nv; d++ {
		for wi, w := range ws {
			vi := (3*wi + d) % nv
			rc := recycleVariants(w.Name)[vi]
			if w.Name == prevW || rc.Tech == prevTech {
				t.Fatalf("cell %s/%s follows %s/%s", w.Name, rc.Tech, prevW, prevTech)
			}
			prevW, prevTech = w.Name, rc.Tech
			r, err := RunSupervised(w, rc)
			if err != nil {
				t.Fatalf("%s/%s (variant %d): %v", w.Name, rc.Tech, vi, err)
			}
			if got := canonicalResult(t, r); got != want[wi][vi] {
				t.Errorf("%s/%s (variant %d): the recycled cell differs from the fresh one\nfresh:    %s\nrecycled: %s",
					w.Name, rc.Tech, vi, want[wi][vi], got)
			}
		}
	}
}

// TestRecycledCellsConcurrent runs cells of two workloads on several
// goroutines at once, so hierarchies and pages pass between cells that
// overlap in time and several backings of one image take and release
// pages together. Every result must match the cell's fresh run.
func TestRecycledCellsConcurrent(t *testing.T) {
	var ws []*workloads.Workload
	for _, w := range smallWorkloads() {
		if w.Name == "camel" || w.Name == "nas-is" {
			ws = append(ws, w)
		}
	}
	techs := []Technique{TechOoO, TechVR, TechPRE}
	config := func(tech Technique) RunConfig {
		rc := DefaultRunConfig(tech)
		rc.MaxBudget = timingGoldenBudget
		return rc
	}
	want := map[string]string{}
	for _, w := range ws {
		for _, tech := range techs {
			in, err := newInstance(w, config(tech))
			if err != nil {
				t.Fatal(err)
			}
			r, err := in.execute()
			if err != nil {
				t.Fatal(err)
			}
			want[w.Name+"/"+string(tech)] = canonicalResult(t, r)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				w, tech := ws[(g+i)%len(ws)], techs[(g+2*i)%len(techs)]
				r, err := Run(w, config(tech))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := json.Marshal(r)
				if err != nil {
					t.Error(err)
					return
				}
				if key := w.Name + "/" + string(tech); string(b) != want[key] {
					t.Errorf("%s on goroutine %d, run %d: the recycled cell differs from the fresh one", key, g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRecycledCellAllocations runs each store-heavy or long-running
// default-scale kernel twice per technique through RunSupervised. The
// second run takes the first one's hierarchy and dirtied pages, so it
// allocates only the core, the engine and the backing's page tables:
// well under the 2.3 MB of cache columns and the pages it dirties.
func TestRecycledCellAllocations(t *testing.T) {
	const budget, limit = 30_000, 1 << 20
	for _, name := range []string{"camel", "kangaroo", "hj8", "nas-is", "randomaccess", "nas-cg"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range []Technique{TechOoO, TechVR, TechPRE} {
			rc := DefaultRunConfig(tech)
			rc.MaxBudget = budget
			if _, err := RunSupervised(w, rc); err != nil {
				t.Fatalf("%s/%s: %v", name, tech, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := RunSupervised(w, rc)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tech, err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s/%s: the second run allocated %d KiB", name, tech, got>>10)
			if got >= limit {
				t.Errorf("%s/%s: the second run allocated %d KiB, want under %d KiB", name, tech, got>>10, limit>>10)
			}
		}
	}
}

// TestHierarchyListBounded runs cells over more distinct memory
// configurations than cells can run at once: the list never holds more
// than that bound, a cell takes the hierarchy released with its
// configuration, and a configuration the list no longer holds gets a new
// one.
func TestHierarchyListBounded(t *testing.T) {
	hierarchies.drain()
	bound := runtime.GOMAXPROCS(0)
	var w *workloads.Workload
	for _, sw := range smallWorkloads() {
		if sw.Name == "hj2" {
			w = sw
		}
	}
	cfg := func(i int) RunConfig {
		rc := DefaultRunConfig(TechOoO)
		rc.MaxBudget = 2_000
		rc.Mem.MSHRs = 8 + i
		return rc
	}
	var last *mem.Hierarchy
	for i := 0; i < bound+3; i++ {
		in, err := newInstance(w, cfg(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.execute(); err != nil {
			t.Fatal(err)
		}
		in.recycle()
		last = in.hier
		if n := hierarchies.len(); n > bound {
			t.Fatalf("after %d configurations the list holds %d hierarchies, want at most %d", i+1, n, bound)
		}
	}
	if in, err := newInstance(w, cfg(bound+2)); err != nil || in.hier != last {
		t.Errorf("a cell did not take the hierarchy released with its configuration (err %v)", err)
	}
	held := hierarchies.len()
	if _, err := newInstance(w, cfg(0)); err != nil || hierarchies.len() != held {
		t.Errorf("a configuration dropped from the list took a listed hierarchy (err %v)", err)
	}
}
