package harness

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// runOnce executes one simulation and returns both the Result struct and
// its canonical JSON rendering, so mismatches surface as a readable diff.
func runOnce(t *testing.T, rc RunConfig) (Result, []byte) {
	t.Helper()
	w, err := workloads.ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, b
}

// TestRunDeterministic is the dynamic counterpart to the simdet static
// pass: the same workload under the same configuration must produce
// byte-identical results on every run. Any divergence means hidden state
// (map iteration order, wall-clock reads, unseeded randomness) leaked
// into the model.
func TestRunDeterministic(t *testing.T) {
	for _, tech := range []Technique{TechOoO, TechPRE, TechVR} {
		t.Run(string(tech), func(t *testing.T) {
			rc := DefaultRunConfig(tech)
			rc.MaxBudget = 60_000
			r1, b1 := runOnce(t, rc)
			r2, b2 := runOnce(t, rc)
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("Result structs differ across identical runs:\n run1: %s\n run2: %s", b1, b2)
			}
			if string(b1) != string(b2) {
				t.Errorf("JSON renderings differ across identical runs:\n run1: %s\n run2: %s", b1, b2)
			}
		})
	}
}

// TestRunDeterministicWithFaults repeats the check with seeded fault
// injection enabled: the injector's PRNG is part of the configuration, so
// two runs from the same seed must deliver the identical fault sequence
// and therefore identical results.
func TestRunDeterministicWithFaults(t *testing.T) {
	rc := DefaultRunConfig(TechVR)
	rc.MaxBudget = 60_000
	rc.Faults = mem.FaultConfig{
		Seed:               42,
		LatencySpikeProb:   0.05,
		LatencySpikeCycles: 300,
		DropPrefetchProb:   0.1,
		MSHRStarveProb:     0.02,
		MSHRStarveCycles:   100,
	}
	r1, b1 := runOnce(t, rc)
	r2, b2 := runOnce(t, rc)
	delivered := r1.Faults.LatencySpikes + r1.Faults.PrefetchDrops + r1.Faults.MSHRStarves
	if delivered == 0 {
		t.Fatal("fault injection delivered no faults; the test is vacuous")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("faulted Result structs differ across identical seeded runs:\n run1: %s\n run2: %s", b1, b2)
	}

	// A different seed must actually steer the injector: otherwise the
	// equality above would pass even with the PRNG ignored.
	rc.Faults.Seed = 43
	r3, _ := runOnce(t, rc)
	if reflect.DeepEqual(r1.Faults, r3.Faults) {
		t.Log("seeds 42 and 43 delivered identical fault sequences (possible, but suspicious)")
	}
}

// TestTableRenderingDeterministic renders a full experiment table twice
// and requires the output to be byte-identical, covering the rendering
// path (row order, formatting) on top of the per-run results.
func TestTableRenderingDeterministic(t *testing.T) {
	opt := Options{MaxBudget: 40_000, Workloads: []string{"camel"}}
	t1, _, err := ExpF7Performance(opt)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := ExpF7Performance(opt)
	if err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Errorf("rendered tables differ across identical runs:\n--- run1:\n%s\n--- run2:\n%s", t1.String(), t2.String())
	}
}

// parallelProbe is the experiment subset the serial/parallel equivalence
// tests sweep: it covers independent cells (F9), baseline-dependent cells
// (F7, A7) and two-level dependency chains over multi-point sweeps (F2).
func parallelProbe(t *testing.T, opt Options) map[string]string {
	t.Helper()
	out := map[string]string{}
	render := func(id string, tab *Table, err error) {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		txt := tab.String()
		b, jerr := json.Marshal(tab)
		if jerr != nil {
			t.Fatalf("%s: marshal: %v", id, jerr)
		}
		out[id] = txt + "\n" + string(b)
	}
	tab, _, err := ExpF7Performance(opt)
	render("f7", tab, err)
	o2 := opt
	o2.ROBSizes = []int{128, 350}
	tab, err = ExpF2ROBSweep(o2)
	render("f2", tab, err)
	tab, err = ExpF9MLP(opt)
	render("f9", tab, err)
	tab, err = ExpA7RunaheadLineage(opt)
	render("a7", tab, err)
	return out
}

// TestParallelDeterminism: rendered tables and their JSON encodings must
// be byte-identical between -parallel 1 and -parallel 8, with and without
// seeded fault injection. Scheduling may only ever change wall-clock
// time, never output bytes.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		faults mem.FaultConfig
	}{
		{"fault-free", mem.FaultConfig{}},
		{"seeded-faults", mem.FaultConfig{
			Seed:               7,
			LatencySpikeProb:   0.05,
			LatencySpikeCycles: 300,
			DropPrefetchProb:   0.1,
			MSHRStarveProb:     0.02,
			MSHRStarveCycles:   100,
			PanicAfter:         30_000,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{MaxBudget: 20_000, Workloads: []string{"camel", "hj2"}, Faults: tc.faults}
			opt.Parallel = 1
			serial := parallelProbe(t, opt)
			opt.Parallel = 8
			parallel := parallelProbe(t, opt)
			for id, want := range serial {
				if got := parallel[id]; got != want {
					t.Errorf("%s: -parallel 8 output differs from -parallel 1:\n--- serial:\n%s\n--- parallel:\n%s", id, want, got)
				}
			}
		})
	}
}

// TestCellScopeIsOrderIndependent: with per-cell fault injectors, a
// cell's fault sequence is a function of its identity alone — so an
// experiment's faulted cells must not change when an unrelated experiment
// runs first.
func TestCellScopeIsOrderIndependent(t *testing.T) {
	opt := Options{
		MaxBudget: 20_000,
		Workloads: []string{"camel"},
		Faults: mem.FaultConfig{
			Seed:             5,
			LatencySpikeProb: 0.1, LatencySpikeCycles: 200,
			DropPrefetchProb: 0.2,
		},
	}
	alone, err := ExpF9MLP(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpF11Timeliness(opt); err != nil { // unrelated campaign traffic
		t.Fatal(err)
	}
	after, err := ExpF9MLP(opt)
	if err != nil {
		t.Fatal(err)
	}
	if alone.String() != after.String() {
		t.Errorf("cell-scoped faults depend on campaign history:\n--- alone:\n%s\n--- after F11:\n%s", alone.String(), after.String())
	}
}

// TestSpeedupZeroGuards: zero-cycle or zero-instruction results on either
// side of a Speedup must yield a finite 0, never NaN or Inf.
func TestSpeedupZeroGuards(t *testing.T) {
	ok := Result{Cycles: 1000, Instrs: 500}
	for _, tc := range []struct {
		name    string
		base, r Result
	}{
		{"zero-instr run", ok, Result{Cycles: 1000}},
		{"zero-cycle run", ok, Result{Instrs: 500}},
		{"zero-instr base", Result{Cycles: 1000}, ok},
		{"zero-cycle base", Result{Instrs: 500}, ok},
		{"all zero", Result{}, Result{}},
	} {
		s := Speedup(tc.base, tc.r)
		if s != 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Errorf("%s: Speedup = %v, want 0", tc.name, s)
		}
	}
	if s := Speedup(ok, Result{Cycles: 500, Instrs: 500}); s != 2 {
		t.Errorf("healthy pair: Speedup = %v, want 2", s)
	}
}

// TestZeroCommitDegradesToError: a run that finishes without error but
// commits nothing must become a table error (rendering as ERR), not a
// NaN-poisoned row.
func TestZeroCommitDegradesToError(t *testing.T) {
	err := checkZeroCommit(Result{Cycles: 100, Instrs: 0}, "camel", TechVR)
	var re *RunError
	if !errors.As(err, &re) || !errors.Is(err, errZeroCommit) {
		t.Fatalf("checkZeroCommit = %v, want *RunError wrapping errZeroCommit", err)
	}
	if re.Workload != "camel" || re.Tech != TechVR || re.Phase != "run" {
		t.Errorf("error cell identity = %s/%s [%s]", re.Workload, re.Tech, re.Phase)
	}
	if err := checkZeroCommit(Result{Cycles: 100, Instrs: 1}, "camel", TechVR); err != nil {
		t.Errorf("committed run flagged: %v", err)
	}
}
