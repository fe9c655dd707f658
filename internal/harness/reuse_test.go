// Reuse of identical cells within one campaign: a cell whose identity an
// earlier cell already simulated successfully takes that outcome, and the
// rendered tables cannot tell.

package harness

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// scriptedExperiments runs F7, F9, F10 and F13 under opt with every cell
// simulated by a stub instead of the simulator. The stub's result is a
// hash of the workload and the whole configuration it receives, so a
// cell that took another configuration's outcome renders differently;
// cells of the workload and technique named by failW and failTech fail
// permanently. It returns the rendered tables and, for each configuration
// the stub saw, how many times it ran.
func scriptedExperiments(t *testing.T, opt Options, failW string, failTech Technique) (string, map[string]int) {
	t.Helper()
	var mu sync.Mutex
	calls := map[string]int{}
	prev := inProcessRun
	inProcessRun = func(_ context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
		b, err := json.Marshal(rc)
		if err != nil {
			return Result{}, err
		}
		id := w.Name + " " + string(b)
		mu.Lock()
		calls[id]++
		mu.Unlock()
		if w.Name == failW && rc.Tech == failTech {
			return Result{}, &RunError{Workload: w.Name, Tech: rc.Tech, Phase: "run", Err: errors.New("scripted failure")}
		}
		h := fnv.New64a()
		h.Write([]byte(id))
		sum := h.Sum64()
		return Result{Workload: w.Name, Tech: rc.Tech, Instrs: 1000, Cycles: 1000 + sum%100000,
			MLP: float64(sum%997) / 97, OffChipDemand: 1 + sum%4096, OffChipTotal: 1 + sum%8192,
			TimelinessL1: sum % 13, HeldFrac: float64(sum%89) / 89}, nil
	}
	defer func() { inProcessRun = prev }()
	var sb strings.Builder
	for _, run := range []func(Options) (*Table, error){
		func(o Options) (*Table, error) {
			tab, _, err := ExpF7Performance(o)
			return tab, err
		},
		ExpF9MLP, ExpF10AccuracyCoverage, ExpF13DelayedTermination,
	} {
		tab, err := run(opt)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(tab.String())
	}
	return sb.String(), calls
}

// TestReuseSimulatesEachIdentityOnce: over F7, F9, F10 and F13 sharing one
// journal, every identity that succeeds is simulated once, every cell
// whose identity failed is simulated afresh, every cell is journaled once
// under its own position, and the tables equal those of a campaign that
// simulates every cell. With faults, each cell's derived fault seed is
// part of its identity, so only cells at the same index reuse.
func TestReuseSimulatesEachIdentityOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults mem.FaultConfig
	}{
		{"plain", mem.FaultConfig{}},
		{"faults", mem.FaultConfig{Seed: 3, LatencySpikeProb: 0.01, LatencySpikeCycles: 100}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{Parallel: 2, MaxBudget: 1000, Faults: c.faults,
				Workloads: []string{"camel", "hj8", "kangaroo"}}
			want, every := scriptedExperiments(t, opt, "hj8", TechVR)
			cells := 0
			for _, n := range every {
				cells += n
			}

			path := filepath.Join(t.TempDir(), "campaign.journal")
			j, err := CreateJournal(path, opt.Fingerprint([]string{"f7", "f9", "f10", "f13"}))
			if err != nil {
				t.Fatal(err)
			}
			jopt := opt
			jopt.Journal = j
			got, once := scriptedExperiments(t, jopt, "hj8", TechVR)
			j.Close()
			if got != want {
				t.Errorf("tables with reuse differ from simulating every cell:\n%s", firstDiff(want, got))
			}
			reused := 0
			for id, n := range every {
				switch {
				case strings.HasPrefix(id, "hj8 ") && strings.Contains(id, `"Tech":"vr"`):
					if once[id] != n {
						t.Errorf("a failing identity ran %d times for %d cells; each duplicate of a failure must simulate", once[id], n)
					}
				case once[id] != 1:
					t.Errorf("an identity of %d cells was simulated %d times, want once", n, once[id])
				default:
					reused += n - 1
				}
			}
			if len(once) != len(every) {
				t.Errorf("reuse simulated %d distinct configurations, want %d", len(once), len(every))
			}
			if reused == 0 {
				t.Error("no cell was reused")
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, recs, err := decodeJournal(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != cells {
				t.Errorf("journal holds %d records for %d cells", len(recs), cells)
			}
			seen := map[string]bool{}
			for _, r := range recs {
				k := recordKey(r.Exp, r.Index)
				if seen[k] {
					t.Errorf("cell %s journaled twice", k)
				}
				seen[k] = true
				if r.Key == "" {
					t.Errorf("record %s carries no identity", k)
				}
			}
		})
	}
}

// TestResumeAfterSweepPointsChange: the journal fingerprint does not cover
// the sweep points, so a journal of F12 over vector lengths 8 and 16 can
// be resumed onto F12 over 32 and 64. Every cell keeps its position and
// technique, and only its identity tells the old point from the new one:
// the resumed table must equal a fresh run's, the shared OoO baselines
// replaying and the moved VR cells simulating.
func TestResumeAfterSweepPointsChange(t *testing.T) {
	opt := Options{MaxBudget: 4000, Workloads: []string{"camel", "kangaroo"}}
	old := opt
	old.VectorLengths = []int{8, 16}
	fp := opt.Fingerprint([]string{"f12"})
	path := filepath.Join(t.TempDir(), "f12.journal")
	j, err := CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	old.Journal = j
	stale, err := ExpF12VectorLength(old)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	now := opt
	now.VectorLengths = []int{32, 64}
	fresh, err := ExpF12VectorLength(now)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(fresh.Rows[0][1:], " ") == strings.Join(stale.Rows[0][1:], " ") {
		t.Fatalf("F12 reads the same at 8 and 32 lanes (%v); the test cannot tell a stale replay", fresh.Rows[0])
	}
	rj, err := ResumeJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	replays := 0
	now.Journal = rj
	now.Progress = func(msg string) {
		if strings.Contains(msg, "replaying") {
			replays++
		}
	}
	resumed, err := ExpF12VectorLength(now)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.String() != fresh.String() {
		t.Errorf("resumed table differs from a fresh run's:\n--- fresh:\n%s\n--- resumed:\n%s", fresh, resumed)
	}
	if replays != len(opt.Workloads) {
		t.Errorf("%d cells replayed, want the %d OoO baselines", replays, len(opt.Workloads))
	}
}

// TestCellKey pins what a cell's identity covers: the workload and every
// part of the resolved configuration, faults included; a configuration
// with a NewPredictor constructor has none.
func TestCellKey(t *testing.T) {
	base := DefaultRunConfig(TechVR)
	k := cellKey("camel", base)
	if k == "" || k != cellKey("camel", DefaultRunConfig(TechVR)) {
		t.Fatalf("identity %q is not a stable function of the configuration", k)
	}
	vl, faults, check, budget := base, base, base, base
	vl.VR.VectorLength = 32
	faults.Faults = mem.FaultConfig{Seed: 1, DropPrefetchProb: 0.1}
	check.Check = true
	budget.MaxBudget = 1
	for name, other := range map[string]string{
		"workload": cellKey("hj8", base), "VR": cellKey("camel", vl),
		"Faults": cellKey("camel", faults), "Check": cellKey("camel", check),
		"MaxBudget": cellKey("camel", budget), "Tech": cellKey("camel", DefaultRunConfig(TechOoO)),
	} {
		if other == k {
			t.Errorf("changing %s leaves the identity unchanged", name)
		}
	}
	custom := base
	custom.CPU.NewPredictor = DefaultRunConfig(TechVR).CPU.Predictor.New
	if got := cellKey("camel", custom); got != "" {
		t.Errorf("a NewPredictor configuration has identity %q, want none", got)
	}
}

// TestCellKeyPinned pins two cell identities as the wire encoding gave
// them when they were recorded. Journals written since then key their
// records by these hashes, so a change to a wireCell field, or a new one
// that the encoding does not omit, would make every resumed campaign
// re-simulate instead of replaying.
func TestCellKeyPinned(t *testing.T) {
	for _, c := range []struct {
		workload string
		tech     Technique
		want     string
	}{
		{"camel", TechOoO, "1ef9ea860df1a022e57473b7e2461f6f5a348ce7434b396a75971f5887712ef5"},
		{"cc_ur", TechVR, "2bdb304b8c87e78ccf1345d5b6d0f2e0659b3e7245b6c2d3266e547a346ebc46"},
	} {
		if got := cellKey(c.workload, DefaultRunConfig(c.tech)); got != c.want {
			t.Errorf("cellKey(%s, %s) = %s, want %s", c.workload, c.tech, got, c.want)
		}
	}
}

// TestReuseSkipsCellsWithoutIdentity: cells whose configuration sets
// NewPredictor are never reused, and a journal without a file holds every
// outcome it is given without writing anywhere.
func TestReuseSkipsCellsWithoutIdentity(t *testing.T) {
	j := NewJournal()
	defer j.Close()
	if j.Path() != "" {
		t.Errorf("file-less journal has path %q", j.Path())
	}
	// One cell at a time: two identical cells in flight at once would
	// both simulate, since neither has finished to be reused.
	opt := &Options{Journal: j, Parallel: 1}
	tab := &Table{ID: "NK"}
	s := opt.newSweep(tab)
	runs := 0
	s.runFn = func(_ context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
		runs++
		return okResult(w.Name, rc.Tech), nil
	}
	w := workloads.MicroStream(64)
	custom := RunConfig{Tech: TechOoO}
	custom.CPU.NewPredictor = DefaultRunConfig(TechOoO).CPU.Predictor.New
	s.cell(w, custom)
	s.cell(w, custom)
	s.cell(w, RunConfig{Tech: TechOoO})
	s.cell(w, RunConfig{Tech: TechOoO})
	s.run()
	if runs != 3 {
		t.Errorf("%d simulations, want 3: both NewPredictor cells and one of the two identical ones", runs)
	}
	if got := j.Replayed(); got != 4 {
		t.Errorf("journal holds %d records, want one per cell (4)", got)
	}
	for i, c := range s.cells {
		if _, ok := c.result(); !ok {
			t.Errorf("cell %d has no result: %v", i, c.err)
		}
	}
	if len(tab.Errors) != 0 {
		t.Errorf("errors: %v", tab.Errors)
	}
}

// TestIsolatedReuseNeverDispatches: reuse sits above the run function, so
// under process isolation a reused cell never reaches a worker. F10
// declares exactly F9's cells, so with one journal F10 dispatches nothing,
// and both tables equal their in-process renderings.
func TestIsolatedReuseNeverDispatches(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	opt := Options{MaxBudget: 4000, Workloads: []string{"camel"}, Parallel: 1}
	render := func(opt Options) string {
		t9, err := ExpF9MLP(opt)
		if err != nil {
			t.Fatal(err)
		}
		t10, err := ExpF10AccuracyCoverage(opt)
		if err != nil {
			t.Fatal(err)
		}
		return t9.String() + t10.String()
	}
	want := render(opt)
	pool := newTestPool(t, PoolConfig{Workers: 1})
	popt := opt
	popt.Pool, popt.Journal = pool, NewJournal()
	if got := render(popt); got != want {
		t.Errorf("isolated campaign with reuse diverged:\n%s", firstDiff(want, got))
	}
	pool.mu.Lock()
	dispatched := pool.nextID
	pool.mu.Unlock()
	if dispatched != 2 {
		t.Errorf("%d cells dispatched to workers, want F9's 2 (F10's 2 reuse them)", dispatched)
	}
}
