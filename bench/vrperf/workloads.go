package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"vrsim/internal/cpu"
	"vrsim/internal/harness"
	"vrsim/internal/isa"
	"vrsim/internal/workloads"
)

// A workload is one set of inputs the benchmark runs. All four are closed
// loops: a cell starts only when a previous one has returned, with one
// cell in flight (two on campaign-isolated, one per host core). The
// modelled caches start empty in every cell, since no kernel sets
// SkipInstrs.
type workload struct {
	name string
	// kernels are the simulator workloads it runs, at default scale.
	kernels []string
	// quick is the smallest of them, the only one -quick runs.
	quick string
	// budget is the per-cell instruction cap (MaxBudget).
	budget uint64
	// cells declares the simulation matrix; nil for the campaign workload.
	cells func(kernels []string, budget uint64) []cell
	// sim_speedup_hmean is the harmonic mean over kernels of the
	// simulated speedup of the target cell over the base cell.
	base, target string
}

var hpcdbKernels = []string{"camel", "kangaroo", "hj2", "hj8", "nas-is", "randomaccess"}

// workloadDefs is the benchmark's workload table; README.md gives the
// reason for each.
var workloadDefs = []*workload{
	{
		// The paper's main results matrix: the only workload besides
		// gap-graphs where the runahead engines and IMP run.
		name: "hpcdb-techniques", kernels: hpcdbKernels, quick: "nas-is", budget: 30_000,
		cells: techniqueCells(harness.AllTechniques()...), base: "ooo", target: "vr",
	},
	{
		// Graph synthesis and image construction dominate set-up here, and
		// data-dependent branches give the predictor its largest share.
		name: "gap-graphs", kernels: []string{"bfs_kr", "pr_kr", "cc_ur", "sssp_ur"}, quick: "cc_ur", budget: 50_000,
		cells: techniqueCells(harness.TechOoO, harness.TechVR), base: "ooo", target: "vr",
	},
	{
		// No engine and no IMP: the bypass workload, where a change to the
		// runahead engines or the prefetchers must not move anything.
		name: "ooo-rob-sweep", kernels: []string{"camel", "hj8", "kangaroo", "nas-cg"}, quick: "camel", budget: 30_000,
		cells: robCells(128, 224, 350, 512), base: "rob128", target: "rob512",
	},
	{
		// The supervised, checked user path at a budget where harness
		// costs (workers, journal fsyncs, the oracle) dominate.
		name: "campaign-isolated", kernels: hpcdbKernels, quick: "nas-is", budget: 2_000,
		base: "ooo", target: "vr",
	},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, wl := range workloadDefs {
		names[i] = wl.name
	}
	return names
}

func lookupWorkload(name string) (*workload, bool) {
	for _, wl := range workloadDefs {
		if wl.name == name {
			return wl, true
		}
	}
	return nil, false
}

// quickBudget is the per-cell budget of a -quick run.
const quickBudget = 2_000

// sizes returns the kernels and budget of a full or a -quick run.
func (wl *workload) sizes(quick bool) ([]string, uint64) {
	if quick {
		return []string{wl.quick}, quickBudget
	}
	return wl.kernels, wl.budget
}

func (wl *workload) run(cfg config, log io.Writer) (*report, error) {
	if wl.cells == nil {
		return runCampaignWorkload(cfg, wl, log)
	}
	return runCellWorkload(cfg, wl)
}

// cell is one simulation: a kernel under a configuration.
type cell struct {
	kernel string
	label  string
	rc     harness.RunConfig
}

func techniqueCells(techs ...harness.Technique) func([]string, uint64) []cell {
	return func(kernels []string, budget uint64) []cell {
		var cs []cell
		for _, k := range kernels {
			for _, t := range techs {
				rc := harness.DefaultRunConfig(t)
				rc.MaxBudget = budget
				cs = append(cs, cell{kernel: k, label: string(t), rc: rc})
			}
		}
		return cs
	}
}

func robCells(robs ...int) func([]string, uint64) []cell {
	return func(kernels []string, budget uint64) []cell {
		var cs []cell
		for _, k := range kernels {
			for _, rob := range robs {
				rc := harness.DefaultRunConfig(harness.TechOoO)
				rc.CPU = rc.CPU.WithROB(rob)
				rc.MaxBudget = budget
				cs = append(cs, cell{kernel: k, label: fmt.Sprintf("rob%d", rob), rc: rc})
			}
		}
		return cs
	}
}

// setupRun is one cold set-up of a workload's kernels: each built from
// its registry entry, bypassing ByName's memoization, and given its first
// memory image.
type setupRun struct {
	build, image time.Duration
	imageBytes   uint64
	ws           map[string]*workloads.Workload
}

func setUp(kernels []string) (setupRun, error) {
	entries := map[string]workloads.BuilderEntry{}
	for _, b := range workloads.Builders() {
		entries[b.Name] = b
	}
	s := setupRun{ws: map[string]*workloads.Workload{}}
	for _, k := range kernels {
		b, ok := entries[k]
		if !ok {
			return s, fmt.Errorf("unknown kernel %q", k)
		}
		t0 := time.Now()
		w := b.Build()
		t1 := time.Now()
		d := w.Fresh()
		s.build += t1.Sub(t0)
		s.image += time.Since(t1)
		s.imageBytes += d.Footprint()
		s.ws[k] = w
	}
	return s, nil
}

// setup is the measured set-up: the repetitions' median spans, and the
// last repetition's workloads, which the measured cells then use.
type setup struct {
	total, build, image float64 // seconds
	imageBytes          uint64
	ws                  map[string]*workloads.Workload
}

// measureSetup repeats the cold set-up at least three times and until
// three seconds have been spent, at most nine times (once under -quick),
// and reports the median repetition: a single set-up of the hpc-db
// kernels takes about 0.35 s and ranged from 0.25 s to 0.48 s within one
// run. The graph kernels' set-up takes about 10 s. Each repetition's
// workloads are dropped, and their memory returned to the operating
// system, before the next, so peak memory holds one set.
func measureSetup(kernels []string, quick bool) (setup, error) {
	var total, build, image []float64
	var spent time.Duration
	var last setupRun
	for n := 1; ; n++ {
		if n > 1 {
			last = setupRun{}
			debug.FreeOSMemory()
		}
		s, err := setUp(kernels)
		if err != nil {
			return setup{}, err
		}
		last = s
		total = append(total, (s.build + s.image).Seconds())
		build = append(build, s.build.Seconds())
		image = append(image, s.image.Seconds())
		spent += s.build + s.image
		if quick || n >= 9 || (n >= 3 && spent >= 3*time.Second) {
			break
		}
	}
	return setup{total: median(total), build: median(build), image: median(image), imageBytes: last.imageBytes, ws: last.ws}, nil
}

// pass is one run of every cell of the matrix, in a seeded order.
type pass struct {
	dur     time.Duration
	spans   []time.Duration // per cell, in declaration order
	results []harness.Result
	errs    []error
	// slow is the host's slowdown over the pass's probes, 1 without.
	slow float64
}

// runPass runs the cells in the given order, taking a host probe before
// each when given one.
func runPass(ws map[string]*workloads.Workload, cells []cell, order []int, probe *hostProbe) pass {
	p := pass{
		spans:   make([]time.Duration, len(cells)),
		results: make([]harness.Result, len(cells)),
		errs:    make([]error, len(cells)),
	}
	from := probe.taken()
	start := time.Now()
	for _, i := range order {
		c := cells[i]
		probe.sample()
		t0 := time.Now()
		p.results[i], p.errs[i] = harness.RunSupervised(ws[c.kernel], c.rc)
		p.spans[i] = time.Since(t0)
	}
	p.dur = time.Since(start)
	p.slow = probe.slowdown(from)
	return p
}

// repeat calls once, which returns how long it took, while the next call
// is expected to end within limit: at least once, and exactly once under
// -quick. Each call starts from a collected heap: a repetition allocates
// far less than the live workload images, so no collection falls inside
// one, and the peak memory it adds is the same in every run instead of
// depending on where the collector's cycle happened to land.
func repeat(limit time.Duration, quick bool, once func() (time.Duration, error)) error {
	begin := time.Now()
	for {
		runtime.GC()
		d, err := once()
		if err != nil {
			return err
		}
		if quick || time.Since(begin)+d > limit {
			return nil
		}
	}
}

// runPasses repeats passes for limit, each in a fresh seeded order.
func runPasses(ws map[string]*workloads.Workload, cells []cell, rng *rand.Rand, limit time.Duration, quick bool, probe *hostProbe) []pass {
	var passes []pass
	_ = repeat(limit, quick, func() (time.Duration, error) {
		p := runPass(ws, cells, rng.Perm(len(cells)), probe)
		passes = append(passes, p)
		return p.dur, nil
	})
	return passes
}

// medianSpans returns each unit's median span over the repetitions
// (reps[r] holds repetition r's span per unit: a cell, or a campaign
// driver) and the sum of those medians. Other tenants of the host slow
// single spans by up to 2x in bursts shorter than a second; the median
// leaves those bursts out.
func medianSpans(reps [][]time.Duration) ([]time.Duration, time.Duration) {
	meds := make([]time.Duration, len(reps[0]))
	var sum time.Duration
	xs := make([]float64, len(reps))
	for i := range meds {
		for r, rep := range reps {
			xs[r] = float64(rep[i])
		}
		meds[i] = time.Duration(median(xs))
		sum += meds[i]
	}
	return meds, sum
}

// passSpans returns the passes' per-cell spans and slowdowns.
func passSpans(passes []pass) ([][]time.Duration, []float64) {
	spans := make([][]time.Duration, len(passes))
	slows := make([]float64, len(passes))
	for i, p := range passes {
		spans[i], slows[i] = p.spans, p.slow
	}
	return spans, slows
}

// digest hashes the canonical JSON of a value.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runCellWorkload runs a cell-matrix workload. Untraced, it repeats
// whole passes for the measuring time, with a host probe before every
// cell, and reports the median over passes of each pass's time divided
// by its slowdown, and the median set-up divided by the run's. Traced, it
// profiles the set-up and passes for half the measuring time, runs
// unprofiled passes with probes for the other half, which give the
// tracing overhead, the span metrics and the host's slowdown, and
// finishes with the replay probes. The traced run's times are as
// measured, not divided by the slowdown.
func runCellWorkload(cfg config, wl *workload) (*report, error) {
	kernels, budget := wl.sizes(cfg.quick)
	cells := wl.cells(kernels, budget)
	rng := rand.New(rand.NewSource(cfg.seed))
	rep := &report{correct: true, metrics: metrics{}}

	var prof *profiler
	if cfg.trace {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
		defer prof.finish()
	}
	su, err := measureSetup(kernels, cfg.quick)
	if err != nil {
		return nil, err
	}
	limit := time.Duration(cfg.seconds * float64(time.Second))
	var tracedPasses []pass
	if cfg.trace {
		limit /= 2
		tracedPasses = runPasses(su.ws, cells, rng, limit, cfg.quick, nil)
		prof.finish()
	}
	probe := newHostProbe()
	passes := runPasses(su.ws, cells, rng, limit, cfg.quick, probe)

	if err := checkPasses(rep, su.ws, cells, append(passes, tracedPasses...)); err != nil {
		return nil, err
	}
	res := passes[0].results
	labelled := make([]labelledResult, len(cells))
	for i, c := range cells {
		labelled[i] = labelledResult{kernel: c.kernel, label: c.label, r: res[i]}
	}
	headline := speedupHmean(labelled, wl.base, wl.target)
	reps, slows := passSpans(passes)
	slow := probe.slowdown(0)

	if !cfg.trace {
		endToEnd(rep.metrics, quietMedian(reps, slows), len(cells), res, su.total/slow, headline)
		return rep, nil
	}
	spans, wall := medianSpans(reps)
	tracedReps, _ := passSpans(tracedPasses)
	_, tracedWall := medianSpans(tracedReps)
	rep.metrics.set("trace.host_slowdown", slow, "ratio")
	folded, err := prof.folded()
	if err != nil {
		return nil, err
	}
	setProfile(rep.metrics, folded, prof.alloc)
	setModel(rep.metrics, res)
	setSpans(rep.metrics, cells, spans, res)
	harnessLayer{run: wall}.set(rep.metrics)
	setSetup(rep.metrics, su)
	rep.metrics.set("trace.overhead_frac", tracedWall.Seconds()/wall.Seconds()-1, "ratio")

	cpis := map[string]float64{}
	for i, c := range cells {
		if c.rc.Tech == harness.TechOoO && c.rc.CPU.ROBSize == cpu.DefaultConfig().ROBSize && res[i].Instrs > 0 {
			cpis[c.kernel] = float64(res[i].Cycles) / float64(res[i].Instrs)
		}
	}
	if err := setReplay(rep.metrics, su.ws, kernels, cpis, cfg.quick); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkPasses counts the attempted and failed cells and checks the
// results: every pass must produce byte-identical results, and every
// cell must commit exactly the loads and stores the functional
// interpreter executes over the same instruction count.
func checkPasses(rep *report, ws map[string]*workloads.Workload, cells []cell, passes []pass) error {
	var first string
	for pi, p := range passes {
		rep.attempted += len(cells)
		for i, err := range p.errs {
			if err != nil {
				rep.failed++
				rep.fail("pass %d: %s/%s: %v", pi, cells[i].kernel, cells[i].label, err)
			}
		}
		d, err := digest(p.results)
		if err != nil {
			return err
		}
		if pi == 0 {
			first, rep.digest = d, d
		} else if d != first {
			rep.fail("pass %d results differ from pass 0 (digest %s, want %s)", pi, d, first)
		}
	}
	type key struct {
		kernel string
		instrs uint64
	}
	interp := map[key][2]uint64{}
	for i, c := range cells {
		r := passes[0].results[i]
		if passes[0].errs[i] != nil {
			continue
		}
		k := key{c.kernel, r.Instrs}
		want, ok := interp[k]
		if !ok {
			w := ws[c.kernel]
			it := isa.NewInterp(w.Prog, w.Fresh())
			for it.Executed < r.Instrs && it.Step() {
			}
			want = [2]uint64{it.Loads, it.Stores}
			interp[k] = want
		}
		if got := [2]uint64{r.CommittedLoads, r.CommittedStores}; got != want {
			rep.fail("%s/%s committed %d loads and %d stores in %d instructions; the interpreter executes %d and %d",
				c.kernel, c.label, got[0], got[1], r.Instrs, want[0], want[1])
		}
	}
	return nil
}

// labelledResult is a cell result with the kernel and label it ran under.
type labelledResult struct {
	kernel, label string
	r             harness.Result
}

// speedupHmean is the harmonic mean over kernels of the simulated
// speedup of each kernel's target cell over its base cell.
func speedupHmean(rs []labelledResult, base, target string) float64 {
	type key struct{ kernel, label string }
	by := map[key]harness.Result{}
	var kernels []string
	for _, lr := range rs {
		if lr.label == base {
			kernels = append(kernels, lr.kernel)
		}
		by[key{lr.kernel, lr.label}] = lr.r
	}
	var ss []float64
	for _, k := range kernels {
		if t, ok := by[key{k, target}]; ok {
			ss = append(ss, harness.Speedup(by[key{k, base}], t))
		}
	}
	return harness.HarmonicMean(ss)
}

// endToEnd sets the end-to-end metrics of a workload whose cells cells,
// producing res, take s seconds to run once on a quiet host.
func endToEnd(m metrics, s float64, cells int, res []harness.Result, setupS, headline float64) {
	var instrs, cycles float64
	for _, r := range res {
		instrs += float64(r.Instrs)
		cycles += float64(r.Cycles)
	}
	m.set("wall_s", s, "s")
	m.set("setup_s", setupS, "s")
	m.set("cells_per_s", float64(cells)/s, "1/s")
	m.set("sim_mips", instrs/s/1e6, "Minstr/s")
	m.set("sim_mcps", cycles/s/1e6, "Mcycle/s")
	m.set("peak_rss_mb", peakRSSMiB(), "MiB")
	m.set("sim_speedup_hmean", headline, "x")
}
