package harness

import (
	"context"
	"fmt"
	"time"

	"vrsim/internal/core"
	"vrsim/internal/cpu"
	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// Options parameterize the experiment drivers. The zero value selects
// paper-faithful defaults; tests and benchmarks dial budgets and workload
// sets down.
type Options struct {
	// MaxBudget caps per-run instructions (default 1M).
	MaxBudget uint64
	// Workloads filters the benchmark set by name (nil = the experiment's
	// default set).
	Workloads []string
	// ROBSizes overrides the F2 sweep points.
	ROBSizes []int
	// VectorLengths overrides the F12 sweep points.
	VectorLengths []int
	// Progress, when set, receives one line per build/run event. Calls are
	// serialized, so the callback needs no locking of its own; under
	// parallel execution the delivery order follows completion order.
	Progress func(msg string)
	// WatchdogCycles overrides the forward-progress watchdog span
	// (0 = the cpu package default).
	WatchdogCycles uint64
	// Check enables the cosimulation oracle and runtime invariant checker
	// on every cell (see RunConfig.Check). A divergence fails its cell
	// permanently (never retried) and renders as an ERR entry carrying
	// both machine snapshots.
	Check bool
	// Parallel bounds how many simulation cells run concurrently
	// (0 = GOMAXPROCS). Scheduling never changes results: rendered tables
	// are byte-identical at every setting.
	Parallel int
	// Faults configures deterministic memory fault injection. The zero
	// value disables injection. Every cell attempt gets a private
	// injector seeded from its identity (mem.FaultConfig.ForCellAttempt),
	// so its fault sequence is independent of execution order and
	// count-based faults like PanicAfter count per cell.
	Faults mem.FaultConfig
	// CellTimeout bounds each cell's wall-clock time (0 = no deadline): a
	// cell that exceeds it aborts with ErrCellTimeout and a machine
	// snapshot, freeing its worker slot. The deadline is enforced by a
	// periodic context check inside the cycle loop, never by a clock read
	// in the simulator itself.
	CellTimeout time.Duration
	// MaxRetries re-runs a cell whose failure classifies as transient
	// (RunError.Transient: timeouts and watchdog trips) up to this many
	// additional attempts, each with a fault seed derived for that attempt
	// (mem.FaultConfig.ForCellAttempt). Permanent failures — bad configs,
	// panics, cancellation — never retry.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry, doubling per
	// attempt (deterministic, no jitter; capped at base<<6). 0 retries
	// immediately.
	RetryBackoff time.Duration
	// Pool, when non-nil, executes every cell in an isolated worker
	// process (vrbench -isolate=process): the sweep's run function
	// becomes Pool.Run, which dispatches the cell — with its fault seed
	// already derived for the attempt — to a supervised child process
	// and survives that process's death by redispatching. Results are
	// byte-identical to in-process execution.
	Pool *WorkerPool
	// Journal, when non-nil, records every completed cell for
	// checkpoint/resume: cells present in the journal replay their stored
	// outcome instead of re-simulating. It also serves reuse: a cell whose
	// identity (workload plus resolved configuration) matches a successful
	// record takes that outcome instead of simulating. Share one journal
	// across a campaign's experiments (NewJournal makes one without a
	// file) so that each distinct cell simulates once.
	Journal *Journal
	// Ctx, when non-nil, soft-cancels the campaign: once done, cells that
	// have not started are marked cancelled — rendered as ERR cells plus a
	// CANCELLED table summary — while in-flight cells drain to completion.
	// nil behaves as context.Background().
	Ctx context.Context
	// AbortCtx, when non-nil, hard-cancels in-flight cells: it is
	// consulted every few thousand cycles inside each cell's cycle loop
	// and aborts the run with ErrCancelled once done. Drivers typically
	// derive it from the same signal source as Ctx (first interrupt
	// drains, second aborts).
	AbortCtx context.Context
}

// softCtx returns the campaign's soft-cancellation context.
func (o *Options) softCtx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// abortCtx returns the campaign's hard-cancellation context.
func (o *Options) abortCtx() context.Context {
	if o.AbortCtx != nil {
		return o.AbortCtx
	}
	return context.Background()
}

func (o *Options) budget() uint64 {
	if o.MaxBudget == 0 {
		return 1_000_000
	}
	return o.MaxBudget
}

func (o *Options) note(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// loadWorkloads materializes the selected workloads (all 18 by default).
func (o *Options) loadWorkloads(def []string) ([]*workloads.Workload, error) {
	names := o.Workloads
	if names == nil {
		names = def
		if names == nil {
			names = workloads.Names()
		}
	}
	return o.buildAll(names)
}

// errCell is what a failed run renders as in a table; the failure itself
// lands in the table's Errors summary.
const errCell = "ERR"

// sweepSet is the default workload subset for the expensive multi-point
// sweeps (F2, F12): one representative per domain class.
var sweepSet = []string{"bfs_kr", "sssp_kr", "camel", "hj8", "kangaroo"}

// Experiment is one table vrbench renders: its -exp id, the -exp selector
// that also runs it ("all" for the paper's tables and figures, "ablations"
// for A1–A9), and its driver.
type Experiment struct {
	ID    string
	Group string
	Run   func(Options) (*Table, error)
}

// Experiments lists every experiment: the paper's in `vrbench -exp all`
// order, then the ablations in `-exp ablations` order.
var Experiments = []Experiment{
	{"t1", "all", func(Options) (*Table, error) { return ExpT1Config(), nil }},
	{"t2", "all", ExpT2Graphs},
	{"f2", "all", ExpF2ROBSweep},
	{"f7", "all", func(o Options) (*Table, error) {
		t, _, err := ExpF7Performance(o)
		return t, err
	}},
	{"f8", "all", ExpF8Ablation},
	{"f9", "all", ExpF9MLP},
	{"f10", "all", ExpF10AccuracyCoverage},
	{"f11", "all", ExpF11Timeliness},
	{"f12", "all", ExpF12VectorLength},
	{"f13", "all", ExpF13DelayedTermination},
	{"t3", "all", func(Options) (*Table, error) { return ExpT3Hardware(), nil }},
	{"a1", "ablations", ExpA1MSHRSweep},
	{"a2", "ablations", ExpA2BandwidthSweep},
	{"a3", "ablations", ExpA3Predictors},
	{"a4", "ablations", ExpA4StridePrefetcher},
	{"a5", "ablations", ExpA5CoreScaling},
	{"a6", "ablations", ExpA6LoopBound},
	{"a7", "ablations", ExpA7RunaheadLineage},
	{"a8", "ablations", ExpA8Reconverge},
	{"a9", "ablations", ExpA9ExtraWork},
}

// ExpT1Config renders the baseline core configuration (paper Table 1).
func ExpT1Config() *Table {
	cfg := cpu.DefaultConfig()
	m := mem.DefaultConfig()
	t := &Table{ID: "T1", Title: "Baseline out-of-order core configuration", Header: []string{"parameter", "value"}}
	t.AddRow("core", "4.0 GHz out-of-order")
	t.AddRow("ROB size", d(uint64(cfg.ROBSize)))
	t.AddRow("queue sizes", fmt.Sprintf("issue (%d), load (%d), store (%d)", cfg.IQSize, cfg.LQSize, cfg.SQSize))
	t.AddRow("processor width", fmt.Sprintf("%d-wide fetch/dispatch/issue/commit", cfg.Width))
	t.AddRow("pipeline depth", fmt.Sprintf("%d front-end stages", cfg.FrontendDepth))
	t.AddRow("branch predictor", "TAGE (4 tagged tables, geometric histories 8..64)")
	t.AddRow("functional units", "4 int add (1c), 1 int mul (3c), 1 int div (18c)")
	t.AddRow("", "1 fp add (3c), 1 fp mul (5c), 1 fp div (6c), 2 mem ports")
	t.AddRow("L1 D-cache", fmt.Sprintf("%d KB, assoc %d, %d-cycle, %d MSHRs, stride pf (16 streams)",
		m.L1SizeBytes>>10, m.L1Ways, m.L1Latency, m.MSHRs))
	t.AddRow("private L2", fmt.Sprintf("%d KB, assoc %d, %d-cycle", m.L2SizeBytes>>10, m.L2Ways, m.L2Latency))
	t.AddRow("shared L3", fmt.Sprintf("%d MB, assoc %d, %d-cycle", m.L3SizeBytes>>20, m.L3Ways, m.L3Latency))
	t.AddRow("memory", fmt.Sprintf("%.0f ns min latency, %.1f GB/s, request-based contention", m.DRAMMinNS, m.DRAMGBs))
	return t
}

// perWorkload declares, for each workload in order, a cell under base and
// then one cell per variant that depends on it. Entry i holds workload i's
// cells: its base first, then its variants in order.
func (s *sweep) perWorkload(ws []*workloads.Workload, base RunConfig, variants ...RunConfig) [][]*sweepCell {
	cells := make([][]*sweepCell, len(ws))
	for i, w := range ws {
		b := s.cell(w, base)
		cells[i] = []*sweepCell{b}
		for _, rc := range variants {
			cells[i] = append(cells[i], s.cell(w, rc, b))
		}
	}
	return cells
}

// speedupRows renders perWorkload cells as a speedup matrix: one row per
// workload with each variant's speedup over its base — led by the base's
// own column when withBase is set — and then an h-mean row over each
// column's surviving speedups. A failed cell renders as ERR, as does every
// variant of a failed base (the sweep skips it) and the h-mean of a column
// with no survivor. each, when non-nil, receives every surviving speedup
// by workload and column.
func speedupRows(t *Table, cells [][]*sweepCell, withBase bool, each func(i, col int, s float64)) {
	cols := make([][]float64, len(t.Header)-1)
	for i, wc := range cells {
		row := []string{wc[0].w.Name}
		base, _ := wc[0].result()
		if !withBase {
			wc = wc[1:]
		}
		for j, c := range wc {
			r, ok := c.result()
			if !ok {
				row = append(row, errCell)
				continue
			}
			s := Speedup(base, r)
			cols[j] = append(cols[j], s)
			if each != nil {
				each(i, j, s)
			}
			row = append(row, f(s))
		}
		t.AddRow(row...)
	}
	hmean := []string{"h-mean"}
	for _, xs := range cols {
		if len(xs) == 0 {
			hmean = append(hmean, errCell) // no survivor to average
			continue
		}
		hmean = append(hmean, f(HarmonicMean(xs)))
	}
	t.AddRow(hmean...)
}

// ExpT2Graphs reports the synthetic graph inputs and their measured
// pressure on the LLC (paper Table 2 analogue: nodes, edges, LLC MPKI
// aggregated over the GAP kernels).
func ExpT2Graphs(opt Options) (*Table, error) {
	// An ordered slice, not a map: the table's row order is part of the
	// rendered output EXPERIMENTS.md is compared on, and a map would also
	// let an input drift out of the (previously separate) iteration list.
	kernels := []struct {
		input string
		names []string
	}{
		{"KR (Kronecker)", []string{"bfs_kr", "sssp_kr"}},
		{"UR (uniform)", []string{"bfs_ur", "sssp_ur"}},
	}
	var names []string
	for _, k := range kernels {
		names = append(names, k.names...)
	}
	// T2 prints the graphs' node and edge counts, so it builds its kernels
	// here even when the cells run in worker processes.
	build := opt
	build.Pool = nil
	ws, err := build.buildAll(names)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "T2", Title: "Graph inputs (synthetic stand-ins for Table 2)",
		Header: []string{"input", "kernel", "nodes", "edges", "LLC MPKI (ooo)"}}
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO))
	sw.run()
	i := 0
	for _, k := range kernels {
		for _, name := range k.names {
			mpki := errCell
			if r, ok := cells[i][0].result(); ok {
				mpki = f(r.LLCMPKI)
			}
			// The edge count keeps the generators' duplicate edges, so
			// the graph has somewhat fewer distinct ones.
			w := ws[i]
			t.AddRow(k.input, name, d(uint64(w.Nodes)), "~"+d(uint64(w.Edges)), mpki)
			i++
		}
	}
	t.AddNote("paper inputs are 2111M/2147M-edge graphs; these are LLC-exceeding downscales")
	return t, nil
}

// PerfRow is one benchmark's normalized performance across techniques.
type PerfRow struct {
	Workload string
	Speedup  map[Technique]float64
}

// ExpF7Performance reproduces the main results figure: every benchmark
// under OoO / PRE / IMP / VR / Oracle, normalized to the OoO baseline.
// Failed cells render as ERR and drop out of the h-means; the table's
// Errors field carries the diagnostics.
func ExpF7Performance(opt Options) (*Table, []PerfRow, error) {
	ws, err := opt.loadWorkloads(nil)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{ID: "F7", Title: "Normalized performance (speedup over OoO baseline)",
		Header: []string{"workload", "ooo", "pre", "imp", "vr", "oracle"}}
	techs := []Technique{TechOoO, TechPRE, TechIMP, TechVR, TechOracle}
	var variants []RunConfig
	for _, tech := range techs[1:] {
		variants = append(variants, DefaultRunConfig(tech))
	}
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO), variants...)
	sw.run()
	rows := make([]PerfRow, len(ws))
	for i, w := range ws {
		rows[i] = PerfRow{Workload: w.Name, Speedup: map[Technique]float64{}}
	}
	speedupRows(t, cells, true, func(i, j int, s float64) { rows[i].Speedup[techs[j]] = s })
	return t, rows, nil
}

// ExpF2ROBSweep reproduces the motivation figure: OoO and VR performance,
// and full-ROB stall time, as the ROB scales from 128 to 512 entries; all
// normalized to the 350-entry OoO baseline.
func ExpF2ROBSweep(opt Options) (*Table, error) {
	sizes := opt.ROBSizes
	if sizes == nil {
		sizes = []int{128, 192, 224, 350, 512}
	}
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "F2", Title: "Performance and full-ROB stall time vs. ROB size (normalized to OoO@350)",
		Header: []string{"ROB", "ooo perf", "vr perf", "vr gain", "window-stall (ooo)"}}
	sw := opt.newSweep(t)

	// Baseline at 350 per workload; a workload whose baseline fails drops
	// out of every sweep point.
	rc := DefaultRunConfig(TechOoO)
	rc.CPU = rc.CPU.WithROB(350)
	bases := sw.perWorkload(ws, rc)
	points := make([][][2]*sweepCell, len(sizes)) // OoO and VR per workload
	for si, size := range sizes {
		for i, w := range ws {
			rcO := DefaultRunConfig(TechOoO)
			rcO.CPU = rcO.CPU.WithROB(size)
			co := sw.cell(w, rcO, bases[i][0])
			rcV := DefaultRunConfig(TechVR)
			rcV.CPU = rcV.CPU.WithROB(size)
			points[si] = append(points[si], [2]*sweepCell{co, sw.cell(w, rcV, bases[i][0], co)})
		}
	}
	sw.run()
	for si, size := range sizes {
		var oooS, vrS, stall []float64
		for i := range ws {
			base, ok := bases[i][0].result()
			if !ok {
				continue
			}
			ro, ok := points[si][i][0].result()
			if !ok {
				continue
			}
			rv, ok := points[si][i][1].result()
			if !ok {
				continue
			}
			oooS = append(oooS, Speedup(base, ro))
			vrS = append(vrS, Speedup(base, rv))
			stall = append(stall, ro.ResourceStallFrac)
		}
		if len(oooS) == 0 {
			t.AddRow(d(uint64(size)), errCell, errCell, errCell, errCell)
			continue
		}
		o, v := HarmonicMean(oooS), HarmonicMean(vrS)
		t.AddRow(d(uint64(size)), f(o), f(v), f(v/o), pct(mean(stall)))
	}
	return t, nil
}

// ExpF8Ablation breaks VR's gain into its mechanisms: PRE (scalar runahead),
// VR with a single lane (chain-following without vector MLP), VR without
// delayed termination, and full VR.
func ExpF8Ablation(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "F8", Title: "VR mechanism breakdown (speedup over OoO baseline)",
		Header: []string{"workload", "pre", "vr vl=1", "vr no-delay", "vr full"}}
	oneLane, noDelay := DefaultRunConfig(TechVR), DefaultRunConfig(TechVR)
	oneLane.VR.VectorLength = 1
	noDelay.VR.DelayedTermination = false
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO),
		DefaultRunConfig(TechPRE), oneLane, noDelay, DefaultRunConfig(TechVR))
	sw.run()
	speedupRows(t, cells, false, nil)
	return t, nil
}

// ExpF9MLP reproduces the memory-level-parallelism figure: average
// outstanding L1-D misses per cycle for the baseline and VR.
func ExpF9MLP(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "F9", Title: "Memory-level parallelism (avg MSHRs in use per cycle)",
		Header: []string{"workload", "ooo", "vr", "ratio"}}
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO), DefaultRunConfig(TechVR))
	sw.run()
	for i, w := range ws {
		ro, ok := cells[i][0].result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell)
			continue
		}
		rv, ok := cells[i][1].result()
		if !ok {
			t.AddRow(w.Name, f(ro.MLP), errCell, errCell)
			continue
		}
		ratio := 0.0
		if ro.MLP > 0 {
			ratio = rv.MLP / ro.MLP
		}
		t.AddRow(w.Name, f(ro.MLP), f(rv.MLP), f(ratio))
	}
	return t, nil
}

// ExpF10AccuracyCoverage reproduces the accuracy/coverage figure: total
// off-chip traffic split by requester, VR's overfetch relative to the
// baseline, and the fraction of baseline demand fetches VR eliminated.
func ExpF10AccuracyCoverage(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "F10", Title: "Off-chip traffic and coverage (VR vs. baseline)",
		Header: []string{"workload", "ooo demand", "vr demand", "vr runahead", "traffic ratio", "coverage"}}
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO), DefaultRunConfig(TechVR))
	sw.run()
	for i, w := range ws {
		ro, ok := cells[i][0].result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell, errCell, errCell)
			continue
		}
		rv, ok := cells[i][1].result()
		if !ok {
			t.AddRow(w.Name, d(ro.OffChipDemand), errCell, errCell, errCell, errCell)
			continue
		}
		ratio, cover := 0.0, 0.0
		if ro.OffChipTotal > 0 {
			// Normalize per committed instruction: the two runs cover
			// different amounts of work per unit time.
			ratio = (float64(rv.OffChipTotal) / float64(rv.Instrs)) /
				(float64(ro.OffChipTotal) / float64(ro.Instrs))
		}
		if ro.OffChipDemand > 0 {
			cover = 1 - (float64(rv.OffChipDemand)/float64(rv.Instrs))/
				(float64(ro.OffChipDemand)/float64(ro.Instrs))
		}
		t.AddRow(w.Name, d(ro.OffChipDemand), d(rv.OffChipDemand), d(rv.OffChipRunahead), f(ratio), pct(cover))
	}
	t.AddNote("traffic ratio >1 = overfetch; coverage = demand misses eliminated")
	return t, nil
}

// ExpF11Timeliness reproduces the timeliness figure: where the main thread
// found VR-prefetched lines on first use.
func ExpF11Timeliness(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "F11", Title: "Timeliness: first-use location of VR-prefetched lines",
		Header: []string{"workload", "L1", "L2", "L3", "in-flight (late)"}}
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechVR))
	sw.run()
	for i, w := range ws {
		rv, ok := cells[i][0].result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell, errCell)
			continue
		}
		total := float64(rv.TimelinessL1 + rv.TimelinessL2 + rv.TimelinessL3 + rv.TimelinessInFlight)
		if total == 0 {
			t.AddRow(w.Name, "-", "-", "-", "-")
			continue
		}
		t.AddRow(w.Name,
			pct(float64(rv.TimelinessL1)/total),
			pct(float64(rv.TimelinessL2)/total),
			pct(float64(rv.TimelinessL3)/total),
			pct(float64(rv.TimelinessInFlight)/total))
	}
	return t, nil
}

// ExpF12VectorLength sweeps the vectorization degree.
func ExpF12VectorLength(opt Options) (*Table, error) {
	vls := opt.VectorLengths
	if vls == nil {
		vls = []int{8, 16, 32, 64, 128}
	}
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "F12", Title: "Sensitivity to vector length (h-mean speedup over OoO)",
		Header: []string{"lanes", "speedup", "MLP"}}
	sw := opt.newSweep(t)
	bases := sw.perWorkload(ws, DefaultRunConfig(TechOoO))
	points := make([][]*sweepCell, len(vls))
	for vi, vl := range vls {
		points[vi] = make([]*sweepCell, len(ws))
		for i, w := range ws {
			rc := DefaultRunConfig(TechVR)
			rc.VR.VectorLength = vl
			points[vi][i] = sw.cell(w, rc, bases[i][0])
		}
	}
	sw.run()
	for vi, vl := range vls {
		var ss, mlps []float64
		for i := range ws {
			base, ok := bases[i][0].result()
			if !ok {
				continue
			}
			r, ok := points[vi][i].result()
			if !ok {
				continue
			}
			ss = append(ss, Speedup(base, r))
			mlps = append(mlps, r.MLP)
		}
		if len(ss) == 0 {
			t.AddRow(d(uint64(vl)), errCell, errCell)
			continue
		}
		t.AddRow(d(uint64(vl)), f(HarmonicMean(ss)), f(mean(mlps)))
	}
	return t, nil
}

// ExpF13DelayedTermination measures the commit-stall cost of delayed
// termination (the paper reports 7.1% average, up to 11.8%, for VR).
func ExpF13DelayedTermination(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "F13", Title: "Delayed termination: commit-hold time and its value",
		Header: []string{"workload", "held cycles", "speedup w/", "speedup w/o"}}
	noDelay := DefaultRunConfig(TechVR)
	noDelay.VR.DelayedTermination = false
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO), DefaultRunConfig(TechVR), noDelay)
	sw.run()
	for i, w := range ws {
		base, ok := cells[i][0].result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell)
			continue
		}
		heldC, withC, withoutC := errCell, errCell, errCell
		if on, ok := cells[i][1].result(); ok {
			heldC, withC = pct(on.HeldFrac), f(Speedup(base, on))
		}
		if off, ok := cells[i][2].result(); ok {
			withoutC = f(Speedup(base, off))
		}
		t.AddRow(w.Name, heldC, withC, withoutC)
	}
	return t, nil
}

// ExpT3Hardware itemizes VR's storage overhead.
func ExpT3Hardware() *Table {
	t := &Table{ID: "T3", Title: "Vector Runahead hardware overhead",
		Header: []string{"structure", "bytes", "detail"}}
	cfg := core.DefaultVRConfig()
	if err := cfg.Validate(); err != nil {
		t.AddError(err)
		return t
	}
	vr := core.NewVR(cfg)
	for _, it := range vr.HardwareCost() {
		t.AddRow(it.Name, d(uint64(it.Bytes)), it.Note)
	}
	t.AddRow("total", d(uint64(vr.TotalHardwareBytes())), "")
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
