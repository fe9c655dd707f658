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
	// outcome instead of re-simulating.
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
	ws, err := opt.buildAll(names)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "T2", Title: "Graph inputs (synthetic stand-ins for Table 2)",
		Header: []string{"input", "kernel", "nodes", "edges", "LLC MPKI (ooo)"}}
	sw := opt.newSweep(t)
	cells := make([]*sweepCell, len(ws))
	for i, w := range ws {
		cells[i] = sw.cell(w, DefaultRunConfig(TechOoO))
	}
	sw.run()
	i := 0
	for _, k := range kernels {
		for _, name := range k.names {
			mpki := errCell
			if r, ok := cells[i].result(); ok {
				mpki = f(r.LLCMPKI)
			}
			t.AddRow(k.input, name, d(1<<workloads.DefaultGraphScale), "~"+d(uint64(1<<workloads.DefaultGraphScale)*8), mpki)
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
	techs := []Technique{TechPRE, TechIMP, TechVR, TechOracle}
	sw := opt.newSweep(t)
	type wCells struct {
		base *sweepCell
		tech []*sweepCell
	}
	plan := make([]wCells, len(ws))
	for i, w := range ws {
		wc := wCells{base: sw.cell(w, DefaultRunConfig(TechOoO))}
		for _, tech := range techs {
			wc.tech = append(wc.tech, sw.cell(w, DefaultRunConfig(tech), wc.base))
		}
		plan[i] = wc
	}
	sw.run()
	rows := make([]PerfRow, 0, len(ws))
	sums := map[Technique][]float64{}
	for i, w := range ws {
		row := PerfRow{Workload: w.Name, Speedup: map[Technique]float64{}}
		base, ok := plan[i].base.result()
		if !ok {
			// No baseline, nothing to normalize against: the whole row fails.
			t.AddRow(w.Name, errCell, errCell, errCell, errCell, errCell)
			rows = append(rows, row)
			continue
		}
		row.Speedup[TechOoO] = 1.0
		cells := []string{w.Name, "1.00"}
		for j, tech := range techs {
			r, ok := plan[i].tech[j].result()
			if !ok {
				cells = append(cells, errCell)
				continue
			}
			s := Speedup(base, r)
			row.Speedup[tech] = s
			sums[tech] = append(sums[tech], s)
			cells = append(cells, f(s))
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	t.AddRow("h-mean", "1.00", f(HarmonicMean(sums[TechPRE])), f(HarmonicMean(sums[TechIMP])),
		f(HarmonicMean(sums[TechVR])), f(HarmonicMean(sums[TechOracle])))
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
	bases := make([]*sweepCell, len(ws))
	for i, w := range ws {
		rc := DefaultRunConfig(TechOoO)
		rc.CPU = rc.CPU.WithROB(350)
		bases[i] = sw.cell(w, rc)
	}
	type point struct{ o, v *sweepCell }
	points := make([][]point, len(sizes))
	for si, size := range sizes {
		points[si] = make([]point, len(ws))
		for i, w := range ws {
			rcO := DefaultRunConfig(TechOoO)
			rcO.CPU = rcO.CPU.WithROB(size)
			co := sw.cell(w, rcO, bases[i])
			rcV := DefaultRunConfig(TechVR)
			rcV.CPU = rcV.CPU.WithROB(size)
			cv := sw.cell(w, rcV, bases[i], co)
			points[si][i] = point{o: co, v: cv}
		}
	}
	sw.run()
	for si, size := range sizes {
		var oooS, vrS, stall []float64
		for i := range ws {
			base, ok := bases[i].result()
			if !ok {
				continue
			}
			ro, ok := points[si][i].o.result()
			if !ok {
				continue
			}
			rv, ok := points[si][i].v.result()
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
	sw := opt.newSweep(t)
	type wCells struct {
		base *sweepCell
		cfg  [4]*sweepCell
	}
	plan := make([]wCells, len(ws))
	for i, w := range ws {
		wc := wCells{base: sw.cell(w, DefaultRunConfig(TechOoO))}
		configs := make([]RunConfig, 4)
		configs[0] = DefaultRunConfig(TechPRE)
		configs[1] = DefaultRunConfig(TechVR)
		configs[1].VR.VectorLength = 1
		configs[2] = DefaultRunConfig(TechVR)
		configs[2].VR.DelayedTermination = false
		configs[3] = DefaultRunConfig(TechVR)
		for j, rc := range configs {
			wc.cfg[j] = sw.cell(w, rc, wc.base)
		}
		plan[i] = wc
	}
	sw.run()
	var sums [4][]float64
	for i, w := range ws {
		base, ok := plan[i].base.result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell, errCell)
			continue
		}
		cells := []string{w.Name}
		for j := range plan[i].cfg {
			r, ok := plan[i].cfg[j].result()
			if !ok {
				cells = append(cells, errCell)
				continue
			}
			s := Speedup(base, r)
			sums[j] = append(sums[j], s)
			cells = append(cells, f(s))
		}
		t.AddRow(cells...)
	}
	t.AddRow("h-mean", f(HarmonicMean(sums[0])), f(HarmonicMean(sums[1])),
		f(HarmonicMean(sums[2])), f(HarmonicMean(sums[3])))
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
	type pair struct{ o, v *sweepCell }
	plan := make([]pair, len(ws))
	for i, w := range ws {
		co := sw.cell(w, DefaultRunConfig(TechOoO))
		plan[i] = pair{o: co, v: sw.cell(w, DefaultRunConfig(TechVR), co)}
	}
	sw.run()
	for i, w := range ws {
		ro, ok := plan[i].o.result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell)
			continue
		}
		rv, ok := plan[i].v.result()
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
	type pair struct{ o, v *sweepCell }
	plan := make([]pair, len(ws))
	for i, w := range ws {
		co := sw.cell(w, DefaultRunConfig(TechOoO))
		plan[i] = pair{o: co, v: sw.cell(w, DefaultRunConfig(TechVR), co)}
	}
	sw.run()
	for i, w := range ws {
		ro, ok := plan[i].o.result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell, errCell, errCell)
			continue
		}
		rv, ok := plan[i].v.result()
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
	cells := make([]*sweepCell, len(ws))
	for i, w := range ws {
		cells[i] = sw.cell(w, DefaultRunConfig(TechVR))
	}
	sw.run()
	for i, w := range ws {
		rv, ok := cells[i].result()
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
	bases := make([]*sweepCell, len(ws))
	for i, w := range ws {
		bases[i] = sw.cell(w, DefaultRunConfig(TechOoO))
	}
	points := make([][]*sweepCell, len(vls))
	for vi, vl := range vls {
		points[vi] = make([]*sweepCell, len(ws))
		for i, w := range ws {
			rc := DefaultRunConfig(TechVR)
			rc.VR.VectorLength = vl
			points[vi][i] = sw.cell(w, rc, bases[i])
		}
	}
	sw.run()
	for vi, vl := range vls {
		var ss, mlps []float64
		for i := range ws {
			base, ok := bases[i].result()
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
	sw := opt.newSweep(t)
	type wCells struct{ base, on, off *sweepCell }
	plan := make([]wCells, len(ws))
	for i, w := range ws {
		base := sw.cell(w, DefaultRunConfig(TechOoO))
		on := sw.cell(w, DefaultRunConfig(TechVR), base)
		rc := DefaultRunConfig(TechVR)
		rc.VR.DelayedTermination = false
		off := sw.cell(w, rc, base)
		plan[i] = wCells{base: base, on: on, off: off}
	}
	sw.run()
	for i, w := range ws {
		base, ok := plan[i].base.result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell)
			continue
		}
		heldC, withC, withoutC := errCell, errCell, errCell
		if on, ok := plan[i].on.result(); ok {
			heldC, withC = pct(on.HeldFrac), f(Speedup(base, on))
		}
		if off, ok := plan[i].off.result(); ok {
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
