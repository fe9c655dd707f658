package harness

import (
	"vrsim/internal/branch"
	"vrsim/internal/cpu"
	"vrsim/internal/workloads"
)

// The experiments below go beyond the paper's figures: they probe the
// design choices DESIGN.md calls out — how much of Vector Runahead's
// benefit depends on MSHR capacity, DRAM bandwidth, branch prediction
// quality, and the always-on stride prefetcher.
//
// Like the paper-figure drivers in experiments.go, every ablation
// declares its cells against the sweep engine, so the campaign
// resilience machinery — per-cell deadlines, transient-failure retries,
// checkpoint/resume and graceful cancellation (DESIGN.md §10) — applies
// here without any per-driver code.

// pairSweep covers the common ablation shape. For each of n points and
// then each workload it declares an OoO cell and a VR cell that depends
// on it, both configured for the point by set, which also returns the
// point's row label. It then runs the sweep and adds one row per point:
// the label, then render's columns over the pairs in which both cells
// survived, or ERR in every column when none did.
func (s *sweep) pairSweep(ws []*workloads.Workload, n int, set func(p int, rc *RunConfig) string, render func(ooo, vr []Result) []string) {
	labels := make([]string, n)
	pairs := make([][][2]*sweepCell, n)
	for p := range pairs {
		o, v := DefaultRunConfig(TechOoO), DefaultRunConfig(TechVR)
		labels[p] = set(p, &o)
		set(p, &v)
		for _, w := range ws {
			co := s.cell(w, o)
			pairs[p] = append(pairs[p], [2]*sweepCell{co, s.cell(w, v, co)})
		}
	}
	s.run()
	for p, label := range labels {
		var ooo, vr []Result
		for _, c := range pairs[p] {
			ro, okO := c[0].result()
			rv, okV := c[1].result()
			if okO && okV {
				ooo, vr = append(ooo, ro), append(vr, rv)
			}
		}
		row := []string{label}
		if len(ooo) == 0 {
			for len(row) < len(s.t.Header) {
				row = append(row, errCell)
			}
		} else {
			row = append(row, render(ooo, vr)...)
		}
		s.t.AddRow(row...)
	}
}

// ipcGain renders a pair-sweep point's h-mean OoO IPC, VR IPC and VR
// speedup over OoO.
func ipcGain(ooo, vr []Result) []string {
	var oooIPC, vrIPC, gain []float64
	for i := range ooo {
		oooIPC = append(oooIPC, ooo[i].IPC)
		vrIPC = append(vrIPC, vr[i].IPC)
		gain = append(gain, Speedup(ooo[i], vr[i]))
	}
	return []string{f(HarmonicMean(oooIPC)), f(HarmonicMean(vrIPC)), f(HarmonicMean(gain))}
}

// ExpA1MSHRSweep varies the L1-D MSHR count: the structure VR exists to
// keep full. Too few MSHRs choke the gathers; beyond saturation, extra
// entries buy nothing.
func ExpA1MSHRSweep(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A1", Title: "Ablation: MSHR count (h-mean over sweep set)",
		Header: []string{"MSHRs", "ooo IPC", "vr IPC", "vr gain", "vr MLP"}}
	points := []int{12, 24, 48}
	opt.newSweep(t).pairSweep(ws, len(points), func(p int, rc *RunConfig) string {
		rc.Mem.MSHRs = points[p]
		return d(uint64(points[p]))
	}, func(ooo, vr []Result) []string {
		var mlp []float64
		for _, r := range vr {
			mlp = append(mlp, r.MLP)
		}
		return append(ipcGain(ooo, vr), f(mean(mlp)))
	})
	return t, nil
}

// ExpA2BandwidthSweep varies DRAM bandwidth. Runahead converts latency
// into bandwidth demand; once the channel saturates, prefetching cannot
// help (the traffic is the same either way).
func ExpA2BandwidthSweep(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A2", Title: "Ablation: DRAM bandwidth (h-mean over sweep set)",
		Header: []string{"GB/s", "ooo IPC", "vr IPC", "vr gain"}}
	points := []float64{25.6, 51.2, 102.4}
	opt.newSweep(t).pairSweep(ws, len(points), func(p int, rc *RunConfig) string {
		rc.Mem.DRAMGBs = points[p]
		return fx(points[p], 1)
	}, ipcGain)
	return t, nil
}

// ExpA3Predictors swaps the branch predictor. Runahead walks the
// *predicted* future path, so prediction quality bounds both the baseline
// window and the accuracy of what runahead prefetches.
func ExpA3Predictors(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	preds := []struct {
		name string
		spec branch.Spec
	}{
		{"bimodal", branch.Spec{Kind: branch.KindBimodal, LogSize: 12}},
		{"gshare", branch.Spec{Kind: branch.KindGshare, LogSize: 12, HistoryBits: 12}},
		{"tage", branch.Spec{Kind: branch.KindTAGE, LogSize: 10}},
	}
	t := &Table{ID: "A3", Title: "Ablation: branch predictor (h-mean over sweep set)",
		Header: []string{"predictor", "ooo IPC", "vr gain", "mispredict rate"}}
	opt.newSweep(t).pairSweep(ws, len(preds), func(p int, rc *RunConfig) string {
		rc.CPU.Predictor = preds[p].spec
		return preds[p].name
	}, func(ooo, vr []Result) []string {
		var mr []float64
		for _, r := range ooo {
			mr = append(mr, r.MispredictRate)
		}
		g := ipcGain(ooo, vr)
		return []string{g[0], g[2], pct(mean(mr))}
	})
	return t, nil
}

// ExpA4StridePrefetcher toggles the always-on stride prefetcher under each
// technique: the paper keeps it on everywhere; this quantifies how much of
// the baseline's health it provides and whether VR depends on it.
func ExpA4StridePrefetcher(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A4", Title: "Ablation: L1-D stride prefetcher (h-mean over sweep set)",
		Header: []string{"config", "ooo IPC", "vr IPC", "vr gain"}}
	labels := []string{"stride pf on", "stride pf off"}
	opt.newSweep(t).pairSweep(ws, len(labels), func(p int, rc *RunConfig) string {
		rc.DisableStridePrefetcher = p == 1
		return labels[p]
	}, ipcGain)
	return t, nil
}

// ExpA5CoreScaling scales the whole back end with the ROB (the paper's
// Fig. 12 companion in DVR scales "all the back-end structures in
// proportion to the ROB"); WithROB already scales IQ/LQ/SQ, so this sweep
// reports the full-machine trend for the baseline and VR.
func ExpA5CoreScaling(opt Options) (*Table, error) {
	sizes := opt.ROBSizes
	if sizes == nil {
		sizes = []int{128, 350, 512}
	}
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A5", Title: "Ablation: full back-end scaling (h-mean over sweep set)",
		Header: []string{"ROB (scaled queues)", "ooo IPC", "vr IPC", "vr gain"}}
	opt.newSweep(t).pairSweep(ws, len(sizes), func(p int, rc *RunConfig) string {
		rc.CPU = cpu.DefaultConfig().WithROB(sizes[p])
		return d(uint64(sizes[p]))
	}, ipcGain)
	return t, nil
}

// ExpA6LoopBound quantifies the loop-bound extension (beyond the paper):
// VR with and without bound-masked lanes on the short-inner-loop workloads
// where plain VR over-fetches (the UR graph inputs).
func ExpA6LoopBound(opt Options) (*Table, error) {
	if opt.Workloads == nil {
		opt.Workloads = []string{"bfs_ur", "bc_ur", "bfs_kr"}
	}
	ws, err := opt.loadWorkloads(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A6", Title: "Extension: loop-bound-aware vectorization",
		Header: []string{"workload", "vr", "vr+bounds", "bound-masked lanes", "traffic ratio"}}
	rcBounded := DefaultRunConfig(TechVR)
	rcBounded.VR.LoopBoundAware = true
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO), DefaultRunConfig(TechVR), rcBounded)
	sw.run()
	for i, w := range ws {
		base, ok := cells[i][0].result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell, errCell)
			continue
		}
		plain, okP := cells[i][1].result()
		bounded, okB := cells[i][2].result()
		vrC, boundsC, lanesC, ratioC := errCell, errCell, errCell, errCell
		if okP {
			vrC = f(Speedup(base, plain))
		}
		if okB {
			boundsC = f(Speedup(base, bounded))
			lanesC = d(bounded.VRStats.LanesBoundMasked)
		}
		if okP && okB {
			ratio := 0.0
			if plain.OffChipTotal > 0 {
				ratio = (float64(bounded.OffChipTotal) / float64(bounded.Instrs)) /
					(float64(plain.OffChipTotal) / float64(plain.Instrs))
			}
			ratioC = f(ratio)
		}
		t.AddRow(w.Name, vrC, boundsC, lanesC, ratioC)
	}
	t.AddNote("traffic ratio <1 = the extension cut off-chip traffic")
	return t, nil
}

// ExpA7RunaheadLineage compares the runahead family on the sweep set:
// classic flush-based runahead, PRE (no flush), and Vector Runahead — the
// progression the paper's background section traces.
func ExpA7RunaheadLineage(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A7", Title: "Runahead lineage (speedup over OoO baseline)",
		Header: []string{"workload", "classic ra", "pre", "vr"}}
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO),
		DefaultRunConfig(TechRA), DefaultRunConfig(TechPRE), DefaultRunConfig(TechVR))
	sw.run()
	speedupRows(t, cells, false, nil)
	return t, nil
}

// ExpA8Reconverge quantifies the divergence-stack extension (beyond the
// paper): VR with masked-off divergent lanes (the ISCA 2021 behaviour)
// versus VR that stashes and later runs them, on the branchy GAP kernels.
func ExpA8Reconverge(opt Options) (*Table, error) {
	if opt.Workloads == nil {
		opt.Workloads = []string{"bc_kr", "bfs_kr", "sssp_kr"}
	}
	ws, err := opt.loadWorkloads(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A8", Title: "Extension: divergence-stack execution",
		Header: []string{"workload", "vr", "vr+stack", "lanes stashed", "lanes resumed"}}
	// Chains must survive past their first gather's data return to reach a
	// divergence point at all, so this ablation relaxes the hold bound for
	// both arms — isolating the reconvergence variable.
	const holdForDivergence = 2048
	rcPlain := DefaultRunConfig(TechVR)
	rcPlain.VR.MaxHoldCycles = holdForDivergence
	rcStacked := rcPlain
	rcStacked.VR.Reconverge = true
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO), rcPlain, rcStacked)
	sw.run()
	for i, w := range ws {
		base, ok := cells[i][0].result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell, errCell)
			continue
		}
		vrC, stackC, stashC, resumeC := errCell, errCell, errCell, errCell
		if plain, ok := cells[i][1].result(); ok {
			vrC = f(Speedup(base, plain))
		}
		if stacked, ok := cells[i][2].result(); ok {
			stackC = f(Speedup(base, stacked))
			stashC = d(stacked.VRStats.LanesStashed)
			resumeC = d(stacked.VRStats.LanesResumed)
		}
		t.AddRow(w.Name, vrC, stackC, stashC, resumeC)
	}
	t.AddNote("both arms run with a relaxed delayed-termination bound so chains reach their divergence points")
	return t, nil
}

// ExpA9ExtraWork reports each runahead technique's pre-executed work as a
// fraction of committed instructions — the energy-overhead proxy the
// runahead literature reports (transient execution is discarded work, paid
// for in issue slots and energy).
func ExpA9ExtraWork(opt Options) (*Table, error) {
	ws, err := opt.loadWorkloads(sweepSet)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "A9", Title: "Pre-executed (discarded) work per committed instruction",
		Header: []string{"workload", "classic ra", "pre", "vr", "vr speedup"}}
	sw := opt.newSweep(t)
	cells := sw.perWorkload(ws, DefaultRunConfig(TechOoO),
		DefaultRunConfig(TechRA), DefaultRunConfig(TechPRE), DefaultRunConfig(TechVR))
	sw.run()
	for i, w := range ws {
		base, ok := cells[i][0].result()
		if !ok {
			t.AddRow(w.Name, errCell, errCell, errCell, errCell)
			continue
		}
		raC, preC, vrC, spC := errCell, errCell, errCell, errCell
		if ra, ok := cells[i][1].result(); ok {
			raC = pct(float64(ra.RAStats.Instrs) / float64(ra.Instrs))
		}
		if pre, ok := cells[i][2].result(); ok {
			preC = pct(float64(pre.PREStats.Instrs) / float64(pre.Instrs))
		}
		if vr, ok := cells[i][3].result(); ok {
			vrWork := vr.VRStats.ScalarInstrs + vr.VRStats.VectorUops + vr.VRStats.GatherLoads
			vrC = pct(float64(vrWork) / float64(vr.Instrs))
			spC = f(Speedup(base, vr))
		}
		t.AddRow(w.Name, raC, preC, vrC, spC)
	}
	t.AddNote("vr column counts scalar walker instructions + vector uops + scalar-equivalent gather lanes")
	return t, nil
}
