package main

import (
	"time"

	"vrsim/internal/harness"
	"vrsim/internal/mem"
)

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setModel sets the per-layer counts read from cell results: what the
// modelled hardware did, summed over every cell, with per-cell rates
// weighted by cycles or instructions. The vr-only counts cover the vr
// cells.
func setModel(m metrics, rs []harness.Result) {
	var instrs, cycles, fetched, squashed, demand, offchip, pfIssued, pfDropped float64
	var robFull, dramUtil, mlp, llcMisses, mispredicts float64
	var vrInstrs, vrCycles, vrActivations, vrGathers, vrHeld, raUseful, raIssued float64
	for _, r := range rs {
		in, cy := float64(r.Instrs), float64(r.Cycles)
		instrs += in
		cycles += cy
		fetched += float64(r.Fetched)
		squashed += float64(r.Squashed)
		for lvl := range r.DemandLoadsByLevel {
			demand += float64(r.DemandLoadsByLevel[lvl] + r.DemandStoresByLevel[lvl])
		}
		offchip += float64(r.OffChipTotal)
		pfIssued += float64(r.PrefetchIssued[mem.SrcStride] + r.PrefetchIssued[mem.SrcIMP])
		pfDropped += float64(r.PrefetchDropped)
		robFull += r.ROBFullFrac * cy
		dramUtil += r.DRAMUtil * cy
		mlp += r.MLP * cy
		llcMisses += r.LLCMPKI * in
		mispredicts += r.MispredictRate * in
		if r.Tech == harness.TechVR {
			vrInstrs += in
			vrCycles += cy
			vrActivations += float64(r.VRStats.Activations)
			vrGathers += float64(r.VRStats.GatherLoads)
			vrHeld += r.HeldFrac * cy
			raUseful += float64(r.RunaheadUseful)
			raIssued += float64(r.RunaheadIssued)
		}
	}
	m.set("cpu.ipc", ratio(instrs, cycles), "instr/cycle")
	m.set("cpu.useful_fetch_frac", 1-ratio(squashed, fetched), "ratio")
	m.set("cpu.rob_full_frac", ratio(robFull, cycles), "ratio")
	m.set("mem.demand_pki", 1000*ratio(demand, instrs), "1/kinstr")
	m.set("mem.llc_mpki", ratio(llcMisses, instrs), "1/kinstr")
	m.set("mem.offchip_pki", 1000*ratio(offchip, instrs), "1/kinstr")
	m.set("mem.dram_util", ratio(dramUtil, cycles), "ratio")
	m.set("mem.mlp", ratio(mlp, cycles), "count")
	m.set("branch.mispredict_rate", ratio(mispredicts, instrs), "ratio")
	m.set("prefetch.issued_pki", 1000*ratio(pfIssued, instrs), "1/kinstr")
	m.set("prefetch.dropped_frac", ratio(pfDropped, pfIssued+pfDropped), "ratio")
	m.set("core.vr_activations", vrActivations, "count")
	m.set("core.vr_gather_pki", 1000*ratio(vrGathers, vrInstrs), "1/kinstr")
	m.set("core.runahead_useful_frac", ratio(raUseful, raIssued), "ratio")
	m.set("core.vr_held_frac", ratio(vrHeld, vrCycles), "ratio")
}

// setSpans sets the metrics derived from per-cell spans: host time per
// simulated instruction by technique, per simulated cycle on the default
// ooo core, and the extra host time a runahead engine costs over ooo on
// the same kernel. Workloads without in-process cells read zero.
func setSpans(m metrics, cells []cell, spans []time.Duration, res []harness.Result) {
	type sum struct{ ns, instrs float64 }
	byTech := map[harness.Technique]*sum{}
	var oooNs, oooCycles float64
	type key struct{ kernel, label string }
	byCell := map[key]int{}
	for i, c := range cells {
		ns, r := float64(spans[i].Nanoseconds()), res[i]
		s := byTech[c.rc.Tech]
		if s == nil {
			s = &sum{}
			byTech[c.rc.Tech] = s
		}
		s.ns += ns
		s.instrs += float64(r.Instrs)
		if c.rc.Tech == harness.TechOoO {
			oooNs += ns
			oooCycles += float64(r.Cycles)
		}
		byCell[key{c.kernel, c.label}] = i
	}
	for _, t := range harness.AllTechniques() {
		var v float64
		if s := byTech[t]; s != nil {
			v = ratio(s.ns, s.instrs)
		}
		m.set("harness.ns_per_instr_"+string(t), v, "ns/instr")
	}
	m.set("cpu.ns_per_cycle", ratio(oooNs, oooCycles), "ns/cycle")
	extra := func(tech harness.Technique) float64 {
		var ns, instrs float64
		for k, i := range byCell {
			if k.label != string(tech) {
				continue
			}
			if base, ok := byCell[key{k.kernel, string(harness.TechOoO)}]; ok {
				ns += float64((spans[i] - spans[base]).Nanoseconds())
				instrs += float64(res[i].Instrs)
			}
		}
		return ratio(ns, instrs)
	}
	m.set("core.vr_extra_ns_per_instr", extra(harness.TechVR), "ns/instr")
	m.set("core.pre_extra_ns_per_instr", extra(harness.TechPRE), "ns/instr")
}

// harnessLayer holds the harness's spans and counts; the campaign-only
// ones are zero on the cell-matrix workloads.
type harnessLayer struct {
	// run is the time spent inside the harness entry points the
	// benchmark calls in-process: RunSupervised, or the Exp* drivers.
	run time.Duration
	// campaign is one isolated campaign, isolation the extra time it took
	// over the same campaign in-process.
	campaign, isolation      time.Duration
	starts, crashes          int
	workerCPU, supervisorCPU time.Duration
	journalBytes             int64
}

func (h harnessLayer) set(m metrics) {
	m.set("harness.run_s", h.run.Seconds(), "s")
	m.set("harness.campaign_s", h.campaign.Seconds(), "s")
	m.set("harness.isolation_overhead_s", h.isolation.Seconds(), "s")
	m.set("harness.worker_starts", float64(h.starts), "count")
	m.set("harness.worker_crashes", float64(h.crashes), "count")
	m.set("harness.worker_cpu_s", h.workerCPU.Seconds(), "s")
	m.set("harness.supervisor_cpu_s", h.supervisorCPU.Seconds(), "s")
	m.set("harness.journal_kb", float64(h.journalBytes)/1024, "KiB")
}

// setSetup sets the workloads layer's set-up spans.
func setSetup(m metrics, su setup) {
	m.set("workloads.build_s", su.build, "s")
	m.set("workloads.image_s", su.image, "s")
	m.set("workloads.image_mb", float64(su.imageBytes)/(1<<20), "MiB")
}
