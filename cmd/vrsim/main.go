// Command vrsim runs one workload under one technique and prints the
// collected metrics.
//
// Usage:
//
//	vrsim -workload camel -tech vr [-budget 1000000] [-rob 350] [-vl 64]
//	vrsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"vrsim/internal/harness"
	"vrsim/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "camel", "workload name (see -list)")
		tech     = flag.String("tech", "vr", "technique: ooo|pre|imp|vr|oracle")
		budget   = flag.Uint64("budget", 0, "instruction budget (0 = workload default)")
		maxB     = flag.Uint64("maxbudget", 1_000_000, "budget cap (0 = none)")
		rob      = flag.Int("rob", 0, "override ROB size (scales queues)")
		vl       = flag.Int("vl", 0, "override VR vector length")
		maxHold  = flag.Uint64("maxhold", 0, "override VR delayed-termination hold bound (cycles)")
		noDelay  = flag.Bool("no-delayed-termination", false, "disable VR delayed termination")
		noStride = flag.Bool("no-stride-pf", false, "disable the L1-D stride prefetcher")
		list     = flag.Bool("list", false, "list workloads and exit")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
	)
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		return
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rc := harness.DefaultRunConfig(harness.Technique(*tech))
	rc.Budget = *budget
	rc.MaxBudget = *maxB
	rc.DisableStridePrefetcher = *noStride
	if *rob > 0 {
		rc.CPU = rc.CPU.WithROB(*rob)
	}
	if *vl > 0 {
		rc.VR.VectorLength = *vl
	}
	if *noDelay {
		rc.VR.DelayedTermination = false
	}
	if *maxHold > 0 {
		rc.VR.MaxHoldCycles = *maxHold
	}

	if err := rc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	t0 := time.Now()
	r, err := harness.Run(w, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(t0)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("workload        %s\n", r.Workload)
	fmt.Printf("technique       %s\n", r.Tech)
	fmt.Printf("instructions    %d\n", r.Instrs)
	fmt.Printf("cycles          %d\n", r.Cycles)
	fmt.Printf("IPC             %.4f\n", r.IPC)
	fmt.Printf("MLP             %.2f\n", r.MLP)
	fmt.Printf("L1 miss rate    %.4f\n", r.L1MissRate)
	fmt.Printf("LLC MPKI        %.2f\n", r.LLCMPKI)
	fmt.Printf("mispredict rate %.4f\n", r.MispredictRate)
	fmt.Printf("ROB-full frac   %.3f\n", r.ROBFullFrac)
	fmt.Printf("load-stall frac %.3f\n", r.StallLoadFrac)
	fmt.Printf("held frac       %.4f\n", r.HeldFrac)
	fmt.Printf("off-chip        demand=%d runahead=%d hwpf=%d total=%d\n",
		r.OffChipDemand, r.OffChipRunahead, r.OffChipPrefetch, r.OffChipTotal)
	if r.Tech == harness.TechVR {
		v := r.VRStats
		fmt.Printf("VR              activations=%d chains=%d gathers=%d vuops=%d masked=%d delayed=%d\n",
			v.Activations, v.ChainsVectorized, v.GatherLoads, v.VectorUops, v.LanesMasked, v.DelayedCycles)
	}
	if r.Tech == harness.TechPRE {
		p := r.PREStats
		fmt.Printf("PRE             activations=%d instrs=%d loads=%d poisoned=%d\n",
			p.Activations, p.Instrs, p.LoadsIssued, p.LoadsPoisoned)
	}
	fmt.Printf("wall time       %s (%.0f sim-cycles/s)\n", wall.Round(time.Millisecond),
		float64(r.Cycles)/wall.Seconds())
}
