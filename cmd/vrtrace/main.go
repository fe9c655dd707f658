// Command vrtrace steps a simulation cycle by cycle and prints a compact
// pipeline trace: reorder-buffer occupancy, commit progress, stall causes
// and runahead-engine activity. Useful for seeing Vector Runahead's
// trigger/vectorize/terminate rhythm against the main thread's stalls.
//
// Usage:
//
//	vrtrace -workload camel -tech vr -cycles 2000 -every 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vrsim/internal/core"
	"vrsim/internal/cpu"
	"vrsim/internal/harness"
	"vrsim/internal/mem"
	"vrsim/internal/prefetch"
	"vrsim/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "camel", "workload name")
		tech     = flag.String("tech", "vr", "technique: ooo|pre|vr")
		cycles   = flag.Uint64("cycles", 2000, "cycles to trace (after warmup)")
		warmup   = flag.Uint64("warmup", 50_000, "instructions to run before tracing")
		every    = flag.Uint64("every", 10, "print one line every N cycles")
		disasm   = flag.Bool("disasm", false, "print the kernel's disassembly and exit")
	)
	flag.Parse()

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *disasm {
		fmt.Print(workloads.Disasm(w))
		return
	}

	cpuCfg, memCfg := cpu.DefaultConfig(), mem.DefaultConfig()
	vrCfg, preCfg := core.DefaultVRConfig(), core.DefaultPREConfig()
	for _, err := range []error{cpuCfg.Validate(), memCfg.Validate(), vrCfg.Validate(), preCfg.Validate()} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	data := w.Fresh()
	hier := mem.MustHierarchy(memCfg)
	hier.Data = data
	hier.SetPrefetcher(prefetch.NewStreamPrefetcher(16, 4))
	c := cpu.New(cpuCfg, w.Prog, data, hier)

	var vr *core.VR
	switch harness.Technique(*tech) {
	case harness.TechVR:
		vr = core.NewVR(vrCfg)
		vr.Bind(c)
	case harness.TechPRE:
		c.AttachEngine(core.NewPRE(preCfg))
	case harness.TechOoO:
	default:
		fmt.Fprintf(os.Stderr, "vrtrace: unsupported technique %q\n", *tech)
		os.Exit(1)
	}

	if err := c.Run(w.SkipInstrs + *warmup); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("cycle     committed  ROB  rob-bar                 mlp  state")
	start := c.Cycle()
	prevCommitted := c.Stats.Committed
	for c.Cycle() < start+*cycles && !c.Halted() {
		c.Step()
		if (c.Cycle()-start)%*every != 0 {
			continue
		}
		occ := c.ROBOccupancy()
		bar := strings.Repeat("#", occ*20/c.Config().ROBSize)
		mlp := hier.MSHR.InFlightAt(c.Cycle())
		state := "main"
		if vr != nil && vr.Active() {
			state = "vr-runahead"
		}
		if bl, ok := c.BlockedLoadAtHead(); ok && bl.Full {
			state += " +window-stall"
		}
		fmt.Printf("%-9d %-10d %-4d %-22s %-4d %s\n",
			c.Cycle()-start, c.Stats.Committed-prevCommitted, occ, bar, mlp, state)
	}

	fmt.Printf("\n%d cycles traced, %d instructions committed (IPC %.3f)\n",
		c.Cycle()-start, c.Stats.Committed-prevCommitted,
		float64(c.Stats.Committed-prevCommitted)/float64(c.Cycle()-start))
	names := []string{"none", "int-alu", "int-mul", "int-div", "fp-add", "fp-mul", "fp-div", "mem", "branch"}
	fmt.Printf("issued by port:")
	for fu, n := range c.Stats.FUIssued {
		if n > 0 && fu < len(names) {
			fmt.Printf(" %s=%d", names[fu], n)
		}
	}
	fmt.Println()
	if vr != nil {
		s := vr.Stats
		fmt.Printf("VR: %d activations, %d chains, %d gathers, %d vector uops\n",
			s.Activations, s.ChainsVectorized, s.GatherLoads, s.VectorUops)
	}
}
