package harness

import (
	"testing"

	"vrsim/internal/workloads"
)

// TestSteadyStateAllocationFree pins the cycle core's zero-allocation
// steady state on the running simulator: after a 10k-instruction warm-up,
// a whole 5k-instruction window of every technique allocates nothing, and
// the runahead engines (PRE, VR, RA) activate inside that window, so the
// measurement covers their episodes as well as the plain core.
//
// The workloads are ones whose stores all land on pages their memory
// image already holds. A first store to a page the image never wrote
// faults in one 4 KiB page (mem.Backing.Store), a new one unless an
// earlier cell released one to the image, so camel, kangaroo, nas-is and
// randomaccess allocate up to one object per page they touch, under
// every technique: memory growth, not cycle-loop garbage.
func TestSteadyStateAllocationFree(t *testing.T) {
	const warm, window = 10_000, 5_000
	for _, name := range []string{"hj8", "hj2", "nas-cg"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range checkedTechniques() {
			in, err := newInstance(w, DefaultRunConfig(tech))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tech, err)
			}
			if err := in.c.Run(warm); err != nil {
				t.Fatalf("%s/%s: warm-up: %v", name, tech, err)
			}
			target := uint64(warm)
			var start uint64
			var runErr error
			// AllocsPerRun makes one unmeasured call before the measured
			// one; each call runs the next whole window.
			allocs := testing.AllocsPerRun(1, func() {
				start = activations(in)
				target += window
				if err := in.c.Run(target); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatalf("%s/%s: %v", name, tech, runErr)
			}
			if got := in.c.Stats.Committed; got < target {
				t.Fatalf("%s/%s: window ended at %d committed instructions, want %d", name, tech, got, target)
			}
			if allocs != 0 {
				t.Errorf("%s/%s: %v allocations in a %d-instruction steady-state window, want 0", name, tech, allocs, window)
			}
			engine := in.vr != nil || in.pre != nil || in.ra != nil
			if engine && activations(in) == start {
				t.Errorf("%s/%s: the engine never activated in the measured window", name, tech)
			}
		}
	}
}

// activations returns the instance's runahead-engine activation count (0
// for the techniques without an engine).
func activations(in *instance) uint64 {
	switch {
	case in.vr != nil:
		return in.vr.Stats.Activations
	case in.pre != nil:
		return in.pre.Stats.Activations
	case in.ra != nil:
		return in.ra.Stats.Activations
	}
	return 0
}
