package harness

import (
	"fmt"
	"testing"
)

// TestFastForwardMatchesStepping checks the core's idle-cycle
// fast-forward against plain stepping: every small workload under every
// technique, at ROB 128 and 350, runs once through Core.Run, which skips
// the windows idleWindow proves inert, and once through a bare Step loop
// with the same stop rule. The two must end in the same core, hierarchy
// and engine statistics, on the same cycle, with the same registers.
func TestFastForwardMatchesStepping(t *testing.T) {
	const budget = 20_000
	for _, w := range smallWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, tech := range checkedTechniques() {
				for _, rob := range []int{128, 350} {
					rc := DefaultRunConfig(tech)
					rc.CPU.ROBSize = rob
					name := fmt.Sprintf("%s/%s/rob%d", w.Name, tech, rob)
					run, err := newInstance(w, rc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := run.c.Run(budget); err != nil {
						t.Fatalf("%s: Run: %v", name, err)
					}
					step, err := newInstance(w, rc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					c := step.c
					for !c.Halted() && c.Stats.Committed < budget {
						c.Step()
					}
					compareInstances(t, name, run, step)
				}
			}
		})
	}
}

// compareInstances reports every end state in which the fast-forwarded
// run differs from the stepped one.
func compareInstances(t *testing.T, name string, run, step *instance) {
	t.Helper()
	if a, b := run.c.Cycle(), step.c.Cycle(); a != b {
		t.Errorf("%s: cycle %d with fast-forward, %d stepped", name, a, b)
	}
	if a, b := run.c.Stats, step.c.Stats; a != b {
		t.Errorf("%s: core stats differ\nfast-forward: %+v\nstepped:      %+v", name, a, b)
	}
	if a, b := run.hier.Stats, step.hier.Stats; a != b {
		t.Errorf("%s: hierarchy stats differ\nfast-forward: %+v\nstepped:      %+v", name, a, b)
	}
	if a, b := run.c.ArchRegs(), step.c.ArchRegs(); a != b {
		t.Errorf("%s: registers differ\nfast-forward: %v\nstepped:      %v", name, a, b)
	}
	var a, b any
	switch {
	case run.vr != nil:
		a, b = run.vr.Stats, step.vr.Stats
	case run.pre != nil:
		a, b = run.pre.Stats, step.pre.Stats
	case run.ra != nil:
		a, b = run.ra.Stats, step.ra.Stats
	}
	if a != b {
		t.Errorf("%s: engine stats differ\nfast-forward: %+v\nstepped:      %+v", name, a, b)
	}
}
