package main

import (
	"runtime/pprof"
	"testing"
	"time"

	"vrsim/internal/isa"
	"vrsim/internal/workloads"
)

func TestFoldAttributesInnermostLayer(t *testing.T) {
	cases := []struct {
		name   string
		frames []string
		layer  string
		stages []string
	}{
		{
			name: "inlined isa helper counts for isa, under the issue stage",
			frames: []string{
				"vrsim/internal/isa.Instr.FU",
				"vrsim/internal/cpu.(*Core).tryIssue",
				"vrsim/internal/cpu.(*Core).issue",
				"vrsim/internal/cpu.(*Core).Step",
				"vrsim/internal/cpu.(*Core).RunChecked",
				"vrsim/internal/harness.(*instance).execute",
				"main.runPass",
			},
			layer: "isa", stages: []string{"cpu.issue_s"},
		},
		{
			name: "runtime map lookup counts for the backing store that called it",
			frames: []string{
				"runtime.mapaccess2_fast64",
				"vrsim/internal/mem.(*Backing).Load",
				"vrsim/internal/mem.(*Hierarchy).Access",
				"vrsim/internal/cpu.(*Core).tryIssue",
				"vrsim/internal/cpu.(*Core).issue",
			},
			layer: "mem", stages: []string{"mem.access_s", "cpu.issue_s"},
		},
		{
			name:   "GC worker with no simulator frame counts for runtime",
			frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
			layer:  "runtime",
		},
		{
			name: "commit stage and engine tick",
			frames: []string{
				"vrsim/internal/core.(*VR).gather",
				"vrsim/internal/core.(*VR).Tick",
				"vrsim/internal/cpu.(*Core).Step",
			},
			layer: "core", stages: []string{"core.tick_s"},
		},
		{
			name: "commit stage retiring through the oracle's observer",
			frames: []string{
				"vrsim/internal/oracle.(*Checker).OnCommit",
				"vrsim/internal/cpu.(*Core).retire",
				"vrsim/internal/cpu.(*Core).commit",
			},
			layer: "oracle", stages: []string{"cpu.commit_s"},
		},
		{
			name: "packages outside the layer list go to the nearest layer caller",
			frames: []string{
				"vrsim/internal/analysis.Load",
				"vrsim/internal/graph.Kronecker",
				"vrsim/internal/workloads.BFS",
			},
			layer: "graph",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := fold([]sample{{frames: c.frames, ns: 10_000_000}})
			if got := f.self[c.layer]; got != 10*time.Millisecond {
				t.Errorf("self[%s] = %v, want 10ms (folding %v)", c.layer, got, f.self)
			}
			for _, st := range stages {
				want := time.Duration(0)
				for _, s := range c.stages {
					if s == st.metric {
						want = 10 * time.Millisecond
					}
				}
				if got := f.stage[st.metric]; got != want {
					t.Errorf("stage %s = %v, want %v", st.metric, got, want)
				}
			}
		})
	}
}

// TestDecodeRealProfile profiles the interpreter and checks that the
// decoded samples fold into self times that sum to the profiled total,
// most of it in the isa layer.
func TestDecodeRealProfile(t *testing.T) {
	w := workloads.NASIS(12, 2000)
	p, err := startProfile()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	defer pprof.StopCPUProfile()
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		it := isa.NewInterp(w.Prog, w.Fresh())
		for it.Step() {
		}
	}
	p.finish()
	f, err := p.folded()
	if err != nil {
		t.Fatal(err)
	}
	if f.total == 0 {
		t.Skip("no samples collected")
	}
	var sum time.Duration
	for _, d := range f.self {
		sum += d
	}
	if sum != f.total {
		t.Errorf("self times sum to %v, profile total %v", sum, f.total)
	}
	if f.self["isa"] == 0 {
		t.Errorf("no time attributed to isa: %v", f.self)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
	if err := fields([]byte{0x0a, 0x05, 0x01}, func(int, uint64, uint64, []byte) error { return nil }); err == nil {
		t.Error("fields accepted a length past the end of the message")
	}
}
