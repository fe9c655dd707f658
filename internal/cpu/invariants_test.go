package cpu

import (
	"errors"
	"strings"
	"testing"

	"vrsim/internal/isa"
	"vrsim/internal/mem"
)

func invLoopProgram() *isa.Program {
	b := isa.NewBuilder("inv-loop")
	b.Li(1, 0)
	b.Li(2, 200)
	b.Li(3, 0x2000)
	b.Label("loop")
	b.Ld(4, 3, 1, 3, 0)
	b.AddI(4, 4, 5)
	b.St(4, 3, 1, 3, 0)
	b.AddI(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestCheckInvariantsCleanDuringRun: a healthy core passes the structural
// sweep at every checking interrupt of a full run.
func TestCheckInvariantsCleanDuringRun(t *testing.T) {
	c, _ := newCore(invLoopProgram())
	checks := 0
	err := c.RunChecked(0, 16, func() error {
		checks++
		return c.CheckInvariants()
	})
	if err != nil {
		t.Fatalf("invariant sweep tripped on a healthy core: %v", err)
	}
	if checks == 0 {
		t.Fatal("check hook never fired")
	}
}

// TestCheckInvariantsCatchesCorruption white-boxes each invariant: take a
// mid-run core, corrupt one structure, and assert the sweep names it.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	midRun := func(t *testing.T) *Core {
		t.Helper()
		c, _ := newCore(invLoopProgram())
		// Run far enough that the window, queues and scheduler lists are
		// all populated: a consumer waits on an unissued producer, the
		// wake queue holds at least two entries, and the ROB has a free
		// (dead) slot.
		if err := c.Run(50); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000 && !c.halted; i++ {
			if c.count > 0 && c.count < c.cfg.ROBSize && c.wakeLen >= 2 && waitingSlot(c) >= 0 {
				return c
			}
			c.Step()
		}
		t.Skip("scheduler never populated; corruption test needs in-flight state")
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(c *Core)
		want    string
	}{
		{"head-range", func(c *Core) { c.head = -1 }, "ROB head"},
		{"occupancy", func(c *Core) { c.count = c.cfg.ROBSize + 1 }, "ROB occupancy"},
		{"iq-capacity", func(c *Core) { c.iqLen = c.cfg.IQSize + 1 }, "issue queue holds"},
		{"lq-count", func(c *Core) { c.lqCount++ }, "load queue count"},
		{"sq-count", func(c *Core) { c.sqCount-- }, "store queue count"},
		{"seq-order", func(c *Core) { c.rob[c.slot(1)].seq = c.rob[c.head].seq }, "ROB order broken"},
		{"iq-recount", func(c *Core) { c.iqLen++ }, "unissued instructions"},
		{"dead-slot", func(c *Core) {
			c.ready[c.readyLen] = c.slot(c.count)
			c.readyLen++
		}, "ready list references dead ROB slot"},
		{"wakeq-order", func(c *Core) { c.wakeq[0].at = c.wakeq[1].at + 1 }, "wake queue out of heap order"},
		{"deps-unlinked", func(c *Core) {
			e := &c.rob[waitingSlot(c)]
			for _, p := range e.srcRob[:e.nsrc] {
				if p != noProducer {
					c.rob[p].deps = noLink
				}
			}
		}, "link(s) name it"},
		{"pending-count", func(c *Core) { c.rob[waitingSlot(c)].pending++ }, "its pending count is"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := midRun(t)
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("pre-corruption state already invalid: %v", err)
			}
			tc.corrupt(c)
			err := c.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the corrupted structure (%q)", err, tc.want)
			}
		})
	}
}

// TestCheckInvariantsAllocFree: a sweep over a populated window allocates
// nothing, at the default ROB size and at the largest whose tallies stay
// on the stack, and a sweep every cycle leaves the run as it was.
func TestCheckInvariantsAllocFree(t *testing.T) {
	for _, rob := range []int{DefaultConfig().ROBSize, tallyOnStack} {
		cfg := DefaultConfig()
		cfg.ROBSize = rob
		core := func() *Core {
			data := mem.NewBacking()
			h := mem.MustHierarchy(mem.DefaultConfig())
			h.Data = data
			return New(cfg, invLoopProgram(), data, h)
		}

		c := core()
		if err := c.Run(300); err != nil {
			t.Fatal(err)
		}
		if c.count == 0 || c.halted {
			t.Fatalf("ROB %d: no window to sweep (count %d, halted %v)", rob, c.count, c.halted)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ROB %d: a sweep allocated %.1f times, want 0", rob, allocs)
		}

		checked, plain := core(), core()
		if err := checked.RunChecked(0, 1, checked.CheckInvariants); err != nil {
			t.Fatal(err)
		}
		if err := plain.Run(0); err != nil {
			t.Fatal(err)
		}
		if checked.Stats != plain.Stats || checked.ArchRegs() != plain.ArchRegs() {
			t.Errorf("ROB %d: sweeping every cycle changed the run: %+v, unchecked %+v", rob, checked.Stats, plain.Stats)
		}
	}
}

// waitingSlot returns the ROB slot of the oldest instruction waiting on an
// unissued producer, or -1.
func waitingSlot(c *Core) int {
	for i := 0; i < c.count; i++ {
		if s := c.slot(i); c.rob[s].pending > 0 {
			return s
		}
	}
	return -1
}

// TestCheckIntervalValidation: the RunChecked cadence is a validated
// config knob — zero would silently disable every periodic check.
func TestCheckIntervalValidation(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CheckInterval != DefaultCheckInterval {
		t.Fatalf("default CheckInterval = %d, want %d", cfg.CheckInterval, DefaultCheckInterval)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cfg.CheckInterval = 0
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("CheckInterval=0 accepted (err=%v); it would disable deadlines and checking", err)
	}
	cfg.CheckInterval = maxCheckInterval + 1
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("CheckInterval over guard rail accepted (err=%v)", err)
	}
}

// TestFULatencyValidation: every functional-unit class an instruction can
// issue to must take at least one cycle; FUNone (Nop, Halt) needs no unit.
func TestFULatencyValidation(t *testing.T) {
	for fu := isa.FUNone + 1; fu < isa.NumFUClasses; fu++ {
		cfg := DefaultConfig()
		cfg.FULatency[fu] = 0
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("FULatency[%d]=0 accepted (err=%v); a result would be ready in its issue cycle", fu, err)
		}
	}
	cfg := DefaultConfig()
	cfg.FULatency[isa.FUNone] = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("FULatency[FUNone]=0 rejected: %v", err)
	}
}

// TestCoreFaultsFireOnce: every fault kind latches after its single shot —
// exactly one corrupted event, one dropped writeback, one doubled commit.
func TestCoreFaultsFireOnce(t *testing.T) {
	prog := invLoopProgram()

	run := func(f FaultConfig) (events []CommitEvent, c *Core) {
		data := mem.NewBacking()
		h := mem.MustHierarchy(mem.DefaultConfig())
		h.Data = data
		for i := uint64(0); i < 256; i++ {
			data.Store(0x2000+8*i, 10+i)
		}
		cfg := DefaultConfig()
		cfg.Faults = f
		c = New(cfg, prog, data, h)
		c.CommitObserver = func(ev CommitEvent) { events = append(events, ev) }
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		return events, c
	}

	clean, cc := run(FaultConfig{})

	t.Run("corrupt", func(t *testing.T) {
		events, _ := run(FaultConfig{CorruptValueAt: 20})
		if len(events) != len(clean) {
			t.Fatalf("event count changed: %d vs %d", len(events), len(clean))
		}
		diffs := 0
		for i := range events {
			if events[i].Val != clean[i].Val {
				diffs++
				if got := events[i].Val ^ clean[i].Val; got != corruptMask {
					t.Errorf("corruption mask = %#x, want %#x", got, uint64(corruptMask))
				}
			}
		}
		if diffs != 1 {
			t.Errorf("corruption visible at %d commits, want exactly 1 (single-shot latch)", diffs)
		}
	})

	t.Run("drop", func(t *testing.T) {
		events, _ := run(FaultConfig{DropWritebackAt: 20})
		diffs := 0
		for i := range events {
			if events[i].Val != clean[i].Val {
				diffs++
			}
		}
		// The dropped writeback leaves a stale register: the faulted commit
		// reports the stale value, and commits consuming it afterwards may
		// differ too — but at least the faulted one must.
		if diffs == 0 {
			t.Error("dropped writeback left no visible trace in the commit stream")
		}
	})

	t.Run("phantom", func(t *testing.T) {
		events, c := run(FaultConfig{PhantomCommitAt: 20})
		if len(events) != len(clean)+1 {
			t.Fatalf("phantom commit produced %d events, want %d", len(events), len(clean)+1)
		}
		if events[20].Seq != events[19].Seq {
			t.Errorf("phantom event at 20 has seq %d, want a duplicate of %d", events[20].Seq, events[19].Seq)
		}
		if c.Stats.Committed != cc.Stats.Committed+1 {
			t.Errorf("Committed = %d, want %d (one extra)", c.Stats.Committed, cc.Stats.Committed+1)
		}
	})
}

// TestFaultsDisabledZeroImpact: the zero FaultConfig must leave the
// commit stream and statistics bit-identical to a build that predates
// fault injection.
func TestFaultsDisabledZeroImpact(t *testing.T) {
	if (FaultConfig{}).Enabled() {
		t.Fatal("zero FaultConfig reports enabled")
	}
	run := func() (uint64, uint64) {
		c, _ := newCore(invLoopProgram())
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		return c.Stats.Cycles, c.Stats.Committed
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Errorf("runs differ: %d/%d vs %d/%d", c1, i1, c2, i2)
	}
}
