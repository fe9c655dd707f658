package core

import "vrsim/internal/cpu"

// ClassicRA models original runahead execution (Dundas & Mudge ICS'97,
// Mutlu et al. HPCA'03): on a window stall with an off-chip load at the
// head, the core checkpoints, pre-executes the future stream under the INV
// discipline for exactly the blocking load's latency, then *flushes the
// pipeline* and refetches from the checkpoint. The flush is the cost PRE
// later removed: runahead-mode work is thrown away and the window refills
// from empty, which this engine models by holding commit for a refill
// penalty after each interval.
//
// ClassicRA exists as a lineage baseline beyond the paper's evaluated set
// (the paper compares against PRE, which dominates it); the A7 ablation
// quantifies the flush cost the PRE paper reports.
type ClassicRA struct {
	cfg RAConfig

	active     bool
	blDone     uint64
	holdUntil  uint64
	w          walker
	skipBudget uint64

	Stats RAStats
}

// RAConfig tunes classic runahead.
type RAConfig struct {
	// FlushPenaltyCycles is the pipeline drain-and-refill cost paid at
	// every runahead exit (front-end depth plus window refill).
	FlushPenaltyCycles uint64
	// MaxInstrsPerActivation bounds one interval's pre-execution.
	MaxInstrsPerActivation uint64
	// MinInterval is the minimum remaining blocking-load latency worth
	// entering runahead for.
	MinInterval uint64
}

// DefaultRAConfig returns a Table 1-proportioned configuration: the flush
// penalty approximates front-end refill plus window ramp (15 front-end
// stages + 350/5 dispatch cycles).
func DefaultRAConfig() RAConfig {
	return RAConfig{
		FlushPenaltyCycles:     85,
		MaxInstrsPerActivation: 4096,
		MinInterval:            96,
	}
}

// RAStats counts classic-runahead activity.
type RAStats struct {
	Activations uint64
	Instrs      uint64
	LoadsIssued uint64
	FlushCycles uint64 // commit-hold cycles paid to pipeline flushes
}

// NewClassicRA returns a classic runahead engine.
func NewClassicRA(cfg RAConfig) *ClassicRA { return &ClassicRA{cfg: cfg} }

// Active reports whether a runahead interval is in progress.
func (p *ClassicRA) Active() bool { return p.active }

// HoldCommit implements cpu.Engine: the post-interval pipeline flush.
func (p *ClassicRA) HoldCommit() bool {
	hold := p.Holding()
	if hold {
		p.Stats.FlushCycles++
	}
	return hold
}

// Holding reports the flush commit hold without the stats side effect
// HoldCommit carries — the side-effect-free predicate the runtime
// invariant checker queries at every retirement.
func (p *ClassicRA) Holding() bool { return !p.active && p.holdUntil > 0 }

// EngineIdle implements cpu.EngineIdler: idle when no interval is active,
// no post-interval flush is pending (Tick clearing holdUntil is a state
// change the core must not skip), and the blocking load returns inside
// MinInterval so the activation trigger cannot fire anywhere in the window.
func (p *ClassicRA) EngineIdle(now, blDone uint64) bool {
	return !p.active && p.holdUntil == 0 && blDone < now+p.cfg.MinInterval
}

// Tick implements cpu.Engine.
func (p *ClassicRA) Tick(c *cpu.Core) {
	now := c.Cycle()
	if p.holdUntil > 0 && now >= p.holdUntil {
		p.holdUntil = 0
	}
	if !p.active {
		if p.holdUntil > 0 {
			return // still flushing
		}
		bl, ok := c.BlockedLoadAtHead()
		if !ok || !bl.Full || bl.Done < now+p.cfg.MinInterval {
			return
		}
		p.w = newWalker(c)
		p.blDone = bl.Done
		p.active = true
		p.Stats.Activations++
	}
	if now >= p.blDone {
		// Interval over: leave runahead and pay the flush.
		p.active = false
		p.holdUntil = now + p.cfg.FlushPenaltyCycles
		return
	}
	for budget := c.SpareIssueSlots(); budget > 0 && p.active; budget-- {
		p.step(c, now)
	}
}

func (p *ClassicRA) step(c *cpu.Core, now uint64) {
	in := p.w.fetch()
	p.w.steps++
	p.Stats.Instrs++
	if p.w.steps > p.cfg.MaxInstrsPerActivation || in.IsHalt() {
		p.active = false
		p.holdUntil = now + p.cfg.FlushPenaltyCycles
		return
	}
	if p.w.step(c, in, now) == stepLoad {
		p.Stats.LoadsIssued++
	}
}
