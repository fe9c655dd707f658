package core

import "vrsim/internal/cpu"

// PREConfig tunes the Precise Runahead engine.
type PREConfig struct {
	// MaxInstrsPerActivation bounds a single runahead interval's work, a
	// safety net mirroring hardware watchdogs.
	MaxInstrsPerActivation uint64
	// MinInterval is the minimum remaining latency of the blocking load
	// for runahead to be worth entering (PRE targets off-chip misses).
	MinInterval uint64
}

// DefaultPREConfig returns the configuration used in the evaluation.
func DefaultPREConfig() PREConfig {
	return PREConfig{MaxInstrsPerActivation: 4096, MinInterval: 96}
}

// PREStats counts Precise Runahead activity.
type PREStats struct {
	Activations   uint64
	Instrs        uint64 // instructions pre-executed
	LoadsIssued   uint64 // runahead loads sent to the hierarchy
	LoadsPoisoned uint64 // loads skipped for an INV address
	StoresTouched uint64 // store lines prefetched
}

// PRE models Precise Runahead Execution (Naithani et al., HPCA 2020), the
// state-of-the-art scalar runahead baseline: on a full-ROB stall with a
// load miss at the head, it pre-executes the future instruction stream at
// front-end speed — limited to the issue slots the stalled main thread
// leaves free — for exactly the runahead interval (until the blocking load
// returns), without flushing the pipeline on exit.
//
// Like all invalidation-based runahead, a pre-executed load yields a usable
// value only on an L1 hit; chains of dependent misses therefore prefetch
// only their first level.
type PRE struct {
	cfg PREConfig

	active bool
	blDone uint64
	w      walker

	Stats PREStats
}

// NewPRE returns a PRE engine; attach it with core.AttachEngine.
func NewPRE(cfg PREConfig) *PRE { return &PRE{cfg: cfg} }

// HoldCommit implements cpu.Engine: PRE never delays the pipeline.
func (p *PRE) HoldCommit() bool { return false }

// Holding is the side-effect-free commit-hold predicate the runtime
// invariant checker queries; PRE never holds commit.
func (p *PRE) Holding() bool { return false }

// EngineIdle implements cpu.EngineIdler: idle when no interval is active
// and the blocking load returns inside MinInterval, so the activation
// trigger (bl.Done >= t+MinInterval, monotonically harder as t grows)
// cannot fire anywhere in the window.
func (p *PRE) EngineIdle(now, blDone uint64) bool {
	return !p.active && blDone < now+p.cfg.MinInterval
}

// Active reports whether a runahead interval is in progress.
func (p *PRE) Active() bool { return p.active }

// Tick implements cpu.Engine.
func (p *PRE) Tick(c *cpu.Core) {
	now := c.Cycle()
	if !p.active {
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
		p.active = false
		return
	}
	// PRE's instruction supply is bound by the front-end width the stalled
	// main thread is not using.
	for budget := c.SpareIssueSlots(); budget > 0 && p.active; budget-- {
		p.step(c, now)
	}
}

func (p *PRE) step(c *cpu.Core, now uint64) {
	in := p.w.fetch()
	p.w.steps++
	p.Stats.Instrs++
	if p.w.steps > p.cfg.MaxInstrsPerActivation || in.IsHalt() {
		p.active = false
		return
	}
	switch p.w.step(c, in, now) {
	case stepLoad:
		p.Stats.LoadsIssued++
	case stepPoisoned:
		p.Stats.LoadsPoisoned++
	case stepStore:
		p.Stats.StoresTouched++
	case stepNone:
	}
}
