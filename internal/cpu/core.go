package cpu

import (
	"errors"
	"fmt"

	"vrsim/internal/branch"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
)

// ErrNoProgress reports a tripped forward-progress watchdog: no
// instruction committed for Config.WatchdogCycles consecutive cycles.
// Callers distinguish hangs from slow runs with errors.Is.
var ErrNoProgress = errors.New("cpu: no forward progress")

// Engine is a runahead engine attached to the core. The core calls Tick
// once at the end of every cycle; the engine observes core state (stalls,
// register context, spare issue bandwidth) and issues its own accesses into
// the shared memory hierarchy. HoldCommit lets an engine model Vector
// Runahead's delayed termination, which keeps the pipeline from resuming
// commit until the vectorized chain finishes issuing.
type Engine interface {
	Tick(c *Core)
	HoldCommit() bool
}

// EngineIdler is optionally implemented by engines that can prove
// inertness to the core's idle-cycle fast-forward: given a core stalled on
// a blocked load at the ROB head whose data returns at blDone, EngineIdle
// reports that every Tick with a cycle in [now, blDone) is guaranteed to
// observe nothing, issue nothing and mutate nothing (including its own
// statistics). The guarantee must be monotone in the cycle — once idle for
// the window, idle for all of it — because the core skips the Ticks
// entirely. Engines that cannot prove this simply do not implement the
// interface and the core never fast-forwards around them.
type EngineIdler interface {
	EngineIdle(now, blDone uint64) bool
}

// StallCause classifies cycles in which the commit stage made no progress.
type StallCause uint8

// Stall causes.
const (
	StallNone     StallCause = iota // at least one instruction committed
	StallEmpty                      // ROB empty (front-end starvation)
	StallLoad                       // head is a load waiting on memory
	StallExec                       // head still executing (non-load)
	StallNotIssue                   // head waiting to issue (deps/ports)
	StallHeld                       // commit held by the runahead engine
	NumStallCauses
)

func (s StallCause) String() string {
	switch s {
	case StallNone:
		return "none"
	case StallEmpty:
		return "frontend"
	case StallLoad:
		return "load"
	case StallExec:
		return "exec"
	case StallNotIssue:
		return "issue"
	case StallHeld:
		return "held"
	}
	return "?"
}

// CommitEvent describes one architectural retirement, delivered to
// Core.CommitObserver after the instruction's effects were applied. It is
// the unit of comparison for the cosimulation oracle: an in-order
// reference model consuming these events in sequence must agree on every
// field, or the timing core has silently computed the wrong program.
type CommitEvent struct {
	// Seq is the instruction's dispatch sequence number. Committed
	// sequence numbers are strictly increasing but not contiguous
	// (squashed instructions consume numbers without retiring).
	Seq uint64
	// Cycle is the commit cycle.
	Cycle uint64
	// PC is the instruction's program counter.
	PC int
	// In is the retired instruction.
	In isa.Instr
	// WroteReg reports a register writeback; Dst and Val carry the
	// destination and the register file's value after the write.
	WroteReg bool
	Dst      isa.Reg
	// Val is the destination value for register writers, or the stored
	// value for stores.
	Val uint64
	// Addr is the effective address for loads and stores.
	Addr uint64
}

// Stats aggregates a run's performance counters.
type Stats struct {
	Cycles    uint64
	Committed uint64
	CommittedLoads,
	CommittedStores,
	CommittedBranches uint64
	Mispredicts uint64
	Fetched     uint64
	Squashed    uint64
	// MemOrderViolations counts loads squashed for reading memory before
	// an older store to the same word resolved.
	MemOrderViolations uint64

	// CommitStall counts no-commit cycles by cause.
	CommitStall [NumStallCauses]uint64
	// ROBFullCycles counts cycles beginning with a full reorder buffer.
	ROBFullCycles uint64
	// ROBFullLoadMiss counts the subset of full-ROB cycles with an
	// outstanding load miss at the head — the classic runahead trigger.
	ROBFullLoadMiss uint64
	// DispatchBlockedROB counts dispatch attempts rejected by a full ROB.
	DispatchBlockedROB uint64
	// ResourceStallCycles counts cycles in which dispatch was blocked by
	// any full back-end resource (ROB, IQ, LQ or SQ) — the generalized
	// "window cannot grow" condition runahead techniques key off. With
	// load-dense kernels the load queue often saturates before the ROB.
	ResourceStallCycles uint64
	// ResourceStallLoadMiss counts resource-stall cycles with an
	// outstanding load miss at the ROB head: the runahead trigger.
	ResourceStallLoadMiss uint64
	// FUIssued counts instructions issued per functional-unit class, for
	// port-utilization reporting.
	FUIssued [isa.NumFUClasses]uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per committed branch.
func (s *Stats) MispredictRate() float64 {
	if s.CommittedBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CommittedBranches)
}

const noProducer = -1

// noLink terminates a dependent list (see Core).
const noLink = -1

// wakeup is a wake-queue entry: a ROB slot and the cycle it is due.
type wakeup struct {
	at   uint64
	slot int
}

// fetchSlot is a fetched instruction waiting in the front queue. It
// holds the instruction's pc, not the instruction: dispatch re-reads the
// program, which no run changes.
type fetchSlot struct {
	pc        int
	predTaken bool
	hist      uint64 // GHR snapshot at fetch
	readyAt   uint64 // cycle the slot clears the front-end pipeline
}

type robEntry struct {
	seq       uint64
	pc        int
	in        isa.Instr
	predTaken bool
	hist      uint64 // GHR snapshot at fetch (squash recovery)

	issued bool
	done   bool
	// readyCycle is when the result (or resolution) is available.
	readyCycle uint64

	val       uint64 // result; for stores, the value to write
	addr      uint64 // effective address for memory ops
	addrReady bool
	valReady  bool // stores: value captured

	// Source arrays are sized 4 (one past the 3-source maximum) so index
	// expressions can be masked with &3, which the compiler proves in
	// bounds — the hot operand path carries no bounds checks.
	srcRob [4]int
	srcSeq [4]uint64
	srcReg [4]isa.Reg
	nsrc   int

	// Scheduler state (see Core): the required sources whose producer
	// has not issued, the latest ready cycle among the producers that
	// have, and the head of this entry's own dependent list.
	pending int
	wakeAt  uint64
	deps    int
}

// Core is one simulated out-of-order core bound to a program, a functional
// backing store and a timing hierarchy.
//
// Memory disambiguation is speculative, as in modern cores: loads issue
// past older stores with unresolved addresses, forwarding from resolved
// matching stores; a store that later resolves to a word an already-issued
// younger load read triggers an ordering violation — the load and
// everything younger squash and refetch.
//
// Every queue the cycle loop touches — the front queue, the reorder
// buffer, the issue queue, the store ring and the issued-load set — is a
// fixed-capacity structure sized from the validated configuration at
// construction, so the steady state allocates nothing.
type Core struct {
	cfg  Config
	prog *isa.Program
	data *mem.Backing
	hier *mem.Hierarchy
	pred branch.Predictor

	engine Engine
	idler  EngineIdler // engine's idle-window proof, nil if not provided

	// LoadObserver, when set, is invoked for every demand load the main
	// thread issues (including wrong-path ones, as in hardware). Vector
	// Runahead trains its striding-load detector through it.
	LoadObserver func(pc int, addr uint64)

	// CommitObserver, when set, is invoked for every architectural
	// retirement, after its effects (register writeback, memory update)
	// have been applied. The cosimulation oracle validates the commit
	// stream through it; golden-trace capture records through it. When
	// nil the retire path pays one predictable branch and nothing else.
	CommitObserver func(ev CommitEvent)

	cycle     uint64
	statsBase uint64 // cycle at the last ResetStats (ROI support)
	nextSeq   uint64
	halted    bool

	// Front end: a fixed ring of decoded slots (capacity FetchBufSize).
	fetchPC      int
	fetchStopped bool
	frontQ       []fetchSlot // power-of-two capacity >= FetchBufSize
	fqHead       int
	fqLen        int
	ghr          uint64 // speculative global history register

	// Reorder buffer (ring).
	rob   []robEntry
	head  int
	count int

	// Scheduler state over ring slots. Wakeup and select are
	// event-driven, so no per-cycle work grows with the number of
	// waiting instructions. iqLen counts the dispatched instructions
	// that have not issued, and each waits in exactly one place:
	//
	//   - on its producers: robEntry.pending counts the required sources
	//     (a store's address sources only) whose producer has not
	//     issued, and each such source is linked into that producer's
	//     dependent list — robEntry.deps, threaded through depNext
	//     (capacity 4×ROBSize), link = consumer slot<<2 | source index;
	//   - in wakeq, a min-heap (capacity ROBSize) keyed by the cycle its
	//     last operand is ready, final once every producer has issued;
	//   - in ready, the program-ordered list select walks (capacity
	//     IQSize).
	//
	// A store that issues before its value is ready waits for the value
	// the same way: a link on the value's producer until that issues,
	// then a wakeq entry, whose due cycle captures the value.
	//
	// stores is a ring in program order (capacity SQSize): commits pop
	// the front, squashes drop the tail, so maintenance is O(1) while
	// store-forwarding keeps its age order. ldIssued is an unordered set
	// (capacity LQSize) with ldPos mapping each ROB slot to its
	// position, for O(1) removal in any order — loads leave at commit in
	// program order but enter in issue order, so an ordered list would
	// need a scan per removal.
	iqLen    int
	ready    []int
	readyLen int
	wakeq    []wakeup
	wakeLen  int
	depNext  []int
	stores   []int // power-of-two capacity >= SQSize
	stHead   int
	stLen    int
	ldIssued []int
	ldLen    int
	ldPos    []int // ROB slot -> index in ldIssued, or noProducer
	lqCount  int
	sqCount  int

	// storeDropScans counts store retirements that missed the ring front.
	// Stores retire in program order, so this stays zero by construction;
	// the fallback scan keeps an impossible mismatch from corrupting the
	// ring, and tests pin the counter to prove the O(1) claim.
	storeDropScans uint64

	// Rename state: architectural register -> producing ROB slot.
	renameRob [isa.NumRegs]int
	renameSeq [isa.NumRegs]uint64

	// Committed architectural state.
	archRegs [isa.NumRegs]uint64

	// Committed-value capture per ROB slot (see operand()).
	commitSeq []uint64
	commitV   []uint64

	fuUsed          [isa.NumFUClasses]int
	issuedThisCycle int
	squashEpoch     uint64 // bumped by every squash; detects mid-issue flushes
	dispatchBlocked bool   // a back-end resource rejected dispatch this cycle

	// Core-level fault injection state (see FaultConfig): a commit
	// counter that never resets, and a fired latch per fault kind.
	faultCommits uint64
	faultFired   [3]bool

	Stats Stats
}

// nextPow2 returns the smallest power of two >= n (n >= 1): the rings are
// oversized to power-of-two capacities so index wrap is a single mask.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a core over the program, backing store and hierarchy.
func New(cfg Config, prog *isa.Program, data *mem.Backing, hier *mem.Hierarchy) *Core {
	c := &Core{
		cfg:      cfg,
		prog:     prog,
		data:     data,
		hier:     hier,
		pred:     cfg.predictor(),
		rob:      make([]robEntry, cfg.ROBSize),
		frontQ:   make([]fetchSlot, nextPow2(cfg.FetchBufSize)),
		ready:    make([]int, cfg.IQSize),
		wakeq:    make([]wakeup, cfg.ROBSize),
		depNext:  make([]int, 4*cfg.ROBSize),
		stores:   make([]int, nextPow2(cfg.SQSize)),
		ldIssued: make([]int, cfg.LQSize),
		ldPos:    make([]int, cfg.ROBSize),
	}
	c.commitSeq = make([]uint64, cfg.ROBSize)
	c.commitV = make([]uint64, cfg.ROBSize)
	for i := range c.renameRob {
		c.renameRob[i] = noProducer
	}
	for i := range c.ldPos {
		c.ldPos[i] = noProducer
	}
	return c
}

// AttachEngine connects a runahead engine. Pass nil to detach. Engines
// additionally implementing EngineIdler opt in to idle-cycle fast-forward.
func (c *Core) AttachEngine(e Engine) {
	c.engine = e
	c.idler, _ = e.(EngineIdler)
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Hier returns the shared memory hierarchy.
func (c *Core) Hier() *mem.Hierarchy { return c.hier }

// Data returns the functional backing store.
func (c *Core) Data() *mem.Backing { return c.data }

// Program returns the program under execution.
func (c *Core) Program() *isa.Program { return c.prog }

// Predictor returns the core's branch predictor (engines use Predict only,
// which is side-effect-free, to walk the predicted future path).
func (c *Core) Predictor() branch.Predictor { return c.pred }

// GHR returns the current speculative global history register; runahead
// engines seed their local future history from it.
func (c *Core) GHR() uint64 { return c.ghr }

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Halted reports whether a Halt has committed.
func (c *Core) Halted() bool { return c.halted }

// ArchRegs returns the committed architectural register file.
func (c *Core) ArchRegs() [isa.NumRegs]uint64 { return c.archRegs }

// SetArchReg initializes a committed register before the run starts.
func (c *Core) SetArchReg(r isa.Reg, v uint64) { c.archRegs[r] = v }

// SpareIssueSlots returns how many of this cycle's issue slots the main
// thread left unused; runahead engines confine themselves to these.
func (c *Core) SpareIssueSlots() int {
	n := c.cfg.Width - c.issuedThisCycle
	if n < 0 {
		return 0
	}
	return n
}

// ROBFull reports whether the reorder buffer is at capacity.
func (c *Core) ROBFull() bool { return c.count == c.cfg.ROBSize }

// ROBOccupancy returns the number of in-flight instructions.
func (c *Core) ROBOccupancy() int { return c.count }

// FetchPC returns the next PC the front end will fetch.
func (c *Core) FetchPC() int { return c.fetchPC }

// HeadPC returns the PC of the reorder-buffer head, or -1 when empty —
// the instruction a hang diagnosis usually points at.
func (c *Core) HeadPC() int {
	if c.count == 0 {
		return -1
	}
	return c.rob[c.head].pc
}

// IQLen returns the current issue-queue occupancy.
func (c *Core) IQLen() int { return c.iqLen }

// LQOccupancy returns the number of in-flight loads.
func (c *Core) LQOccupancy() int { return c.lqCount }

// SQOccupancy returns the number of in-flight stores.
func (c *Core) SQOccupancy() int { return c.sqCount }

// slot maps an in-ROB ordinal (0 = head) to a ring index.
func (c *Core) slot(i int) int { return (c.head + i) % c.cfg.ROBSize }

// ordinal maps a ring index back to its in-ROB position.
func (c *Core) ordinal(slot int) int {
	return (slot - c.head + c.cfg.ROBSize) % c.cfg.ROBSize
}

// storeAt returns the ROB slot of the i-th oldest in-flight store. The
// ring is indexed through a length-derived mask behind an emptiness
// guard so the compiler can prove the access in bounds (the guard is
// dead: the ring is never zero-capacity).
func (c *Core) storeAt(i int) int {
	s := c.stores
	if len(s) == 0 {
		return 0
	}
	return s[uint(c.stHead+i)&uint(len(s)-1)]
}

// BlockedLoad describes the load miss blocking the ROB head, if any.
type BlockedLoad struct {
	PC   int
	Done uint64 // cycle its data returns
	// Full reports that the back end can no longer extend the window: the
	// ROB is full or dispatch was rejected by a full IQ/LQ/SQ this cycle.
	Full bool
}

// BlockedLoadAtHead reports whether the head of the ROB is an issued load
// still waiting on memory — together with Full, the runahead trigger
// condition.
func (c *Core) BlockedLoadAtHead() (BlockedLoad, bool) {
	if c.count == 0 {
		return BlockedLoad{}, false
	}
	h := &c.rob[c.head]
	if h.in.IsLoad() && h.issued && h.readyCycle > c.cycle {
		full := c.ROBFull() || c.dispatchBlocked
		return BlockedLoad{PC: h.pc, Done: h.readyCycle, Full: full}, true
	}
	return BlockedLoad{}, false
}

// RegContext is an approximate register snapshot for runahead
// pre-execution: committed state plus completed in-flight results; values
// produced by still-pending instructions (for example, outstanding loads)
// are marked invalid, matching runahead's INV propagation.
type RegContext struct {
	Regs  [isa.NumRegs]uint64
	Valid [isa.NumRegs]bool
}

// ApproxContext builds the runahead register context and the PC to
// pre-execute from (the oldest unfinished instruction, normally the
// blocking load at the ROB head).
func (c *Core) ApproxContext() (ctx RegContext, startPC int) {
	ctx.Regs = c.archRegs
	for i := range ctx.Valid {
		ctx.Valid[i] = true
	}
	startPC = c.fetchPC
	if c.count > 0 {
		startPC = c.rob[c.head].pc
	}
	for i := 0; i < c.count; i++ {
		e := &c.rob[c.slot(i)]
		if !e.in.WritesDst() {
			continue
		}
		if e.done && e.readyCycle <= c.cycle {
			ctx.Regs[e.in.Dst] = e.val
			ctx.Valid[e.in.Dst] = true
		} else {
			ctx.Valid[e.in.Dst] = false
		}
	}
	return ctx, startPC
}

// Step advances the simulation one cycle.
func (c *Core) Step() {
	if c.ROBFull() {
		c.Stats.ROBFullCycles++
		if bl, ok := c.BlockedLoadAtHead(); ok && bl.Full {
			c.Stats.ROBFullLoadMiss++
		}
	}
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()
	if c.dispatchBlocked {
		c.Stats.ResourceStallCycles++
		if bl, ok := c.BlockedLoadAtHead(); ok && bl.Done > c.cycle {
			c.Stats.ResourceStallLoadMiss++
		}
	}
	if c.engine != nil {
		c.engine.Tick(c)
	}
	c.cycle++
	//vrlint:allow cyclesafe -- statsBase is a snapshot of c.cycle taken in ResetStats, always <= c.cycle
	c.Stats.Cycles = c.cycle - c.statsBase
}

// ResetStats zeroes the performance counters while preserving all
// microarchitectural state — the region-of-interest boundary: run the
// initialization phase, reset, then measure the steady state over warm
// caches and predictors.
func (c *Core) ResetStats() {
	c.statsBase = c.cycle
	c.Stats = Stats{}
}

// Run simulates until the program halts, `budget` instructions have
// committed (0 = unlimited), the configured cycle limit trips, or the
// forward-progress watchdog fires (ErrNoProgress); limit violations are
// reported as errors.
func (c *Core) Run(budget uint64) error {
	return c.RunChecked(budget, 0, nil)
}

// RunChecked is Run with a periodic interrupt hook: every `every` cycles
// the check function is consulted, and a non-nil return aborts the run
// with that error. The supervision layer uses it to impose wall-clock
// deadlines and cancellation on a cell without the core itself ever
// reading a clock (which would break simulator determinism); the hot loop
// pays one nil test plus a counter per cycle, and nothing at all through
// Run. A nil check (or every == 0) disables the hook.
//
// When the core can prove a span of cycles inert — stalled on the load at
// the ROB head with nothing ready to issue, nothing due to wake, and the
// fetch unit and the engine quiescent — it fast-forwards the clock across
// the span instead of stepping it (see idleWindow). The skip is bounded
// so the periodic hook, the watchdog and the cycle limit all fire at
// exactly the cycles they would have under stepping; a run with
// fast-forward is byte-identical to one without.
func (c *Core) RunChecked(budget, every uint64, check func() error) error {
	lastCommitted := c.Stats.Committed
	lastProgress := c.cycle
	var tick uint64
	for !c.halted && (budget == 0 || c.Stats.Committed < budget) {
		if c.cfg.MaxCycles != 0 && c.cycle >= c.cfg.MaxCycles {
			return fmt.Errorf("cpu: cycle limit %d exceeded at pc=%d (committed %d)",
				c.cfg.MaxCycles, c.fetchPC, c.Stats.Committed)
		}
		if c.cfg.WatchdogCycles != 0 {
			if c.Stats.Committed != lastCommitted {
				lastCommitted = c.Stats.Committed
				lastProgress = c.cycle
			} else if c.cycle >= lastProgress && c.cycle-lastProgress >= c.cfg.WatchdogCycles {
				return fmt.Errorf("%w: no commit in %d cycles (cycle %d, fetch pc=%d, committed %d)",
					ErrNoProgress, c.cfg.WatchdogCycles, c.cycle, c.fetchPC, c.Stats.Committed)
			}
		}
		if check != nil && every != 0 {
			tick++
			if tick >= every {
				tick = 0
				if err := check(); err != nil {
					return err
				}
			}
		}
		if skip := c.idleWindow(); skip > 1 {
			// Clamp the skip so every externally visible event — the
			// cycle limit, the watchdog and the periodic hook — still
			// fires at exactly the cycle stepping would have fired it.
			if c.cfg.MaxCycles != 0 {
				if m := c.cfg.MaxCycles - c.cycle; skip > m {
					skip = m
				}
			}
			if c.cfg.WatchdogCycles != 0 && c.cycle >= lastProgress {
				elapsed := c.cycle - lastProgress
				if c.cfg.WatchdogCycles >= elapsed {
					if w := c.cfg.WatchdogCycles - elapsed; skip > w {
						skip = w
					}
				}
			}
			if check != nil && every != 0 {
				if e := every - tick; skip > e {
					skip = e
				}
			}
			if skip > 1 {
				c.skipIdle(skip)
				tick += skip - 1
				continue
			}
		}
		c.Step()
	}
	return nil
}

// idleWindow returns how many upcoming cycles are provably inert — the
// core is stalled on an outstanding load at the ROB head and no pipeline
// stage, the fetch unit or the engine can change any state before the
// window ends — or 0 when idleness cannot be proven. The preconditions:
//
//   - the ROB head is an issued load whose data has not returned;
//   - the ready list is empty, so select has nothing to try. Every other
//     unissued instruction waits on a producer that cannot issue before
//     something leaves the wake queue, or in the wake queue itself;
//   - fetch is quiescent: stopped at a Halt, or the front queue is full;
//   - the attached engine proves its own inertness via EngineIdler (a
//     detached engine is trivially inert).
//
// The window ends at the earliest of three cycles: the head load's
// return, the wake queue's earliest entry (an instruction joining the
// ready list, or a store capturing its value), and the cycle the
// front-queue head clears the front-end pipeline into a dispatch stage
// that would accept it. skipIdle then replays exactly the per-cycle
// statistics Step would have recorded across the window.
func (c *Core) idleWindow() uint64 {
	if c.count == 0 || c.readyLen != 0 {
		return 0
	}
	h := &c.rob[c.head]
	if !h.in.IsLoad() || !h.issued || !h.done || h.readyCycle <= c.cycle {
		return 0
	}
	if c.engine != nil && (c.idler == nil || !c.idler.EngineIdle(c.cycle, h.readyCycle)) {
		return 0
	}
	if !c.fetchStopped && c.fqLen < c.cfg.FetchBufSize {
		return 0
	}
	end := h.readyCycle
	if q := c.wakeq; c.wakeLen > 0 && len(q) > 0 && q[0].at < end {
		end = q[0].at
	}
	if q := c.frontQ; c.fqLen > 0 && len(q) > 0 {
		fs := &q[uint(c.fqHead)&uint(len(q)-1)]
		if !c.dispatchWouldBlock(c.prog.At(fs.pc)) && fs.readyAt < end {
			end = fs.readyAt
		}
	}
	if end <= c.cycle {
		return 0
	}
	return end - c.cycle
}

// dispatchWouldBlock reports whether dispatch would reject the
// instruction for a full back-end resource: the ROB, the issue queue (for
// everything but Nop and Halt, which never enter it), the load queue or
// the store queue. dispatch and skipIdle both decide through it, so a
// skipped window records exactly the rejections stepping would.
func (c *Core) dispatchWouldBlock(in *isa.Instr) bool {
	switch {
	case c.count == c.cfg.ROBSize:
		return true
	case c.iqLen == c.cfg.IQSize && in.FU() != isa.FUNone:
		return true
	case in.IsLoad() && c.lqCount == c.cfg.LQSize:
		return true
	case in.IsStore() && c.sqCount == c.cfg.SQSize:
		return true
	}
	return false
}

// skipIdle advances the clock k cycles across a window idleWindow proved
// inert, bulk-recording exactly the statistics k Steps would have: the
// commit stage stalls on the head load every cycle, the full-ROB counters
// accrue when the window is ROB-bound, and the dispatch-blocked counters
// accrue from the cycle the front-queue head clears the front end into a
// pinned dispatch stage.
func (c *Core) skipIdle(k uint64) {
	if c.ROBFull() {
		c.Stats.ROBFullCycles += k
		c.Stats.ROBFullLoadMiss += k
	}
	c.Stats.CommitStall[StallLoad] += k
	for i := range c.fuUsed {
		c.fuUsed[i] = 0
	}
	c.issuedThisCycle = 0
	blocked := false
	q := c.frontQ
	if c.fqLen > 0 && len(q) > 0 && c.dispatchWouldBlock(c.prog.At(q[uint(c.fqHead)&uint(len(q)-1)].pc)) {
		from := c.cycle
		if ra := q[uint(c.fqHead)&uint(len(q)-1)].readyAt; ra > from {
			from = ra
		}
		if end := c.cycle + k; end > from {
			d := end - from
			if c.ROBFull() {
				c.Stats.DispatchBlockedROB += d
			}
			c.Stats.ResourceStallCycles += d
			c.Stats.ResourceStallLoadMiss += d
			blocked = true
		}
	}
	c.dispatchBlocked = blocked
	c.cycle += k
	//vrlint:allow cyclesafe -- statsBase is a snapshot of c.cycle taken in ResetStats, always <= c.cycle
	c.Stats.Cycles = c.cycle - c.statsBase
}

// ---- commit ----

func (c *Core) commit() {
	if c.engine != nil && c.engine.HoldCommit() {
		c.Stats.CommitStall[StallHeld]++
		return
	}
	committed := 0
	for committed < c.cfg.Width && c.count > 0 {
		e := &c.rob[c.head]
		if !e.done || e.readyCycle > c.cycle {
			break
		}
		c.retire(e)
		c.head = (c.head + 1) % c.cfg.ROBSize
		c.count--
		committed++
		if c.halted {
			break
		}
	}
	if committed == 0 {
		c.Stats.CommitStall[c.stallCause()]++
	}
}

func (c *Core) stallCause() StallCause {
	if c.count == 0 {
		return StallEmpty
	}
	e := &c.rob[c.head]
	if !e.issued {
		return StallNotIssue
	}
	if e.in.IsLoad() {
		return StallLoad
	}
	return StallExec
}

func (c *Core) retire(e *robEntry) {
	c.Stats.Committed++
	var corrupt, drop, phantom bool
	if c.cfg.Faults.Enabled() {
		corrupt, drop, phantom = c.faultPlan(e)
	}
	slot := c.head
	switch {
	case e.in.IsHalt():
		c.halted = true
	case e.in.IsStore():
		c.Stats.CommittedStores++
		c.sqCount--
		// Stores retire in program order and the store ring is in program
		// order, so the retiree is always the ring front: O(1). The
		// fallback guards (and counts) a mismatch that would otherwise
		// corrupt store-forwarding silently.
		if c.stLen > 0 && c.stores[c.stHead] == slot {
			c.stHead = (c.stHead + 1) & (len(c.stores) - 1)
			c.stLen--
		} else {
			c.dropStoreSlow(slot)
		}
		c.data.Store(e.addr, e.val)
		c.hier.Access(c.cycle, e.pc, e.addr, true, mem.ClassDemand, mem.SrcDemand)
	case e.in.IsLoad():
		c.Stats.CommittedLoads++
		c.lqCount--
		c.dropIssuedLoad(slot)
	case e.in.IsBranch():
		c.Stats.CommittedBranches++
	}
	if e.in.WritesDst() {
		if corrupt {
			e.val ^= corruptMask
		}
		if !drop {
			c.archRegs[e.in.Dst] = e.val
			c.commitSeq[slot] = e.seq
			c.commitV[slot] = e.val
		}
		if c.renameRob[e.in.Dst] == slot && c.renameSeq[e.in.Dst] == e.seq {
			c.renameRob[e.in.Dst] = noProducer
		}
	}
	if phantom {
		c.Stats.Committed++
	}
	if c.CommitObserver != nil {
		ev := CommitEvent{Seq: e.seq, Cycle: c.cycle, PC: e.pc, In: e.in}
		if e.in.WritesDst() {
			// Report the register file's value after writeback, not the
			// ROB entry's: a dropped or corrupted writeback must surface
			// as the state the rest of the program will actually read.
			ev.WroteReg, ev.Dst, ev.Val = true, e.in.Dst, c.archRegs[e.in.Dst]
		}
		if e.in.IsMem() {
			ev.Addr = e.addr
		}
		if e.in.IsStore() {
			ev.Val = e.val
		}
		c.CommitObserver(ev)
		if phantom {
			c.CommitObserver(ev)
		}
	}
}

// dropStoreSlow is the cold fallback of retire's store-ring pop: a
// mid-ring removal that by construction never runs (storeDropScans counts
// it; tests pin it at zero).
func (c *Core) dropStoreSlow(slot int) {
	c.storeDropScans++
	s := c.stores
	if len(s) == 0 {
		return
	}
	m := uint(len(s) - 1)
	for i := 0; i < c.stLen; i++ {
		j := uint(c.stHead+i) & m
		if s[j] != slot {
			continue
		}
		// Shift the younger suffix down one place, preserving age order.
		for ; i+1 < c.stLen; i++ {
			next := (j + 1) & m
			s[j] = s[next]
			j = next
		}
		c.stLen--
		return
	}
}

// dropIssuedLoad removes a load from the issued-load set by its position
// index: O(1) regardless of commit/issue order interleaving.
func (c *Core) dropIssuedLoad(slot int) {
	p := c.ldPos[slot]
	if p < 0 {
		return
	}
	last := c.ldLen - 1
	moved := c.ldIssued[last]
	c.ldIssued[p] = moved
	c.ldPos[moved] = p
	c.ldLen = last
	c.ldPos[slot] = noProducer
}

// ---- issue / execute ----

// operand fetches the value of source k of entry e, reporting readiness.
func (c *Core) operand(e *robEntry, k int) (uint64, bool) {
	k &= 3 // identity for k in 0..2; proves the src-array accesses in bounds
	slot := e.srcRob[k]
	if slot == noProducer {
		return c.archRegs[e.srcReg[k]], true
	}
	p := &c.rob[slot]
	if p.seq == e.srcSeq[k] {
		if p.done && p.readyCycle <= c.cycle {
			return p.val, true
		}
		return 0, false
	}
	// Producer already committed: its value was captured at retirement.
	// (A recycled slot cannot have re-committed while this consumer is in
	// flight, since the recycler is younger than the consumer.)
	if c.commitSeq[slot] == e.srcSeq[k] {
		return c.commitV[slot], true
	}
	return c.archRegs[e.srcReg[k]], true
}

// issue runs the issue stage: it moves on the wake-queue entries due this
// cycle, then selects from the ready list.
func (c *Core) issue() {
	for i := range c.fuUsed {
		c.fuUsed[i] = 0
	}
	c.issuedThisCycle = 0
	c.wakeDue()

	// Select from the ready list in program order. The list is left
	// intact during the walk — a squash inside tryIssue filters it — and
	// compacted only after the walk completes. The local reslice and
	// clamp (dead by the readyLen <= len(ready) invariant) let the
	// compiler drop the per-iteration bounds checks.
	rl := c.ready
	n := c.readyLen
	if n > len(rl) {
		n = len(rl)
	}
	epoch := c.squashEpoch
	for r := 0; r < n && c.issuedThisCycle < c.cfg.Width; r++ {
		slot := rl[r]
		e := &c.rob[slot]
		fu := e.in.FU()
		if c.fuUsed[fu] >= c.cfg.FUCount[fu] || !c.tryIssue(slot, e) {
			continue
		}
		c.fuUsed[fu]++
		c.Stats.FUIssued[fu]++
		c.issuedThisCycle++
		c.iqLen--
		c.wake(e)
		if c.squashEpoch != epoch {
			// tryIssue squashed younger instructions and filtered the
			// ready list without the issued entries; stop for this cycle.
			return
		}
	}
	w := 0
	for r := 0; r < n; r++ {
		if slot := rl[r]; !c.rob[slot].issued {
			rl[w] = slot
			w++
		}
	}
	c.readyLen = w
}

// wakeDue moves on every wake-queue entry due by this cycle: a store
// waiting for its value captures it, and any other entry joins the
// ready list.
func (c *Core) wakeDue() {
	q := c.wakeq
	for c.wakeLen > 0 && len(q) > 0 && q[0].at <= c.cycle {
		slot := q[0].slot
		c.wakeLen--
		if n := c.wakeLen; n > 0 && n < len(q) {
			q[0] = q[n]
			siftDown(q[:n], 0)
		}
		e := &c.rob[slot]
		if !e.issued {
			c.readyInsert(slot, e.seq)
			continue
		}
		if v, ok := c.operand(e, e.nsrc-1); ok {
			e.val = v
			e.valReady = true
			e.done = true
			e.readyCycle = c.cycle
		}
	}
}

// readyInsert adds the entry at slot, with sequence number seq, to the
// ready list in program order. New arrivals are usually the youngest, so
// the insertion walks from the back.
func (c *Core) readyInsert(slot int, seq uint64) {
	rl := c.ready
	i := c.readyLen
	if i >= len(rl) {
		return // dead: the list holds issue-queue entries only
	}
	for ; i > 0 && c.rob[rl[i-1]].seq > seq; i-- {
		rl[i] = rl[i-1]
	}
	rl[i] = slot
	c.readyLen++
}

// wakePush adds the entry at slot to the wake queue, due at cycle at.
func (c *Core) wakePush(at uint64, slot int) {
	q := c.wakeq
	i := c.wakeLen
	if i >= len(q) {
		return // dead: a live slot has at most one entry
	}
	c.wakeLen++
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].at <= at {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = wakeup{at: at, slot: slot}
}

// siftDown restores the min-heap order of q below index i (in range).
func siftDown(q []wakeup, i int) {
	x := q[i]
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].at < q[child].at {
			child = r
		}
		if x.at <= q[child].at {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = x
}

// await files source k of the entry at slot against its producer. It
// returns true after linking the entry onto the dependent list of a
// producer that has not issued; otherwise the source's ready cycle is
// already final, and wakeAt is raised to it.
func (c *Core) await(slot int, e *robEntry, k int) bool {
	k &= 3 // identity for k in 0..2; proves the src-array accesses in bounds
	p := e.srcRob[k]
	if p == noProducer {
		return false
	}
	pe := &c.rob[p]
	if pe.seq != e.srcSeq[k] {
		return false // the producer has committed
	}
	if pe.issued {
		if pe.readyCycle > e.wakeAt {
			e.wakeAt = pe.readyCycle
		}
		return false
	}
	l := slot<<2 | k
	c.depNext[l] = pe.deps
	pe.deps = l
	return true
}

// wake credits the dependents of a producer that has just issued, whose
// ready cycle is now final. A consumer whose last outstanding source this
// was joins the wake queue at the latest of its sources' ready cycles; a
// store that issued without this value joins it at this one.
func (c *Core) wake(p *robEntry) {
	for l := p.deps; l != noLink; l = c.depNext[l] {
		slot := l >> 2
		e := &c.rob[slot]
		if e.issued {
			c.wakePush(p.readyCycle, slot)
			continue
		}
		if p.readyCycle > e.wakeAt {
			e.wakeAt = p.readyCycle
		}
		e.pending--
		if e.pending == 0 {
			c.wakePush(e.wakeAt, slot)
		}
	}
	p.deps = noLink
}

// tryIssue attempts to issue the entry; it returns true if the entry
// consumed an issue slot. It may squash younger instructions (branch
// mispredict, memory-ordering violation), filtering the scheduler lists —
// the caller detects that via the squash epoch.
func (c *Core) tryIssue(slot int, e *robEntry) bool {
	switch {
	case e.in.IsStore():
		// Address sources are every source but the value (last).
		var vals [2]uint64
		for k := 0; k < e.nsrc-1; k++ {
			v, ok := c.operand(e, k)
			if !ok {
				return false
			}
			vals[k&1] = v // identity: address sources number at most 2
		}
		e.addr = isa.EffAddr(&e.in, vals[0], vals[1])
		e.addrReady = true
		e.issued = true
		if v, ok := c.operand(e, e.nsrc-1); ok {
			e.val = v
			e.valReady = true
			e.done = true
			e.readyCycle = c.cycle + c.cfg.FULatency[isa.FUMem]
		} else if !c.await(slot, e, e.nsrc-1) {
			// The value's producer has issued: capture at its ready cycle.
			c.wakePush(e.wakeAt, slot)
		}
		c.checkOrderViolation(e)
		return true

	case e.in.IsLoad():
		var vals [2]uint64
		for k := 0; k < e.nsrc; k++ {
			v, ok := c.operand(e, k)
			if !ok {
				return false
			}
			vals[k&1] = v // identity: these opcode classes read at most 2 regs
		}
		addr := isa.EffAddr(&e.in, vals[0], vals[1])
		fwd, fwdVal, ready := c.forward(e.seq, addr)
		if !ready {
			return false
		}
		e.addr = addr
		e.addrReady = true
		e.issued = true
		if c.LoadObserver != nil {
			c.LoadObserver(e.pc, addr)
		}
		if fwd {
			e.val = fwdVal
			e.readyCycle = c.cycle + c.cfg.FULatency[isa.FUMem]
		} else {
			// The functional read goes first: it often misses in the
			// host's caches, and the timed access overlaps that miss.
			e.val = c.data.Load(addr)
			e.readyCycle = c.hier.Access(c.cycle, e.pc, addr, false, mem.ClassDemand, mem.SrcDemand).Done
		}
		e.done = true
		c.ldPos[slot] = c.ldLen
		c.ldIssued[c.ldLen] = slot
		c.ldLen++
		return true

	case e.in.IsBranch():
		var a, b uint64
		if e.in.IsCondBranch() {
			var ok bool
			if a, ok = c.operand(e, 0); !ok {
				return false
			}
			if b, ok = c.operand(e, 1); !ok {
				return false
			}
		}
		e.issued = true
		e.done = true
		e.readyCycle = c.cycle + c.cfg.FULatency[isa.FUBranch]
		taken := isa.BranchTaken(&e.in, a, b)
		if e.in.IsCondBranch() {
			c.pred.Update(e.pc, e.hist, taken)
			if taken != e.predTaken {
				c.Stats.Mispredicts++
				c.ghr = e.hist << 1
				if taken {
					c.ghr |= 1
				}
				next := e.pc + 1
				if taken {
					next = e.in.Target
				}
				c.squashFrom(c.ordinal(slot)+1, next)
			}
		}
		return true

	default:
		var vals [2]uint64
		for k := 0; k < e.nsrc; k++ {
			v, ok := c.operand(e, k)
			if !ok {
				return false
			}
			vals[k&1] = v // identity: these opcode classes read at most 2 regs
		}
		e.issued = true
		e.val = isa.ALUResult(&e.in, vals[0], vals[1])
		e.done = true
		e.readyCycle = c.cycle + c.cfg.FULatency[e.in.FU()]
		return true
	}
}

// forward looks for the youngest older in-flight store to the same word.
// A resolved match forwards (or delays the load until the value is ready);
// unresolved older stores are speculated past.
func (c *Core) forward(loadSeq uint64, addr uint64) (fwd bool, val uint64, ready bool) {
	word := addr >> 3
	s := c.stores
	if len(s) == 0 {
		return false, 0, true
	}
	for i := c.stLen - 1; i >= 0; i-- {
		e := &c.rob[s[uint(c.stHead+i)&uint(len(s)-1)]]
		// Unresolved older stores are speculated past.
		if e.seq >= loadSeq || !e.addrReady || e.addr>>3 != word {
			continue
		}
		if e.valReady {
			return true, e.val, true
		}
		return false, 0, false // matching store, value not ready yet
	}
	return false, 0, true
}

// checkOrderViolation runs when a store resolves its address: any issued
// younger load that already read the same word mis-speculated; squash from
// the oldest such load and refetch.
func (c *Core) checkOrderViolation(st *robEntry) {
	word := st.addr >> 3
	victim := -1
	var victimSeq uint64
	for _, slot := range c.ldIssued[:c.ldLen] {
		e := &c.rob[slot]
		if e.seq > st.seq && e.addr>>3 == word {
			if victim < 0 || e.seq < victimSeq {
				victim = slot
				victimSeq = e.seq
			}
		}
	}
	if victim < 0 {
		return
	}
	c.Stats.MemOrderViolations++
	e := &c.rob[victim]
	c.ghr = e.hist
	c.squashFrom(c.ordinal(victim), e.pc)
}

// squashFrom drops every ROB entry at ordinal >= i, filters the scheduler
// lists, rebuilds the rename table, and redirects fetch to pc.
func (c *Core) squashFrom(i int, pc int) {
	c.squashEpoch++
	if i < c.count {
		for j := i; j < c.count; j++ {
			ent := &c.rob[c.slot(j)]
			c.Stats.Squashed++
			if !ent.issued && !ent.done {
				c.iqLen--
			}
			if ent.in.IsLoad() {
				c.lqCount--
			}
			if ent.in.IsStore() {
				c.sqCount--
			}
		}
		c.count = i
	}

	// Filter the ready list, dropping squashed entries and those issued
	// earlier this cycle (the squashing instruction among them), and the
	// wake queue, whose survivors are then re-heaped. Reslice + clamp as
	// in issue(): bounds checks vanish.
	rl := c.ready
	n := c.readyLen
	if n > len(rl) {
		n = len(rl)
	}
	w := 0
	for r := 0; r < n; r++ {
		s := rl[r]
		if c.ordinal(s) < c.count && !c.rob[s].issued {
			rl[w] = s
			w++
		}
	}
	c.readyLen = w
	q := c.wakeq
	n = c.wakeLen
	if n > len(q) {
		n = len(q)
	}
	w = 0
	for r := 0; r < n; r++ {
		if c.ordinal(q[r].slot) < c.count {
			q[w] = q[r]
			w++
		}
	}
	c.wakeLen = w
	for r := w/2 - 1; r >= 0; r-- {
		siftDown(q[:w], r)
	}

	// The store ring is in program order, so the squashed stores are
	// exactly its tail.
	for c.stLen > 0 {
		if c.ordinal(c.storeAt(c.stLen-1)) < c.count {
			break
		}
		c.stLen--
	}

	// Compact the issued-load set, keeping the position index coherent.
	ld := c.ldIssued
	n = c.ldLen
	if n > len(ld) {
		n = len(ld)
	}
	w = 0
	for r := 0; r < n; r++ {
		s := ld[r]
		if c.ordinal(s) < c.count {
			ld[w] = s
			c.ldPos[s] = w
			w++
		} else {
			c.ldPos[s] = noProducer
		}
	}
	c.ldLen = w

	// Rebuild the rename table from surviving entries, and unlink
	// squashed consumers from the dependent lists of surviving producers
	// (only unissued ones have any).
	for r := range c.renameRob {
		c.renameRob[r] = noProducer
	}
	for j := 0; j < c.count; j++ {
		ent := &c.rob[c.slot(j)]
		if ent.in.WritesDst() {
			c.renameRob[ent.in.Dst] = c.slot(j)
			c.renameSeq[ent.in.Dst] = ent.seq
			if !ent.issued {
				c.pruneDeps(ent)
			}
		}
	}

	// Redirect fetch.
	c.fqHead = 0
	c.fqLen = 0
	c.fetchStopped = false
	c.fetchPC = pc
}

// pruneDeps unlinks squashed consumers from a surviving producer's
// dependent list.
func (c *Core) pruneDeps(p *robEntry) {
	prev := noLink
	for l := p.deps; l != noLink; l = c.depNext[l] {
		switch {
		case c.ordinal(l>>2) < c.count:
			prev = l
		case prev == noLink:
			p.deps = c.depNext[l]
		default:
			c.depNext[prev] = c.depNext[l]
		}
	}
}

// ---- dispatch ----

// dispatch moves decoded instructions from the front queue into the ROB
// and scheduler lists.
func (c *Core) dispatch() {
	c.dispatchBlocked = false
	// Length-derived masking (guard dead: the queue is never
	// zero-capacity, and fqHead is already reduced) keeps the head
	// accesses bounds-check free.
	q := c.frontQ
	if len(q) == 0 {
		return
	}
	for n := 0; n < c.cfg.Width; n++ {
		head := uint(c.fqHead) & uint(len(q)-1)
		fs := &q[head]
		if c.fqLen == 0 || fs.readyAt > c.cycle {
			return
		}
		in := c.prog.At(fs.pc)
		if c.dispatchWouldBlock(in) {
			if c.count == c.cfg.ROBSize {
				c.Stats.DispatchBlockedROB++
			}
			c.dispatchBlocked = true
			return
		}
		c.fqHead = int(head+1) & (len(q) - 1)
		c.fqLen--

		idx := c.slot(c.count)
		c.count++
		c.nextSeq++
		// Fill the entry in place. Every field is set here but the source
		// arrays past nsrc, which nothing reads.
		e := &c.rob[idx]
		e.seq, e.pc, e.in, e.predTaken, e.hist = c.nextSeq, fs.pc, *in, fs.predTaken, fs.hist
		e.issued, e.done, e.addrReady, e.valReady = false, false, false, false
		e.readyCycle, e.val, e.addr = 0, 0, 0
		e.nsrc, e.pending, e.wakeAt, e.deps = 0, 0, 0, noLink
		rs := in.Reads()
		if rs&isa.ReadSrc1 != 0 {
			c.rename(e, in.Src1)
		}
		if rs&isa.ReadSrc2 != 0 {
			c.rename(e, in.Src2)
		}
		if rs&isa.ReadDst != 0 {
			c.rename(e, in.Dst)
		}

		if in.WritesDst() {
			c.renameRob[in.Dst] = idx
			c.renameSeq[in.Dst] = e.seq
		}
		switch {
		case in.FU() == isa.FUNone: // Nop and Halt
			e.done = true
			e.readyCycle = c.cycle
		default:
			// File the instruction with the scheduler: linked to each
			// required source's unissued producer, or straight into the
			// wake queue. A store issues without its value.
			c.iqLen++
			need := e.nsrc
			if in.IsStore() {
				need--
			}
			for k := 0; k < need; k++ {
				if c.await(idx, e, k) {
					e.pending++
				}
			}
			if e.pending == 0 {
				c.wakePush(e.wakeAt, idx)
			}
			if in.IsLoad() {
				c.lqCount++
			}
			if in.IsStore() {
				c.sqCount++
				if s := c.stores; len(s) > 0 {
					s[uint(c.stHead+c.stLen)&uint(len(s)-1)] = idx
				}
				c.stLen++
			}
		}
	}
}

// rename makes register r the entry's next source, naming the ROB slot
// and sequence number of its in-flight producer, or noProducer when the
// committed register file holds its value.
func (c *Core) rename(e *robEntry, r isa.Reg) {
	k := e.nsrc & 3 // identity: an instruction reads at most 3 registers
	e.srcReg[k] = r
	if p := c.renameRob[r]; p != noProducer {
		e.srcRob[k] = p
		e.srcSeq[k] = c.renameSeq[r]
	} else {
		e.srcRob[k] = noProducer
	}
	e.nsrc++
}

// ---- fetch ----

// fetch fills the front queue up to the fetch width, following the
// predictor through branches.
func (c *Core) fetch() {
	q := c.frontQ
	if len(q) == 0 {
		return
	}
	for n := 0; n < c.cfg.Width; n++ {
		if c.fetchStopped || c.fqLen == c.cfg.FetchBufSize {
			return
		}
		pc := c.fetchPC
		in := c.prog.At(pc)
		fs := fetchSlot{pc: pc, hist: c.ghr, readyAt: c.cycle + uint64(c.cfg.FrontendDepth)}
		switch {
		case in.IsHalt():
			c.fetchStopped = true
		case in.Op == isa.Jmp:
			fs.predTaken = true
			c.fetchPC = in.Target
		case in.IsCondBranch():
			fs.predTaken = c.pred.Predict(pc, c.ghr)
			c.ghr <<= 1
			if fs.predTaken {
				c.ghr |= 1
				c.fetchPC = in.Target
			} else {
				c.fetchPC = pc + 1
			}
		default:
			c.fetchPC = pc + 1
		}
		q[uint(c.fqHead+c.fqLen)&uint(len(q)-1)] = fs
		c.fqLen++
		c.Stats.Fetched++
	}
}
