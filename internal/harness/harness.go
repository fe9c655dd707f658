// Package harness assembles complete simulations — a workload, a core
// configuration, a memory hierarchy and one of the evaluated techniques —
// runs them, and collects the metrics the paper's figures report. The
// experiment drivers for each table and figure live in experiments.go and
// are shared by cmd/vrbench and the repository's benchmark suite.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math"

	"vrsim/internal/core"
	"vrsim/internal/cpu"
	"vrsim/internal/mem"
	"vrsim/internal/oracle"
	"vrsim/internal/prefetch"
	"vrsim/internal/workloads"
)

// Technique names one of the evaluated configurations.
type Technique string

// The evaluated techniques, as in the paper's main results figure.
const (
	// TechOoO is the baseline out-of-order core; the L1-D stride
	// prefetcher is always on (here and in every other technique).
	TechOoO Technique = "ooo"
	// TechPRE adds Precise Runahead Execution.
	TechPRE Technique = "pre"
	// TechIMP adds the Indirect Memory Prefetcher at the L1-D.
	TechIMP Technique = "imp"
	// TechVR adds Vector Runahead.
	TechVR Technique = "vr"
	// TechOracle makes every access an L1 hit: the upper bound.
	TechOracle Technique = "oracle"
	// TechRA adds classic flush-based runahead (Mutlu et al., HPCA'03) —
	// a lineage baseline beyond the paper's evaluated set.
	TechRA Technique = "ra"
)

// AllTechniques returns the evaluation order.
func AllTechniques() []Technique {
	return []Technique{TechOoO, TechPRE, TechIMP, TechVR, TechOracle}
}

// RunConfig parameterizes one simulation.
type RunConfig struct {
	Tech Technique
	CPU  cpu.Config
	Mem  mem.Config
	VR   core.VRConfig
	PRE  core.PREConfig
	RA   core.RAConfig
	// Budget is the instruction budget (the "ROI length"); 0 uses the
	// workload's suggestion, capped by MaxBudget.
	Budget uint64
	// MaxBudget caps the effective budget (0 = no cap).
	MaxBudget uint64
	// StridePrefetcher controls the always-on L1-D stream prefetcher; the
	// paper keeps it enabled everywhere, so it defaults on.
	DisableStridePrefetcher bool
	// WatchdogCycles, when nonzero, overrides the core's forward-progress
	// watchdog (see cpu.Config.WatchdogCycles).
	WatchdogCycles uint64
	// Faults configures deterministic fault injection in the memory
	// system; the zero value disables it.
	Faults mem.FaultConfig
	// Check enables the cosimulation oracle and the runtime invariant
	// checker: every architectural commit is validated against an in-order
	// reference model over a shadow memory, and microarchitectural
	// invariants are verified at the CheckInterval cadence. Checking is
	// strictly observational — a run with Check off is byte-identical to
	// one that has never heard of it — and a detected divergence aborts
	// the run with ErrOracleDivergence or ErrInvariantViolation.
	Check bool
}

// Validate checks every sub-configuration of the run, returning the first
// error found (each wraps its package's ErrBadConfig). Run and
// RunSupervised call it on entry, so invalid configurations are rejected
// as typed errors before any construction can panic.
func (rc *RunConfig) Validate() error {
	switch rc.Tech {
	case TechOoO, TechPRE, TechIMP, TechVR, TechOracle, TechRA:
	default:
		return fmt.Errorf("harness: unknown technique %q", rc.Tech)
	}
	if err := rc.CPU.Validate(); err != nil {
		return err
	}
	if err := rc.Mem.Validate(); err != nil {
		return err
	}
	if err := rc.VR.Validate(); err != nil {
		return err
	}
	if err := rc.PRE.Validate(); err != nil {
		return err
	}
	if err := rc.RA.Validate(); err != nil {
		return err
	}
	if rc.Faults.Enabled() {
		if err := rc.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultRunConfig returns the Table 1 baseline with the given technique.
func DefaultRunConfig(tech Technique) RunConfig {
	return RunConfig{
		Tech:      tech,
		CPU:       cpu.DefaultConfig(),
		Mem:       mem.DefaultConfig(),
		VR:        core.DefaultVRConfig(),
		PRE:       core.DefaultPREConfig(),
		RA:        core.DefaultRAConfig(),
		MaxBudget: 1_000_000,
	}
}

// Result carries the metrics of one run.
type Result struct {
	Workload string
	Tech     Technique

	Cycles uint64
	Instrs uint64
	IPC    float64

	MLP            float64 // avg outstanding L1-D misses per cycle
	L1MissRate     float64
	LLCMPKI        float64
	MispredictRate float64

	// Stall composition, as fractions of total cycles.
	ROBFullFrac       float64 // cycles the ROB was full
	ResourceStallFrac float64 // dispatch blocked by a full ROB/IQ/LQ/SQ
	StallLoadFrac     float64 // commit blocked on a load
	HeldFrac          float64 // commit held by delayed termination

	// Front-end and commit-mix counters.
	Fetched            uint64 // instructions fetched (incl. squashed paths)
	Squashed           uint64 // instructions discarded on pipeline flushes
	CommittedLoads     uint64
	CommittedStores    uint64
	MemOrderViolations uint64 // loads squashed by an older overlapping store

	// Dispatch/commit pressure diagnostics, complementing the *Frac stall
	// fractions above with their raw causes.
	DispatchBlockedROB    uint64 // dispatch attempts blocked by a full ROB
	ROBFullLoadMiss       uint64 // ROB-full cycles with a load miss at head
	ResourceStallLoadMiss uint64 // resource-stall cycles with a load miss in flight

	// Off-chip traffic (DRAM line fetches) by requester.
	OffChipDemand   uint64
	OffChipRunahead uint64
	OffChipPrefetch uint64
	OffChipTotal    uint64

	// DRAM channel behaviour.
	DRAMAvgLat float64 // mean DRAM access latency in cycles
	DRAMUtil   float64 // DRAM channel busy fraction
	MLPArea    float64 // MLP as miss-latency area per cycle (cf. MLP, MSHR occupancy)

	// Demand accesses by serving level, and prefetcher traffic.
	DemandLoadsByLevel  [mem.NumLevels]uint64
	DemandStoresByLevel [mem.NumLevels]uint64
	PrefetchIssued      [mem.NumSources]uint64 // prefetches injected, per source
	PrefetchDropped     uint64                 // hw prefetches dropped for lack of MSHRs

	// Prefetch effectiveness for the runahead source.
	RunaheadUseful     uint64
	RunaheadIssued     uint64 // runahead accesses that went past the L1
	TimelinessL1       uint64 // first-use hits on runahead lines per level
	TimelinessL2       uint64
	TimelinessL3       uint64
	TimelinessInFlight uint64

	// Engine counters (zero when the technique has no engine).
	VRStats  core.VRStats
	PREStats core.PREStats
	RAStats  core.RAStats

	// Faults reports the faults delivered when injection was enabled.
	Faults mem.FaultStats
}

// instance is one fully assembled simulation — the workload bound to a
// core, a hierarchy and (optionally) a runahead engine. It stays
// addressable after a failure so the supervision layer can capture a
// machine-state snapshot for diagnosis.
type instance struct {
	w    *workloads.Workload
	rc   RunConfig
	hier *mem.Hierarchy
	c    *cpu.Core
	vr   *core.VR
	pre  *core.PRE
	ra   *core.ClassicRA

	// oracle and inv are the cosimulation oracle and the invariant
	// checker, and shadow the oracle's memory; all nil unless
	// RunConfig.Check is set.
	oracle *oracle.Checker
	inv    *oracle.InvariantChecker
	shadow *mem.Backing

	// ctx, when cancellable, is consulted every ctxCheckCycles cycles of
	// execution; see RunSupervisedContext. nil means context.Background().
	ctx context.Context
}

// newInstance validates the configuration and assembles the simulation
// on a recycled hierarchy when one of the same configuration is free
// (see recycle.go).
func newInstance(w *workloads.Workload, rc RunConfig) (*instance, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if rc.WatchdogCycles != 0 {
		rc.CPU.WatchdogCycles = rc.WatchdogCycles
	}
	data := w.Fresh()
	hier, err := hierarchies.take(rc.Mem)
	if err != nil {
		return nil, err
	}
	hier.Data = data
	if rc.Tech == TechOracle {
		hier.PerfectL1 = true
	}
	if rc.Faults.Enabled() {
		hier.Faults = mem.NewFaultInjector(rc.Faults)
	}

	// Prefetchers: stride always on (unless ablated); IMP adds indirection.
	var parts []mem.Prefetcher
	if !rc.DisableStridePrefetcher {
		parts = append(parts, prefetch.NewStreamPrefetcher(16, 4))
	}
	if rc.Tech == TechIMP {
		parts = append(parts, prefetch.NewIMP())
	}
	switch len(parts) {
	case 1:
		hier.SetPrefetcher(parts[0])
	default:
		if len(parts) > 1 {
			hier.SetPrefetcher(&prefetch.Combined{Parts: parts})
		}
	}

	in := &instance{w: w, rc: rc, hier: hier}
	in.c = cpu.New(rc.CPU, w.Prog, data, hier)
	switch rc.Tech {
	case TechVR:
		in.vr = core.NewVR(rc.VR)
		in.vr.Bind(in.c)
	case TechPRE:
		in.pre = core.NewPRE(rc.PRE)
		in.c.AttachEngine(in.pre)
	case TechRA:
		in.ra = core.NewClassicRA(rc.RA)
		in.c.AttachEngine(in.ra)
	default:
		// TechOoO, TechOracle and TechIMP run on the plain core: the
		// baseline has no engine, oracle is modeled as a perfect L1, and
		// IMP is a hardware prefetcher attached to the hierarchy above.
	}
	if rc.Check {
		// The oracle gets its own freshly initialized shadow memory (the
		// reference applies its own stores, so a timing-core store bug
		// cannot contaminate it) and the engine's side-effect-free
		// commit-hold predicate, to flag any retirement that slips through
		// a demanded hold.
		var holding func() bool
		switch {
		case in.vr != nil:
			holding = in.vr.Holding
		case in.pre != nil:
			holding = in.pre.Holding
		case in.ra != nil:
			holding = in.ra.Holding
		}
		in.shadow = w.Fresh()
		in.oracle = oracle.NewChecker(w.Prog, in.shadow, holding)
		in.c.CommitObserver = in.oracle.OnCommit
		in.inv = oracle.NewInvariantChecker(in.c)
	}
	return in, nil
}

// Run executes one workload under one configuration. Invalid
// configurations are rejected with a typed error; crashes inside the
// simulator propagate as panics — use RunSupervised for isolation.
func Run(w *workloads.Workload, rc RunConfig) (Result, error) {
	in, err := newInstance(w, rc)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", w.Name, rc.Tech, err)
	}
	res, err := in.execute()
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", w.Name, rc.Tech, err)
	}
	in.recycle()
	return res, nil
}

// ctxCheck returns the periodic interrupt check for the instance's
// context, classifying an expired deadline as ErrCellTimeout and a
// cancellation as ErrCancelled; nil when the context can never fire, so
// the cycle loop pays nothing on the default path.
func (in *instance) ctxCheck() func() error {
	ctx := in.ctx
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() error {
		err := ctx.Err()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, context.DeadlineExceeded):
			return ErrCellTimeout
		default:
			return ErrCancelled
		}
	}
}

// runCheck builds the periodic interrupt check RunChecked consults every
// CheckInterval cycles: context deadline/cancellation first (cheapest,
// and a timed-out cell should report the timeout even if checking would
// also have found something), then the latched oracle divergence, then
// the invariant sweep. nil when nothing can ever fire, so the unchecked
// default path pays nothing.
func (in *instance) runCheck() func() error {
	ctxCheck := in.ctxCheck()
	if in.oracle == nil && in.inv == nil {
		return ctxCheck
	}
	return func() error {
		if ctxCheck != nil {
			if err := ctxCheck(); err != nil {
				return err
			}
		}
		if err := in.oracle.Err(); err != nil {
			return err
		}
		return in.inv.Check()
	}
}

// finalCheck runs the end-of-run validations when checking is enabled: a
// divergence or violation may have latched after the last periodic check,
// and the architectural register files must agree (plus, if the program
// ran to its Halt, the reference model must have halted too).
func (in *instance) finalCheck() error {
	if in.oracle == nil {
		return nil
	}
	if err := in.oracle.Err(); err != nil {
		return err
	}
	if err := in.inv.Check(); err != nil {
		return err
	}
	return in.oracle.Final(in.c.ArchRegs(), in.c.Halted())
}

// execute runs the assembled simulation and collects its metrics.
func (in *instance) execute() (Result, error) {
	w, rc, c, hier := in.w, in.rc, in.c, in.hier
	vr, pre, ra := in.vr, in.pre, in.ra

	budget := rc.Budget
	if budget == 0 {
		budget = w.SuggestedBudget
	}
	if rc.MaxBudget != 0 && budget > rc.MaxBudget {
		budget = rc.MaxBudget
	}
	// Deadline/cancellation plumbing plus (when enabled) the oracle and
	// invariant checks: consult once up front (a cell whose deadline
	// already passed must not run at all), then periodically inside both
	// cycle loops below at the configured CheckInterval cadence.
	check := in.runCheck()
	if check != nil {
		if err := check(); err != nil {
			return Result{}, err
		}
	}
	every := rc.CPU.CheckInterval
	// Region of interest: run the initialization phase, then reset every
	// statistic (keeping caches, predictors and in-flight state warm).
	if w.SkipInstrs > 0 {
		if err := c.RunChecked(w.SkipInstrs, every, check); err != nil {
			return Result{}, fmt.Errorf("init: %w", err)
		}
		c.ResetStats()
		hier.ResetStatsAt(c.Cycle())
		if in.inv != nil {
			// The reset zeroed Stats.Committed; re-baseline the
			// monotonicity checks so the ROI boundary does not read as the
			// commit counter running backwards.
			in.inv.Rearm()
		}
	}
	if err := c.RunChecked(budget, every, check); err != nil {
		return Result{}, err
	}
	if err := in.finalCheck(); err != nil {
		return Result{}, err
	}

	st := &c.Stats
	hs := &hier.Stats
	res := Result{
		Workload: w.Name,
		Tech:     rc.Tech,
		Cycles:   st.Cycles,
		Instrs:   st.Committed,
		IPC:      st.IPC(),

		MLP:            hier.MSHR.AvgOccupancy(st.Cycles),
		MispredictRate: st.MispredictRate(),

		Fetched:            st.Fetched,
		Squashed:           st.Squashed,
		CommittedLoads:     st.CommittedLoads,
		CommittedStores:    st.CommittedStores,
		MemOrderViolations: st.MemOrderViolations,

		DispatchBlockedROB:    st.DispatchBlockedROB,
		ROBFullLoadMiss:       st.ROBFullLoadMiss,
		ResourceStallLoadMiss: st.ResourceStallLoadMiss,

		OffChipDemand:   hs.OffChipBySource[mem.SrcDemand],
		OffChipRunahead: hs.OffChipBySource[mem.SrcRunahead],
		OffChipPrefetch: hs.OffChipBySource[mem.SrcStride] + hs.OffChipBySource[mem.SrcIMP],

		DemandLoadsByLevel:  hs.DemandLoads,
		DemandStoresByLevel: hs.DemandStores,
		PrefetchIssued:      hs.PrefetchIssued,
		PrefetchDropped:     hs.PrefetchDropped,

		RunaheadUseful:     hs.PrefetchUseful[mem.SrcRunahead],
		TimelinessL1:       hs.TimelinessHits[mem.SrcRunahead][mem.AtL1],
		TimelinessL2:       hs.TimelinessHits[mem.SrcRunahead][mem.AtL2],
		TimelinessL3:       hs.TimelinessHits[mem.SrcRunahead][mem.AtL3],
		TimelinessInFlight: hs.PrefetchLate,
	}
	d := hier.Derive(st.Committed, st.Cycles)
	res.L1MissRate = d.L1MissRate
	res.LLCMPKI = d.LLCMPKI
	res.DRAMAvgLat = d.DRAMAvgLat
	res.DRAMUtil = d.DRAMUtil
	res.MLPArea = d.AvgMLP
	// Same value as hier.DRAM.Accesses, routed through DerivedStats so the
	// derived and raw views cannot drift apart.
	res.OffChipTotal = d.TotalOffChip
	if st.Cycles > 0 {
		res.ROBFullFrac = float64(st.ROBFullCycles) / float64(st.Cycles)
		res.ResourceStallFrac = float64(st.ResourceStallCycles) / float64(st.Cycles)
		res.StallLoadFrac = float64(st.CommitStall[cpu.StallLoad]) / float64(st.Cycles)
		res.HeldFrac = float64(st.CommitStall[cpu.StallHeld]) / float64(st.Cycles)
	}
	if vr != nil {
		res.VRStats = vr.Stats
		var issued uint64
		for lvl := mem.AtL2; lvl <= mem.AtMem; lvl++ {
			issued += hs.RunaheadAccesses[lvl]
		}
		res.RunaheadIssued = issued
	}
	if pre != nil {
		res.PREStats = pre.Stats
	}
	if ra != nil {
		res.RAStats = ra.Stats
	}
	if hier.Faults != nil {
		res.Faults = hier.Faults.Stats
	}
	return res, nil
}

// Speedup returns r's performance normalized to base, comparing by
// cycles-per-instruction over each run's own committed instructions (runs
// may commit slightly different counts when budget-limited). A run with
// zero cycles or zero committed instructions on either side has no
// defined CPI; such pairs return 0 (which aggregation ignores) rather
// than letting a 0/0 NaN leak into table cells and harmonic means.
func Speedup(base, r Result) float64 {
	if r.Cycles == 0 || r.Instrs == 0 || base.Cycles == 0 || base.Instrs == 0 {
		return 0
	}
	baseCPI := float64(base.Cycles) / float64(base.Instrs)
	cpi := float64(r.Cycles) / float64(r.Instrs)
	return baseCPI / cpi
}

// HarmonicMean returns the harmonic mean of xs (the paper's mean for
// speedups). Zero or negative entries are ignored.
func HarmonicMean(xs []float64) float64 {
	var inv float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			inv += 1 / x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / inv
}

// GeoMean returns the geometric mean of positive entries.
func GeoMean(xs []float64) float64 {
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return pow(prod, 1/float64(n))
}

func pow(x, p float64) float64 { return math.Pow(x, p) }
