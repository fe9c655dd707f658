// Run supervision: the layer that turns simulator failures — panics deep
// in the model, hung configurations, invalid parameters — into structured,
// diagnosable errors instead of aborted experiment campaigns. Every
// experiment driver routes its runs through RunSupervised, so one bad
// workload/technique cell degrades to an ERR entry in the rendered table
// rather than killing an 11-experiment sweep.

package harness

import (
	"context"
	"fmt"
	"runtime/debug"

	"vrsim/internal/cpu"
	"vrsim/internal/oracle"
	"vrsim/internal/workloads"
)

// ErrNoProgress is the core's forward-progress watchdog error, re-exported
// so campaign code can classify hangs against this package alone.
var ErrNoProgress = cpu.ErrNoProgress

// ErrOracleDivergence reports that the cosimulation oracle caught the
// timing core committing a different program than the in-order reference
// model (RunConfig.Check). The wrapping *RunError carries the divergence
// detail — both machine snapshots — in its message. Divergences are
// deterministic simulator bugs, never environmental flakes, so they are
// permanent: RunError.Transient is false and the sweep engine never
// retries them.
var ErrOracleDivergence = oracle.ErrDivergence

// ErrInvariantViolation reports a failed microarchitectural invariant —
// structure over capacity, ROB order broken, MSHR leak, counter running
// backwards (RunConfig.Check). Like oracle divergences these are
// permanent and never retried.
var ErrInvariantViolation = oracle.ErrInvariant

// Snapshot captures the machine state of a failed run at the moment the
// failure was detected: where execution was, how full every back-end
// structure was, and what the runahead engine was doing — the facts a hang
// or crash diagnosis starts from.
type Snapshot struct {
	Cycle     uint64
	Committed uint64
	FetchPC   int
	HeadPC    int // PC of the ROB head; -1 when the ROB is empty

	ROB, ROBCap   int
	IQ, IQCap     int
	LQ, LQCap     int
	SQ, SQCap     int
	MSHR, MSHRCap int

	EngineMode string // "none", "vr:idle", "vr:runahead", "pre:...", "ra:..."
}

func (s *Snapshot) String() string {
	return fmt.Sprintf("cycle=%d committed=%d pc(fetch=%d,head=%d) rob=%d/%d iq=%d/%d lq=%d/%d sq=%d/%d mshr=%d/%d engine=%s",
		s.Cycle, s.Committed, s.FetchPC, s.HeadPC,
		s.ROB, s.ROBCap, s.IQ, s.IQCap, s.LQ, s.LQCap, s.SQ, s.SQCap,
		s.MSHR, s.MSHRCap, s.EngineMode)
}

// snapshot captures the instance's machine state.
func (in *instance) snapshot() *Snapshot {
	c := in.c
	cfg := c.Config()
	s := &Snapshot{
		Cycle:     c.Cycle(),
		Committed: c.Stats.Committed,
		FetchPC:   c.FetchPC(),
		HeadPC:    c.HeadPC(),
		ROB:       c.ROBOccupancy(), ROBCap: cfg.ROBSize,
		IQ: c.IQLen(), IQCap: cfg.IQSize,
		LQ: c.LQOccupancy(), LQCap: cfg.LQSize,
		SQ: c.SQOccupancy(), SQCap: cfg.SQSize,
		MSHR:    in.hier.MSHR.InFlightAt(c.Cycle()),
		MSHRCap: in.hier.MSHR.Capacity(),
	}
	engineMode := func(name string, active bool) string {
		if active {
			return name + ":runahead"
		}
		return name + ":idle"
	}
	switch {
	case in.vr != nil:
		s.EngineMode = engineMode("vr", in.vr.Active())
	case in.pre != nil:
		s.EngineMode = engineMode("pre", in.pre.Active())
	case in.ra != nil:
		s.EngineMode = engineMode("ra", in.ra.Active())
	default:
		s.EngineMode = "none"
	}
	return s
}

// RunError is the structured failure a supervised run produces: which cell
// failed, in which phase, the underlying typed error (errors.Is works
// through Unwrap), and — for failures after construction — a machine-state
// snapshot. Stack is non-nil when the failure was a recovered panic.
type RunError struct {
	Workload string
	Tech     Technique
	Phase    string // "setup" (validation/construction) or "run"
	Err      error
	Snapshot *Snapshot
	Stack    []byte
}

func (e *RunError) Error() string {
	msg := fmt.Sprintf("%s/%s [%s]: %v", e.Workload, e.Tech, e.Phase, e.Err)
	if e.Snapshot != nil {
		msg += " | " + e.Snapshot.String()
	}
	return msg
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// RunSupervised executes one workload under one configuration with crash
// isolation: invalid configurations are rejected as setup-phase
// *RunErrors before anything is built, a panic anywhere inside the
// simulator is recovered into a run-phase *RunError carrying the machine
// snapshot and the panicking stack, and a tripped watchdog (ErrNoProgress)
// or cycle-limit abort is wrapped the same way. On success it is exactly
// Run.
func RunSupervised(w *workloads.Workload, rc RunConfig) (Result, error) {
	return RunSupervisedContext(context.Background(), w, rc)
}

// RunSupervisedContext is RunSupervised under a context: the cycle loop
// additionally consults ctx every ctxCheckCycles cycles, aborting with
// ErrCellTimeout (the context's deadline expired — how Options.CellTimeout
// is enforced) or ErrCancelled (the context was cancelled — a campaign
// hard-stop), each wrapped in a run-phase *RunError with the machine
// snapshot. A context that can never be cancelled costs the hot loop
// nothing.
func RunSupervisedContext(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
	in, err := newInstance(w, rc)
	if err != nil {
		return Result{}, &RunError{Workload: w.Name, Tech: rc.Tech, Phase: "setup", Err: err}
	}
	in.ctx = ctx
	return supervised(in)
}

// supervised executes an assembled instance under panic recovery.
func supervised(in *instance) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = &RunError{
				Workload: in.w.Name, Tech: in.rc.Tech, Phase: "run",
				Err:      fmt.Errorf("panic: %v", r),
				Snapshot: in.snapshot(),
				Stack:    debug.Stack(),
			}
		}
	}()
	res, rerr := in.execute()
	if rerr != nil {
		return Result{}, &RunError{
			Workload: in.w.Name, Tech: in.rc.Tech, Phase: "run",
			Err: rerr, Snapshot: in.snapshot(),
		}
	}
	return res, nil
}
