// Deterministic parallel sweep engine. Every experiment driver declares
// its simulation cells — one (workload, RunConfig) pair each, optionally
// dependent on earlier cells — against a sweep, then calls run() to
// execute them on a bounded worker pool. Results are read back by handle
// and assembled into table rows by the driver in declaration order, and
// the sweep records cell failures in declaration order too, so the
// rendered output is byte-identical at any parallelism level: scheduling
// only ever changes wall-clock time, never bytes.
//
// Fault injection is scoped per cell: each cell attempt gets its own
// injector whose seed is derived deterministically from (campaign seed,
// workload, technique, cell index, attempt), making the fault sequence a
// property of the cell rather than of execution order, and count-based
// faults (panic=N, hang=N) count per cell.

package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"vrsim/internal/workloads"
)

// parallel returns the effective worker-pool bound: Parallel when set,
// GOMAXPROCS otherwise.
func (o *Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// errZeroCommit marks a run that finished without error but committed
// nothing: its IPC, CPI and per-instruction rates are all 0/0, so letting
// it into a table would poison cells and harmonic means with NaN.
var errZeroCommit = errors.New("run committed 0 instructions; per-instruction metrics are undefined")

// checkZeroCommit degrades a zero-instruction survivor into the
// *RunError its table entry needs.
func checkZeroCommit(res Result, w string, tech Technique) error {
	if res.Instrs != 0 {
		return nil
	}
	return &RunError{Workload: w, Tech: tech, Phase: "run", Err: errZeroCommit}
}

// sweepCell is one declared simulation: a workload under a configuration,
// plus the dependency edges and the completion state the scheduler fills
// in. Handles stay valid after run(); drivers read them back with result.
type sweepCell struct {
	idx  int
	w    *workloads.Workload
	rc   RunConfig
	deps []*sweepCell

	done      chan struct{} // closed when the cell finished, failed or was skipped
	res       Result
	ok        bool
	err       error // non-nil iff the cell itself failed (skipped cells carry none)
	attempts  int   // execution attempts (>1 means retried; preserved across journal replay)
	replayed  bool  // outcome came from the checkpoint journal, not a simulation
	cancelled bool  // campaign cancelled before (or while) this cell ran
}

// result returns the cell's outcome; ok is false for failed and skipped
// cells, which render as errCell and drop out of aggregates.
func (c *sweepCell) result() (Result, bool) { return c.res, c.ok }

// sweep owns one experiment's cells and the shared completion state.
type sweep struct {
	opt *Options
	t   *Table

	mu sync.Mutex // serializes Progress callbacks from worker goroutines
	// progressLines counts the progress callbacks delivered; tests read it
	// through progressCount to pin the serialization discipline.
	progressLines int // vrlint:guardedby mu

	// runFn executes one cell attempt; it is RunSupervisedContext except
	// in tests, which substitute scripted outcomes to exercise the retry
	// and cancellation machinery without real simulations.
	runFn func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error)

	cells []*sweepCell
}

// newSweep starts a sweep against t.
func (o *Options) newSweep(t *Table) *sweep {
	s := &sweep{opt: o, t: t, runFn: RunSupervisedContext}
	if o.Pool != nil {
		// Process isolation swaps the run function and nothing else: the
		// cell specs the scheduler derives (budget, watchdog, per-attempt
		// fault seeds) are exactly what crosses the wire, so both modes
		// produce identical bytes.
		s.runFn = o.Pool.Run
	}
	return s
}

// cell declares one workload × configuration cell. Each cell in deps must
// have completed successfully before this cell runs; if any dep fails (or
// was itself skipped), this cell is skipped — ok=false from result, no
// error of its own — matching the serial drivers' "no baseline, nothing
// to normalize against" behaviour. Dependencies must be declared earlier
// than their dependents, which also makes a serial declaration-order
// schedule trivially dependency-correct.
func (s *sweep) cell(w *workloads.Workload, rc RunConfig, deps ...*sweepCell) *sweepCell {
	c := &sweepCell{idx: len(s.cells), w: w, rc: rc, deps: deps, done: make(chan struct{})}
	for _, d := range deps {
		if d.idx >= c.idx {
			// A forward dependency is a driver-authoring bug, never a
			// runtime condition: every driver's plan is fixed at compile
			// time and any such edge trips on its first test run.
			//vrlint:allow panicfree -- programmer-error assertion on a compile-time-fixed experiment plan; unreachable from user input
			panic("harness: sweep cell depends on a cell declared after it")
		}
	}
	s.cells = append(s.cells, c)
	return c
}

// run executes every declared cell and then records all cell failures on
// the table in declaration order. With an effective parallelism of 1 the
// cells execute strictly in declaration order; otherwise up to parallel()
// cells run concurrently, each gated on its dependencies, and only
// completion *timing* varies — every per-cell result and the assembled
// error list are identical.
func (s *sweep) run() {
	if p := s.opt.parallel(); p <= 1 {
		for _, c := range s.cells {
			s.exec(c)
		}
	} else {
		sem := make(chan struct{}, p)
		var wg sync.WaitGroup
		for _, c := range s.cells {
			wg.Add(1)
			go func(c *sweepCell) {
				defer wg.Done()
				// Wait for dependencies before taking a pool slot, so
				// blocked cells cannot starve the runnable ones.
				for _, d := range c.deps {
					<-d.done
				}
				sem <- struct{}{}
				defer func() { <-sem }()
				s.exec(c)
			}(c)
		}
		wg.Wait()
	}
	// Post-run assembly, all in declaration order so rendered output is
	// byte-identical at every parallelism level: retry notes, cell
	// failures, and the cancellation count. Replayed cells regenerate the
	// same notes and errors from their journal records, keeping a resumed
	// campaign's output byte-identical to an uninterrupted one's.
	cancelled := 0
	for _, c := range s.cells {
		if c.cancelled {
			cancelled++
		}
		if c.attempts > 1 {
			outcome := "recovered"
			if c.err != nil || c.cancelled {
				outcome = "gave up"
			}
			s.t.AddNote(fmt.Sprintf("[%s#%03d] %s/%s %s after %d attempts",
				s.t.ID, c.idx, c.w.Name, c.rc.Tech, outcome, c.attempts))
		}
		if c.err != nil {
			s.t.AddError(c.err)
		}
	}
	if cancelled > 0 {
		s.t.markCancelled(cancelled)
	}
}

// exec runs one cell (or skips it when a dependency failed), storing the
// outcome on the cell: journal replay first, then up to 1+MaxRetries
// supervised attempts under the cell deadline, then a journal append.
func (s *sweep) exec(c *sweepCell) {
	defer close(c.done)
	skip := false
	for _, d := range c.deps {
		if d.cancelled {
			// A cell whose dependency was cancelled is itself a casualty
			// of the cancellation, not of a simulation failure.
			c.cancelled = true
		}
		if !d.ok {
			skip = true
		}
	}
	if skip {
		return
	}
	if s.opt.softCtx().Err() != nil {
		c.cancelled = true
		return
	}
	rc := c.rc
	rc.MaxBudget = s.opt.budget()
	rc.WatchdogCycles = s.opt.WatchdogCycles
	if s.opt.Check {
		rc.Check = true
	}
	if j := s.opt.Journal; j != nil {
		if rec, ok := j.lookup(s.t.ID, c.idx, c.w.Name, string(rc.Tech)); ok {
			c.attempts, c.replayed = rec.Attempts, true
			if rec.Result != nil {
				c.res, c.ok = *rec.Result, true
			} else {
				c.err = errors.New(rec.Err)
			}
			s.note("[%s#%03d] replaying %s/%s from journal", s.t.ID, c.idx, c.w.Name, rc.Tech)
			return
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		arc := rc
		if s.opt.Faults.Enabled() {
			arc.Faults = s.opt.Faults.ForCellAttempt(c.w.Name, string(arc.Tech), c.idx, attempt)
		}
		c.attempts = attempt + 1
		if attempt == 0 {
			s.note("[%s#%03d] running %s/%s", s.t.ID, c.idx, c.w.Name, arc.Tech)
		} else {
			s.note("[%s#%03d] retrying %s/%s (attempt %d of %d): %v",
				s.t.ID, c.idx, c.w.Name, arc.Tech, attempt+1, s.opt.MaxRetries+1, lastErr)
		}
		res, err := s.runCell(c, arc)
		if err == nil {
			err = checkZeroCommit(res, c.w.Name, arc.Tech)
		}
		if err == nil {
			c.res, c.ok, lastErr = res, true, nil
			break
		}
		lastErr = err
		var re *RunError
		transient := errors.As(err, &re) && re.Transient()
		if !transient || attempt >= s.opt.MaxRetries || s.opt.softCtx().Err() != nil {
			break
		}
		if err := sleepBackoff(s.opt.softCtx(), retryBackoff(s.opt.RetryBackoff, attempt+1)); err != nil {
			break // cancelled while backing off: keep the attempt's error
		}
	}
	if lastErr != nil && errors.Is(lastErr, ErrCancelled) {
		// Hard-cancelled mid-run: the cell didn't fail, the campaign
		// stopped. Count it as cancelled rather than polluting the error
		// summary (and never journal it — on resume it simply runs).
		c.cancelled = true
		return
	}
	c.err = lastErr
	if j := s.opt.Journal; j != nil {
		rec := Record{Exp: s.t.ID, Index: c.idx, Workload: c.w.Name,
			Tech: string(rc.Tech), Attempts: c.attempts}
		if c.ok {
			r := c.res
			rec.Result = &r
		} else {
			rec.Err = c.err.Error()
		}
		if err := j.record(rec); err != nil {
			s.note("[%s#%03d] %v (campaign continues unjournaled)", s.t.ID, c.idx, err)
		}
	}
}

// runCell executes one attempt of a cell under the campaign's abort
// context and the per-cell wall-clock deadline.
func (s *sweep) runCell(c *sweepCell, rc RunConfig) (Result, error) {
	ctx := s.opt.abortCtx()
	if s.opt.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.CellTimeout)
		defer cancel()
	}
	return s.runFn(ctx, c.w, rc)
}

// note emits one progress line, serializing concurrent workers onto the
// user's Progress callback.
func (s *sweep) note(format string, args ...any) {
	if s.opt.Progress == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.progressLines++
	s.opt.Progress(fmt.Sprintf(format, args...))
}

// progressCount returns how many progress lines the sweep has emitted.
func (s *sweep) progressCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progressLines
}

// buildAll materializes the named workloads, constructing up to
// parallel() of them concurrently (graph synthesis dominates several
// experiments' wall clock). Results are in name order, and the error
// returned is the first failing name in that order regardless of
// completion order.
//
// Under a worker pool it constructs nothing: the workers build the
// workloads they run, and a cell here needs only its workload's name
// (WorkerPool.Run sends nothing else). Each name is checked against the
// registry and comes back as a workload holding just the name.
func (o *Options) buildAll(names []string) ([]*workloads.Workload, error) {
	if o.softCtx().Err() != nil {
		// A cancelled campaign should not start synthesizing multi-second
		// graph workloads for an experiment none of whose cells will run.
		return nil, ErrCancelled
	}
	ws := make([]*workloads.Workload, len(names))
	if o.Pool != nil {
		known := workloads.Names()
		for i, n := range names {
			if !slices.Contains(known, n) {
				// ByName builds nothing for a name the registry does not
				// hold, and its error is the in-process one.
				_, err := workloads.ByName(n)
				return nil, err
			}
			ws[i] = &workloads.Workload{Name: n}
		}
		return ws, nil
	}
	errs := make([]error, len(names))
	p := o.parallel()
	if p > len(names) {
		p = len(names)
	}
	if p <= 1 {
		for i, n := range names {
			o.note("building %s", n)
			ws[i], errs[i] = workloads.ByName(n)
		}
	} else {
		var mu sync.Mutex
		note := func(n string) {
			if o.Progress == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			o.Progress(fmt.Sprintf("building %s", n))
		}
		sem := make(chan struct{}, p)
		var wg sync.WaitGroup
		for i, n := range names {
			wg.Add(1)
			go func(i int, n string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				note(n)
				ws[i], errs[i] = workloads.ByName(n)
			}(i, n)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}
