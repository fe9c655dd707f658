// The crash-contained worker pool: process isolation for the sweep
// engine. A WorkerPool owns a bounded set of child worker processes
// (vrbench's hidden -worker mode) and exposes Run with the exact
// signature of RunSupervisedContext, so the scheduler swaps it in as the
// sweep's runFn and nothing above the seam can tell the difference —
// by design: both modes must render byte-identical tables and JSON.
//
// What the pool adds over the in-process path is survivability. A cell
// that takes its process down — OOM kill, runtime-fatal error, stray
// signal — costs one worker, not the campaign: the supervisor classifies
// the death (procsup.go), starts a replacement under a bounded restart
// budget with doubling backoff, and redispatches the cell with exactly
// the same bytes. A redispatch is not a retry: the cell's fault seed was
// derived by the scheduler before Run was called, so a cell that crashed
// its worker re-executes with an identical spec, and only when the cell
// itself fails does the scheduler's retry path advance the attempt seed.

package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"vrsim/internal/workloads"
)

// PoolConfig parameterizes a worker pool. The zero value of every field
// has a sensible default except Command, which is required.
type PoolConfig struct {
	// Command is the argv launching one worker process — for vrbench,
	// its own executable plus "-worker".
	Command []string
	// Workers bounds concurrently leased workers (default GOMAXPROCS).
	// Match it to the sweep's parallelism: the scheduler already bounds
	// in-flight cells, so a matching pool never queues.
	Workers int
	// HeartbeatEvery is the worker heartbeat cadence (default 200ms).
	HeartbeatEvery time.Duration
	// HeartbeatDeadline is how long a worker may go silent before the
	// supervisor presumes it wedged and kills it. The default derives
	// from the cadence — five missed beats, floored at one second so
	// scheduler jitter under full load cannot fake a hang.
	HeartbeatDeadline time.Duration
	// KillGrace is the SIGTERM→SIGKILL escalation window (default 2s).
	KillGrace time.Duration
	// MaxRestarts bounds replacement starts beyond the initial Workers:
	// the pool may start at most Workers+MaxRestarts processes over its
	// lifetime (default 8). A deterministic budget, not a rate: a
	// campaign that chews through it has a systemic problem no amount of
	// restarting fixes.
	MaxRestarts int
	// MaxDispatches bounds how many times one cell is dispatched across
	// worker crashes (default 3) before it degrades to a permanent
	// worker-phase error.
	MaxDispatches int
	// RestartBackoff is the doubling-backoff base between a crash and
	// the cell's redispatch (default 50ms).
	RestartBackoff time.Duration
	// Stderr receives worker-process stderr (default os.Stderr).
	Stderr io.Writer
	// Log, when non-nil, receives supervision notes — crashes, restarts,
	// budget exhaustion. Notes are operational narration only and must
	// never reach the result stream.
	Log func(string)
}

// withDefaults resolves the documented defaults.
func (c PoolConfig) withDefaults() PoolConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 200 * time.Millisecond
	}
	if c.KillGrace <= 0 {
		c.KillGrace = 2 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 8
	}
	if c.MaxDispatches <= 0 {
		c.MaxDispatches = 3
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 50 * time.Millisecond
	}
	if c.Stderr == nil {
		c.Stderr = os.Stderr
	}
	return c
}

// PoolStats is the pool's lifetime accounting, read via Stats.
type PoolStats struct {
	// Starts is how many worker processes were ever started.
	Starts int
	// Crashes is how many dispatches ended in a worker death.
	Crashes int
}

// WorkerPool runs cells in supervised child processes. Construct with
// NewWorkerPool, plug into Options.Pool, Close when the campaign ends.
type WorkerPool struct {
	cfg PoolConfig
	// dir is the pool's private directory under os.TempDir(): each
	// workload its workers run is published there once, by the first
	// worker sent a cell of it, and mapped from there by every worker
	// (sharedWorkload). The last of Close and the releases of workers
	// leased at the Close removes it.
	dir string
	// hbDeadline is how long a worker may go silent before it is
	// presumed wedged: several missed beats, floored so scheduling jitter
	// under load cannot fake a hang.
	hbDeadline time.Duration

	// slots bounds concurrently leased workers to cfg.Workers.
	slots chan struct{}

	mu      sync.Mutex
	idle    []*workerProc // guarded by mu
	leased  int           // workers out on lease; guarded by mu
	starts  int           // guarded by mu
	crashes int           // guarded by mu
	nextID  int           // guarded by mu
	closed  bool          // guarded by mu
}

// NewWorkerPool creates a pool and its directory; workers start lazily
// on first lease.
func NewWorkerPool(cfg PoolConfig) (*WorkerPool, error) {
	if len(cfg.Command) == 0 {
		return nil, errors.New("harness: worker pool needs a command")
	}
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	dir, err := os.MkdirTemp("", "vrsim-pool-")
	if err != nil {
		return nil, fmt.Errorf("harness: worker pool directory: %w", err)
	}
	p := &WorkerPool{cfg: cfg, dir: dir, slots: make(chan struct{}, workers)}
	p.hbDeadline = cfg.HeartbeatDeadline
	if p.hbDeadline <= 0 {
		p.hbDeadline = 5 * cfg.HeartbeatEvery
		if p.hbDeadline < time.Second {
			p.hbDeadline = time.Second
		}
	}
	return p, nil
}

// Stats returns the pool's lifetime start/crash counts.
func (p *WorkerPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Starts: p.starts, Crashes: p.crashes}
}

// Run executes one cell in an isolated worker, redispatching across
// worker crashes up to the dispatch budget. It has the runFn signature
// and mirrors its contract exactly: the result or *RunError it returns
// is byte-for-byte what the in-process path would have produced for
// every outcome a cell can reach in both modes; only genuine worker
// infrastructure failures (which the in-process mode cannot survive at
// all) surface as the new worker-phase errors.
func (p *WorkerPool) Run(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return Result{}, ctxRunError(ctx, w.Name, rc.Tech)
	}
	defer func() { <-p.slots }()

	spec := wireCell{Workload: w.Name, Dir: p.dir, RC: rc, HeartbeatEvery: p.cfg.HeartbeatEvery}
	if dl, ok := ctx.Deadline(); ok {
		spec.Timeout = time.Until(dl)
		if spec.Timeout <= 0 {
			return Result{}, ctxRunError(ctx, w.Name, rc.Tech)
		}
	}

	var lastCrash error
	for dispatch := 0; dispatch < p.cfg.MaxDispatches; dispatch++ {
		if dispatch > 0 {
			if err := sleepBackoff(ctx, retryBackoff(p.cfg.RestartBackoff, dispatch)); err != nil {
				break
			}
		}
		wp, err := p.lease()
		if err != nil {
			if lastCrash != nil {
				err = fmt.Errorf("%v; no replacement: %v", lastCrash, err)
			}
			return Result{}, &RunError{Workload: w.Name, Tech: rc.Tech, Phase: "worker", Err: err}
		}
		spec.ID = p.allocID()
		msg, err := wp.dispatch(ctx, spec, p.hbDeadline, p.cfg.KillGrace)
		if err == nil {
			if wp.killedByUs {
				// The worker answered but was terminated along the way
				// (cancellation); its structured result stands, the
				// process does not.
				p.unlease(wp, err)
			} else {
				p.release(wp)
			}
			if msg.Err != nil {
				return Result{}, msg.Err.runError()
			}
			return *msg.Result, nil
		}
		lastCrash = err
		p.unlease(wp, err)
		if ctx.Err() != nil {
			break
		}
		p.logf("worker pid %d lost cell %s/%s (dispatch %d/%d): %v",
			wp.pid(), w.Name, rc.Tech, dispatch+1, p.cfg.MaxDispatches, err)
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		// The campaign was hard-cancelled out from under the dispatch;
		// report the cancellation, not the collateral worker damage, so
		// the scheduler accounts the cell as cancelled in both modes.
		return Result{}, &RunError{Workload: w.Name, Tech: rc.Tech, Phase: "run", Err: ErrCancelled}
	}
	if lastCrash == nil {
		lastCrash = errors.New("dispatch budget exhausted")
	}
	return Result{}, &RunError{Workload: w.Name, Tech: rc.Tech, Phase: "worker", Err: lastCrash}
}

// ctxRunError translates a dead context into the *RunError the
// in-process path reports for the same condition.
func ctxRunError(ctx context.Context, workload string, tech Technique) *RunError {
	err := error(ErrCancelled)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = ErrCellTimeout
	}
	return &RunError{Workload: workload, Tech: tech, Phase: "run", Err: err}
}

// lease hands out an idle worker, starting a fresh one if the restart
// budget allows.
func (p *WorkerPool) lease() (*workerProc, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("harness: worker pool is closed")
	}
	if n := len(p.idle); n > 0 {
		wp := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.leased++
		p.mu.Unlock()
		return wp, nil
	}
	budget := p.cfg.Workers + p.cfg.MaxRestarts
	if p.starts >= budget {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: restart budget exhausted (%d starts; budget %d workers + %d restarts)",
			ErrWorkerCrashed, budget, p.cfg.Workers, p.cfg.MaxRestarts)
	}
	p.starts++
	p.leased++
	started := p.starts
	p.mu.Unlock()
	wp, err := startWorkerProc(p.cfg.Command, p.cfg.Stderr)
	if err != nil {
		p.returned(1)
		return nil, fmt.Errorf("%w: cannot start worker: %v", ErrWorkerCrashed, err)
	}
	if started > p.cfg.Workers {
		p.logf("started replacement worker pid %d (%d of %d restarts used)",
			wp.pid(), started-p.cfg.Workers, p.cfg.MaxRestarts)
	}
	return wp, nil
}

// release returns a healthy worker to the idle set, or reaps it once
// the pool is closed.
func (p *WorkerPool) release(wp *workerProc) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		wp.reap(p.cfg.KillGrace)
		p.returned(1)
		return
	}
	p.idle = append(p.idle, wp)
	p.leased--
	p.mu.Unlock()
}

// unlease accounts a worker that did not survive its dispatch. The
// process is already dead and reaped (dispatch guarantees it); only the
// books are updated here.
func (p *WorkerPool) unlease(wp *workerProc, err error) {
	_ = wp.stdin.Close()
	p.mu.Lock()
	if err != nil {
		p.crashes++
	}
	p.mu.Unlock()
	p.returned(1)
}

// returned books n leased workers back whose processes have exited, and
// removes the pool's directory when they were the last ones out after
// Close.
func (p *WorkerPool) returned(n int) {
	p.mu.Lock()
	p.leased -= n
	last := p.closed && p.leased == 0
	p.mu.Unlock()
	if !last {
		return
	}
	// A worker still being killed keeps the pages it mapped.
	if err := os.RemoveAll(p.dir); err != nil {
		p.logf("cannot remove the pool directory: %v", err)
	}
}

// allocID issues the next dispatch id.
func (p *WorkerPool) allocID() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	return p.nextID
}

// Close shuts the pool down: idle workers get a clean EOF and the grace
// window to exit, stragglers get the kill ladder. Once every worker has
// exited, the pool's directory is removed: by Close when no worker is
// out on lease, otherwise by the release of the last one. Safe to call
// once the campaign's sweeps have finished; concurrent Runs will fail
// their next lease rather than hang.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	// The idle workers count as leased until they have exited, so the
	// directory outlives them.
	p.leased += len(idle)
	p.mu.Unlock()
	// Close every stdin first so all workers wind down concurrently,
	// then wait on each.
	for _, wp := range idle {
		_ = wp.stdin.Close()
	}
	for _, wp := range idle {
		wp.shutdown(p.cfg.KillGrace)
	}
	p.returned(len(idle))
}

// logf emits one supervision note.
func (p *WorkerPool) logf(format string, args ...any) {
	if p.cfg.Log != nil {
		p.cfg.Log(fmt.Sprintf(format, args...))
	}
}
