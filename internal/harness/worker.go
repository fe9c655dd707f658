// Worker side of process-isolated cell execution: the loop behind the
// hidden `vrbench -worker` mode. A worker is a child process that reads
// wireCell frames from stdin, executes each one at a time through the
// same RunSupervisedContext path the in-process scheduler uses, and
// writes heartbeat and result frames to stdout. It holds no campaign
// state at all — every dispatch is self-contained — which is what lets
// the supervisor treat workers as disposable: kill one mid-cell and the
// cell redispatches to a fresh worker with byte-identical inputs.

package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"vrsim/internal/workloads"
)

// RunWorker executes cells dispatched over r, reporting over w, until r
// reaches EOF (the supervisor closed the pipe: a clean shutdown) or ctx
// is cancelled. A decode failure on the inbound stream or a write
// failure on the outbound one is returned — the worker cannot continue
// past either — and vrbench maps it to the protocol-failure exit code.
func RunWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var spec wireCell
		if err := json.Unmarshal(payload, &spec); err != nil {
			return fmt.Errorf("%w: garbled cell spec: %v", ErrWorkerProtocol, err)
		}
		if err := runWorkerCell(ctx, w, spec); err != nil {
			return err
		}
		if ctx.Err() != nil {
			// The cell just reported ErrCancelled as its result; after a
			// hard cancel the supervisor wants the worker gone, not idle.
			return nil
		}
	}
}

// runWorkerCell executes one dispatched cell and writes its result
// frame. Only transport failures are returned; every cell-level failure
// — an unknown workload, a panic, a timeout — travels back to the
// supervisor as a structured result so it degrades to an ERR table cell
// exactly as it would in-process.
func runWorkerCell(ctx context.Context, w io.Writer, spec wireCell) error {
	// Heartbeats start before workload lookup: ByName constructs the
	// workload on this process's first dispatch of it (graph synthesis,
	// validator precompute — easily longer than the heartbeat deadline),
	// and a silent worker mid-construction must not read as wedged.
	stopHB := startHeartbeats(w, spec.ID, spec.HeartbeatEvery)

	wl, err := workloads.ByName(spec.Workload)
	if err != nil {
		stopHB()
		return writeFrame(w, wireMsg{Type: msgResult, ID: spec.ID, Err: newWireError(
			spec.Workload, spec.RC.Tech,
			&RunError{Workload: spec.Workload, Tech: spec.RC.Tech, Phase: "setup", Err: err})})
	}

	runCtx := ctx
	if spec.Timeout > 0 {
		// The worker enforces its own cell deadline so a timeout surfaces
		// as a graceful ErrCellTimeout result with a machine snapshot; the
		// supervisor's heartbeat deadline only backstops a wedged worker.
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	res, rerr := RunSupervisedContext(runCtx, wl, spec.RC)
	stopHB()

	msg := wireMsg{Type: msgResult, ID: spec.ID}
	if rerr != nil {
		msg.Err = newWireError(spec.Workload, spec.RC.Tech, rerr)
	} else {
		msg.Result = &res
	}
	return writeFrame(w, msg)
}

// startHeartbeats begins the per-cell heartbeat stream: a wireMsg every
// `every` with the worker's live heap size, the forensic the supervisor
// uses to call a SIGKILLed worker a probable OOM. The heartbeats and the
// cell's result share w without a lock: the returned stop function waits
// for the goroutine to exit, so every heartbeat is written before the
// result, never beside it. Heartbeat write failures are ignored
// here — the next result write will hit the same broken pipe and report
// it from a path that can act on it.
func startHeartbeats(w io.Writer, id int, every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				_ = writeFrame(w, wireMsg{Type: msgHeartbeat, ID: id, HeapAlloc: ms.HeapAlloc})
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
