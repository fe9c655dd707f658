// Worker side of process-isolated cell execution: the loop behind the
// hidden `vrbench -worker` mode. A worker is a child process that reads
// wireCell frames from stdin, executes each one at a time through the
// same RunSupervisedContext path the in-process scheduler uses, and
// writes heartbeat and result frames to stdout. It holds no campaign
// state at all — every dispatch is self-contained — which is what lets
// the supervisor treat workers as disposable: kill one mid-cell and the
// cell redispatches to a fresh worker with byte-identical inputs.
//
// The workloads a pool's workers run are built once per pool, not once
// per worker: the first worker sent a cell of a workload publishes it in
// the pool's directory, and every worker maps the published file (see
// sharedWorkload).

package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vrsim/internal/workloads"
)

// RunWorker executes cells dispatched over r, reporting over w, until r
// reaches EOF (the supervisor closed the pipe: a clean shutdown) or ctx
// is cancelled. A decode failure on the inbound stream or a write
// failure on the outbound one is returned — the worker cannot continue
// past either — and vrbench maps it to the protocol-failure exit code.
func RunWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	// opened holds the workloads this worker has mapped, by path.
	opened := map[string]*workloads.Workload{}
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
		if err := runWorkerCell(ctx, w, spec, opened); err != nil {
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
func runWorkerCell(ctx context.Context, w io.Writer, spec wireCell, opened map[string]*workloads.Workload) error {
	// Heartbeats start before workload lookup: the first worker sent a
	// cell of a workload builds it (graph synthesis, validator precompute
	// — easily longer than the heartbeat deadline), and the others wait
	// on its lock; a silent worker mid-construction must not read as
	// wedged.
	stopHB := startHeartbeats(w, spec.ID, spec.HeartbeatEvery)

	wl, err := sharedWorkload(spec.Dir, spec.Workload, opened)
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

// sharedWorkload returns the named workload as published in the pool's
// directory dir, publishing it first if no worker of the pool has. Under
// an exclusive flock on the workload's lock file, the worker maps the
// published file if there is one; otherwise it builds the workload,
// without memoizing it, writes it under a temporary name, renames it into
// place, maps it and drops the build. The kernel releases a lock when its
// holder dies, so a worker killed mid-build blocks nobody: its
// replacement finds no published file, builds again and overwrites the
// temporary one. A worker runs one cell at a time, so it holds one lock
// at a time. opened keeps what the worker has mapped, by path.
func sharedWorkload(dir, name string, opened map[string]*workloads.Workload) (*workloads.Workload, error) {
	path := filepath.Join(dir, name)
	if wl := opened[path]; wl != nil {
		return wl, nil
	}
	build, err := workloads.Builder(name)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, errors.New("harness: the cell names no pool directory to publish its workload in")
	}
	lock, err := os.OpenFile(path+".lock", os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	defer lock.Close() // closing the lock file releases the lock
	for {
		err = syscall.Flock(int(lock.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("harness: lock %s: %w", lock.Name(), err)
	}
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		if err := workloads.Publish(path+".tmp", build()); err != nil {
			return nil, err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	wl, err := workloads.Open(path)
	if err != nil {
		return nil, err
	}
	opened[path] = wl
	return wl, nil
}

// startHeartbeats begins the per-cell heartbeat stream: a wireMsg every
// `every` with the worker's resident set size, the forensic the supervisor
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
				_ = writeFrame(w, wireMsg{Type: msgHeartbeat, ID: id, RSS: residentBytes()})
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// residentBytes returns the process's resident set size in bytes, from
// the second field of /proc/self/statm (in pages), or 0 where that file
// cannot be read. Unlike the heap figure runtime.ReadMemStats gives, it
// counts the mapped workload images and does not stop the world.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
