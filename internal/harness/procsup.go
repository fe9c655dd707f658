// Process supervision for isolated cell execution: one workerProc per
// child process, owning its pipes, its frame-reader goroutine, and the
// kill state machine. The supervisor's job is to convert the many ways a
// child process can die — clean exit, nonzero exit, fatal signal, OOM
// kill, wedge, garbled stream — into the typed worker-death taxonomy the
// pool's redispatch logic acts on:
//
//   - ErrWorkerCrashed: the process exited or was signalled (including a
//     supervisor-initiated kill of a worker that stopped heartbeating).
//   - ErrWorkerOOM: the process died by a SIGKILL the supervisor did not
//     send — on Linux the kernel OOM killer's signature — annotated with
//     the resident set from the worker's last heartbeat as forensics.
//   - ErrWorkerProtocol (wire.go): the byte stream itself was torn or
//     garbled; the process may still be alive but cannot be trusted, so
//     it is killed and reaped before the error is reported.
//
// Hung workers are killed with the SIGTERM → grace → SIGKILL ladder:
// SIGTERM gives the worker's signal handler a chance to cancel the cell
// and report a structured result; SIGKILL is the backstop for a worker
// too wedged to run its handler.

package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"syscall"
	"time"
)

// ErrWorkerCrashed reports a worker process that died — by exit, by
// signal, or by supervisor kill after a missed heartbeat deadline —
// while a cell was in flight.
var ErrWorkerCrashed = errors.New("harness: worker crashed")

// ErrWorkerOOM reports a worker killed by a SIGKILL the supervisor did
// not send: the kernel OOM killer's signature. The error message carries
// the resident set size of the worker's last heartbeat as forensics.
var ErrWorkerOOM = errors.New("harness: worker killed (probable OOM)")

// workerEvent is one item from a worker's frame-reader goroutine: a
// decoded message, or — exactly once, last — the worker's terminal state.
type workerEvent struct {
	msg wireMsg
	// terminal marks the final event: the stream ended and the process
	// was reaped. err carries the stream failure (nil on clean EOF) and
	// wait the process exit state.
	terminal bool
	err      error
	wait     error
}

// workerProc is one supervised child process.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser

	// events carries decoded frames and then one terminal event; it is
	// closed by the reader goroutine after the process is reaped, so
	// receiving the terminal event (or a close) proves the child no
	// longer exists.
	events chan workerEvent
	// done is closed by the reader goroutine once the process is reaped;
	// the kill ladder races it so SIGKILL is skipped for a worker that
	// died on its own during the grace window.
	done chan struct{}

	// Dispatch-loop state: a workerProc executes one cell at a time, and
	// only its current dispatcher touches these, so they need no lock.
	killedByUs   bool   // the supervisor initiated this death
	lastRSS      uint64 // RSS from the most recent heartbeat
	sawHeartbeat bool
}

// startWorkerProc launches argv as a supervised worker: stdin/stdout
// wired to the frame protocol, stderr passed through to the supervisor's
// stderr (worker diagnostics must stay visible but off the result
// stream). The reader goroutine it starts owns both the stdout pipe and
// the reaping cmd.Wait — a single owner, so the final frames of a
// finishing worker are never lost to the Wait/pipe-close race.
func startWorkerProc(argv []string, stderr io.Writer) (*workerProc, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = stderr
	// Each worker leads its own process group, for two reasons: the kill
	// ladder signals the group, so a worker's children (shells fork
	// before exec) cannot outlive it holding the stdout pipe open; and a
	// terminal-delivered SIGINT to the supervisor's foreground group
	// never reaches workers, keeping drain-vs-abort a supervisor
	// decision.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &workerProc{cmd: cmd, stdin: stdin, events: make(chan workerEvent, 16), done: make(chan struct{})}
	go p.readLoop(stdout)
	return p, nil
}

// readLoop drains the worker's stdout into events until the stream ends,
// then reaps the process and emits the terminal event. Running the whole
// lifecycle on one goroutine means every frame the worker managed to
// write before dying is delivered before its death is.
func (p *workerProc) readLoop(stdout io.Reader) {
	var streamErr error
	for {
		payload, err := readFrame(stdout)
		if err != nil {
			if err != io.EOF {
				streamErr = err
			}
			break
		}
		m, err := decodeMsg(payload)
		if err != nil {
			streamErr = err
			break
		}
		p.events <- workerEvent{msg: m}
	}
	if streamErr != nil {
		// The stream is garbled; the process may well still be alive
		// (e.g. wrote garbage and then hung), but nothing it says can be
		// trusted anymore and Wait below must not block on it.
		p.signalGroup(syscall.SIGKILL)
	}
	waitErr := p.cmd.Wait()
	close(p.done)
	p.events <- workerEvent{terminal: true, err: streamErr, wait: waitErr}
	close(p.events)
}

// pid returns the worker's process id for log lines.
func (p *workerProc) pid() int { return p.cmd.Process.Pid }

// terminate starts the kill ladder: SIGTERM now, SIGKILL if the process
// is still alive after grace. It marks the death supervisor-initiated so
// classifyDeath never mistakes the final SIGKILL for an OOM kill. The
// caller still drains events to the terminal event to reap.
func (p *workerProc) terminate(grace time.Duration) {
	p.killedByUs = true
	p.signalGroup(syscall.SIGTERM)
	go func() {
		timer := time.NewTimer(grace)
		defer timer.Stop()
		select {
		case <-timer.C:
			select {
			case <-p.done:
				// Reaped during the grace window; never signal a group
				// id that may since have been recycled.
			default:
				p.signalGroup(syscall.SIGKILL)
			}
		case <-p.done:
		}
	}()
}

// signalGroup signals the worker's whole process group, so children a
// worker command forked (shells, test harness wrappers) die with it
// instead of outliving it with the stdout pipe held open.
func (p *workerProc) signalGroup(sig syscall.Signal) {
	_ = syscall.Kill(-p.cmd.Process.Pid, sig)
}

// reap synchronously runs the kill ladder and consumes events through
// the terminal one. Used for workers being discarded outside a dispatch
// (pool shutdown, protocol violations).
func (p *workerProc) reap(grace time.Duration) {
	_ = p.stdin.Close()
	p.terminate(grace)
	for ev := range p.events {
		if ev.terminal {
			return
		}
	}
}

// shutdown waits out a clean exit (the caller already closed stdin, so
// an idle worker sees EOF and leaves on its own) and escalates to the
// kill ladder only if the worker outstays the grace window.
func (p *workerProc) shutdown(grace time.Duration) {
	_ = p.stdin.Close()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-p.done:
	case <-timer.C:
		p.terminate(grace)
		<-p.done
	}
	// Drain any frames written during wind-down so the reader goroutine
	// can finish delivering its terminal event.
	for range p.events {
	}
}

// classifyDeath maps a dead worker's terminal event into the typed
// taxonomy. Precedence: a torn stream is a protocol failure regardless
// of how the process then exited (the garbled bytes are the primary
// symptom; the exit is fallout), then the OOM signature, then the
// generic crash with its exit code or signal.
func (p *workerProc) classifyDeath(ev workerEvent) error {
	if ev.err != nil {
		if errors.Is(ev.err, ErrWorkerProtocol) {
			return fmt.Errorf("%w (worker pid %d, exit: %v)", ev.err, p.pid(), exitString(ev.wait))
		}
		return fmt.Errorf("%w: stream error from pid %d: %v", ErrWorkerCrashed, p.pid(), ev.err)
	}
	if ws, ok := waitSignal(ev.wait); ok {
		if ws == syscall.SIGKILL && !p.killedByUs {
			if p.sawHeartbeat {
				return fmt.Errorf("%w: pid %d SIGKILLed by the system; resident set at last heartbeat %d bytes (the worker's /proc/self/statm)",
					ErrWorkerOOM, p.pid(), p.lastRSS)
			}
			return fmt.Errorf("%w: pid %d SIGKILLed by the system before its first heartbeat", ErrWorkerOOM, p.pid())
		}
		return fmt.Errorf("%w: pid %d died: signal %v", ErrWorkerCrashed, p.pid(), ws)
	}
	return fmt.Errorf("%w: pid %d %s mid-cell", ErrWorkerCrashed, p.pid(), exitString(ev.wait))
}

// waitSignal extracts the terminating signal from a Wait error, if the
// process died by signal.
func waitSignal(waitErr error) (syscall.Signal, bool) {
	var ee *exec.ExitError
	if !errors.As(waitErr, &ee) {
		return 0, false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() {
		return 0, false
	}
	return ws.Signal(), true
}

// exitString renders a Wait outcome for error messages.
func exitString(waitErr error) string {
	if waitErr == nil {
		return "exited cleanly"
	}
	return waitErr.Error()
}

// dispatch sends one cell spec to the worker and waits for its result,
// enforcing the heartbeat deadline: every heartbeat re-arms the timer,
// and a worker silent past it is presumed wedged and killed. The context
// is the cell's run context — on cancellation the worker is terminated
// (its own SIGTERM handler reports the cell as cancelled if it can), and
// on a deadline the worker is given grace to report its own graceful
// timeout before the ladder starts. A nil error means msg is a validated
// result frame; any non-nil error means the worker is dead and reaped.
func (p *workerProc) dispatch(ctx context.Context, spec wireCell, hbDeadline, grace time.Duration) (wireMsg, error) {
	if err := writeFrame(p.stdin, spec); err != nil {
		// The pipe broke: the worker died between cells. Reap and
		// classify from its terminal event.
		return wireMsg{}, p.awaitDeath(fmt.Errorf("%w: dispatch write to pid %d: %v", ErrWorkerCrashed, p.pid(), err))
	}
	timer := time.NewTimer(hbDeadline)
	defer timer.Stop()
	killReason := error(nil)
	ctxDone := ctx.Done()
	for {
		select {
		case ev, ok := <-p.events:
			if !ok || ev.terminal {
				err := errors.New("worker event stream closed")
				if ok {
					err = p.classifyDeath(ev)
				}
				if killReason != nil {
					err = killReason
				}
				return wireMsg{}, err
			}
			if err := validateMsg(ev.msg, spec.ID); err != nil {
				// The stream is well-framed but semantically garbled;
				// the worker cannot be trusted with another cell.
				p.reapRemaining(grace)
				return wireMsg{}, fmt.Errorf("%w (worker pid %d killed)", err, p.pid())
			}
			if ev.msg.Type == msgHeartbeat {
				p.sawHeartbeat, p.lastRSS = true, ev.msg.RSS
				if killReason == nil {
					// After the cell deadline or a cancel, heartbeats no
					// longer buy time: the grace window stands.
					stopTimer(timer)
					timer.Reset(hbDeadline)
				}
				continue
			}
			if killReason != nil {
				// The worker delivered a structured result after all
				// (e.g. its SIGTERM handler reported the cancellation);
				// prefer the structured outcome, but still reap it — a
				// terminated worker is not returned to the pool.
				p.reapRemaining(grace)
			}
			return ev.msg, nil
		case <-timer.C:
			if killReason == nil {
				killReason = fmt.Errorf("%w: pid %d missed heartbeat deadline (%v); killed", ErrWorkerCrashed, p.pid(), hbDeadline)
			}
			p.terminate(grace)
			return wireMsg{}, p.awaitDeath(killReason)
		case <-ctxDone:
			ctxDone = nil // arm once; keep draining events below
			if ctx.Err() == context.DeadlineExceeded {
				// The cell deadline passed. The worker enforces the same
				// deadline itself and should deliver a graceful timeout
				// result momentarily; re-arm the timer with the kill
				// grace and only escalate if nothing arrives.
				killReason = fmt.Errorf("%w: pid %d unresponsive past the cell deadline; killed", ErrWorkerCrashed, p.pid())
				stopTimer(timer)
				timer.Reset(grace)
				continue
			}
			// Hard cancel: tell the worker now. Its handler cancels the
			// cell and reports ErrCancelled; the grace timer backstops.
			killReason = fmt.Errorf("%w: pid %d killed on campaign cancellation", ErrWorkerCrashed, p.pid())
			p.terminate(grace)
			stopTimer(timer)
			timer.Reset(grace + grace/2)
			continue
		}
	}
}

// awaitDeath drains events to the terminal one and returns the most
// specific error available: the supervisor's kill reason when the death
// was supervisor-initiated, the classified exit otherwise.
func (p *workerProc) awaitDeath(fallback error) error {
	for ev := range p.events {
		if !ev.terminal {
			continue
		}
		if p.killedByUs {
			return fallback
		}
		return p.classifyDeath(ev)
	}
	return fallback
}

// reapRemaining kills the worker and discards events in the background;
// used when the dispatcher already has its outcome and only needs the
// process gone.
func (p *workerProc) reapRemaining(grace time.Duration) {
	_ = p.stdin.Close()
	p.terminate(grace)
	go func() {
		for range p.events {
		}
	}()
}

// stopTimer fully stops a timer so Reset is race-free.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
