// Wire protocol for process-isolated cell execution. The supervisor and
// its worker processes exchange length-prefixed JSON frames over the
// worker's stdin/stdout: the supervisor sends one wireCell per dispatched
// cell attempt, and the worker streams back periodic heartbeats followed
// by exactly one result-or-error record for that cell. The framing is a
// 4-byte big-endian payload length followed by the JSON payload, so a
// torn write (a worker dying mid-frame) is detectable as a short read
// rather than silently splicing two messages.
//
// Everything on the wire is plain data. A cell's RunConfig serializes
// losslessly (the declarative predictor spec replaced the constructor
// closure precisely for this), results round-trip through the same JSON
// encoding the checkpoint journal already uses, and failures travel as
// wireError — the fields of the worker-side *RunError plus its
// classification bits — so the supervisor reconstructs an error that
// renders byte-identically and classifies (Transient, ErrCancelled)
// exactly as the in-process path's would.

package harness

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// ErrWorkerProtocol reports a torn, oversized or garbled frame — or a
// well-formed frame that violates the protocol (an unknown message type,
// a result for a cell that was never dispatched). It is one of the three
// worker-death classifications procsup.go produces.
var ErrWorkerProtocol = errors.New("harness: worker protocol violation")

// maxFrameLen bounds a frame payload. The largest legitimate message is a
// cell result (a few KB of counters plus, for failures, a panic stack);
// anything beyond this is a corrupt length prefix, and honoring it would
// let one garbled frame allocate gigabytes.
const maxFrameLen = 16 << 20

// writeFrame marshals v and writes it as one length-prefixed frame.
func writeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%w: encode: %v", ErrWorkerProtocol, err)
	}
	if len(payload) > maxFrameLen {
		return fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte bound", ErrWorkerProtocol, len(payload), maxFrameLen)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	// One Write call per frame.
	_, err = w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame payload. io.EOF is returned
// only at a clean frame boundary; a stream ending inside a prefix or a
// payload is a torn frame and reports ErrWorkerProtocol.
func readFrame(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn length prefix: %v", ErrWorkerProtocol, err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame length %d outside (0,%d]", ErrWorkerProtocol, n, maxFrameLen)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: torn frame (%d of %d bytes): %v", ErrWorkerProtocol, 0, n, err)
	}
	return payload, nil
}

// wireCell is one dispatched cell attempt: everything a worker needs to
// execute it, self-contained. The workload travels by name (the pool's
// first worker sent it builds and publishes it in Dir, and every worker
// maps it from there), and RC already carries the attempt's derived
// fault seed — the supervisor runs the ForCellAttempt derivation, so the
// worker never needs to know which attempt it is executing.
type wireCell struct {
	// ID is the supervisor's dispatch id; the worker echoes it on every
	// heartbeat and on the result, which is how the supervisor detects
	// stale or duplicated messages after a redispatch.
	ID int
	// Workload names the cell's workload in the workloads registry.
	Workload string
	// Dir is the pool's directory, which holds the published workloads.
	// cellKey leaves it empty, and the encoding omits it then, so a
	// cell's identity does not depend on the pool that runs it.
	Dir string `json:",omitempty"`
	// RC is the fully resolved run configuration for this attempt.
	RC RunConfig
	// Timeout is the remaining per-cell wall-clock budget (0 = none); the
	// worker enforces it with its own context deadline so a timeout
	// reports as a graceful, snapshot-carrying ErrCellTimeout — the
	// supervisor's heartbeat deadline is only the backstop for a worker
	// too wedged to enforce anything.
	Timeout time.Duration
	// HeartbeatEvery is the heartbeat cadence the supervisor expects.
	HeartbeatEvery time.Duration
}

// Worker→supervisor message types.
const (
	msgHeartbeat = "hb"
	msgResult    = "res"
)

// wireMsg is one worker→supervisor message: a heartbeat or a result.
type wireMsg struct {
	Type string
	// ID echoes the wireCell.ID this message belongs to.
	ID int
	// RSS (heartbeats) is the worker's resident set at the beat in
	// bytes, as its /proc/self/statm reports it: the heap and the pages
	// of the mapped workload images it has touched. It is the forensic
	// the supervisor uses to label a SIGKILLed worker as a probable OOM
	// kill.
	RSS uint64 `json:",omitempty"`
	// Result (results) carries a successful cell's metrics.
	Result *Result `json:",omitempty"`
	// Err (results) carries a failed cell's reconstructed *RunError.
	Err *wireError `json:",omitempty"`
}

// validateMsg checks one decoded message against the protocol and the
// dispatch it should belong to: known type, matching cell id, and — for
// results — exactly one of Result and Err. Violations classify as
// ErrWorkerProtocol.
func validateMsg(m wireMsg, wantID int) error {
	switch m.Type {
	case msgHeartbeat:
	case msgResult:
		if (m.Result != nil) == (m.Err != nil) {
			return fmt.Errorf("%w: result frame with result=%v err=%v (want exactly one)",
				ErrWorkerProtocol, m.Result != nil, m.Err != nil)
		}
	default:
		return fmt.Errorf("%w: unknown message type %q", ErrWorkerProtocol, m.Type)
	}
	if m.ID != wantID {
		return fmt.Errorf("%w: message for cell id %d while cell id %d is in flight", ErrWorkerProtocol, m.ID, wantID)
	}
	return nil
}

// decodeMsg unmarshals one worker→supervisor frame payload.
func decodeMsg(payload []byte) (wireMsg, error) {
	var m wireMsg
	if err := json.Unmarshal(payload, &m); err != nil {
		return m, fmt.Errorf("%w: garbled frame: %v", ErrWorkerProtocol, err)
	}
	return m, nil
}

// wireError is a *RunError flattened for transport: its identifying
// fields, the rendered message of the wrapped error, the machine-state
// snapshot and panic stack (both already plain data), and the
// classification bits the supervisor-side scheduler keys on. The
// reconstruction renders byte-identically to the worker-side original —
// tables, error summaries and journal records cannot tell the modes
// apart.
type wireError struct {
	Workload string
	Tech     Technique
	Phase    string
	// Msg is the rendered message of the wrapped error (RunError.Err),
	// not of the whole RunError — the snapshot is carried structurally.
	Msg      string
	Snapshot *Snapshot `json:",omitempty"`
	Stack    []byte    `json:",omitempty"`

	// Classification bits, captured with errors.Is on the worker where
	// the real sentinel chain still exists.
	Timeout    bool `json:",omitempty"`
	NoProgress bool `json:",omitempty"`
	Cancelled  bool `json:",omitempty"`
}

// newWireError flattens a worker-side cell failure. RunSupervisedContext
// only ever returns *RunError, but a non-RunError is still transported
// faithfully as a permanent run-phase failure rather than dropped.
func newWireError(workload string, tech Technique, err error) *wireError {
	we := &wireError{
		Workload: workload, Tech: tech, Phase: "run", Msg: err.Error(),
		Timeout:    errors.Is(err, ErrCellTimeout),
		NoProgress: errors.Is(err, ErrNoProgress),
		Cancelled:  errors.Is(err, ErrCancelled),
	}
	var re *RunError
	if errors.As(err, &re) {
		we.Workload, we.Tech, we.Phase = re.Workload, re.Tech, re.Phase
		we.Msg = re.Err.Error()
		we.Snapshot, we.Stack = re.Snapshot, re.Stack
	}
	return we
}

// runError reconstructs the supervisor-side *RunError. The inner
// remoteFailure preserves the rendered message and answers errors.Is for
// the sentinels the scheduler classifies by, so Transient(), cancellation
// accounting and table rendering behave exactly as in-process.
func (we *wireError) runError() *RunError {
	return &RunError{
		Workload: we.Workload, Tech: we.Tech, Phase: we.Phase,
		Err:      &remoteFailure{msg: we.Msg, timeout: we.Timeout, noProgress: we.NoProgress, cancelled: we.Cancelled},
		Snapshot: we.Snapshot, Stack: we.Stack,
	}
}

// remoteFailure is the wrapped error of a reconstructed worker failure:
// the original rendering plus Is support for the classification
// sentinels that survived the wire as bits.
type remoteFailure struct {
	msg        string
	timeout    bool
	noProgress bool
	cancelled  bool
}

func (e *remoteFailure) Error() string { return e.msg }

// Is reports the sentinel identities captured on the worker.
func (e *remoteFailure) Is(target error) bool {
	switch target {
	case ErrCellTimeout:
		return e.timeout
	case ErrNoProgress:
		return e.noProgress
	case ErrCancelled:
		return e.cancelled
	default:
		return false
	}
}
