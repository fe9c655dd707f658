// Campaign checkpoint/resume. A Journal is a write-ahead log of completed
// sweep cells: after every cell finishes (success or failure, but never
// cancellation) one line-delimited JSON record — cell key, attempt count,
// the full Result or the rendered error — is appended and fsynced. On
// restart, completed cells replay from the journal instead of
// re-simulating, so a multi-hour campaign survives an OOM kill or a
// Ctrl-C at the cost of one lost in-flight cell per worker.
//
// The file is created (and, on resume, compacted) via write-to-temp plus
// atomic rename, so a crash can never leave a half-written header; record
// appends are fsynced, and the decoder tolerates a torn or corrupt tail by
// degrading the damaged records to "re-simulate that cell". A fingerprint
// header — campaign seed, flags, experiment list, module version — guards
// against resuming a journal onto a differently-configured campaign, which
// would silently splice incompatible results into one table.

package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime/debug"
	"sync"
	"time"

	"vrsim/internal/mem"
)

// ErrFingerprintMismatch reports an attempt to resume a journal written by
// a differently-configured campaign.
var ErrFingerprintMismatch = errors.New("harness: journal fingerprint does not match this campaign")

// journalMagic identifies the header line of a campaign journal.
const journalMagic = "vrsim-campaign-journal"

// journalVersion is bumped whenever the record format changes
// incompatibly; a version mismatch refuses to resume.
const journalVersion = 1

// Fingerprint identifies a campaign configuration for resume safety:
// every knob that can change a cell's identity or outcome. Parallelism is
// deliberately absent — output is byte-identical at every -parallel
// setting, so a campaign may be resumed at a different width.
type Fingerprint struct {
	Module      string
	Experiments []string `json:",omitempty"`
	Workloads   []string `json:",omitempty"`
	MaxBudget   uint64
	Watchdog    uint64
	CellTimeout time.Duration
	MaxRetries  int
	Faults      mem.FaultConfig
	// Check records whether the campaign ran with the cosimulation oracle
	// and invariant checker enabled; checked and unchecked campaigns
	// produce identical results on a healthy simulator, but a journal
	// must not silently mix them (a resumed checked campaign would
	// otherwise replay unchecked outcomes). omitempty keeps old journals
	// readable: absent means false, matching every pre-Check campaign.
	Check bool `json:",omitempty"`
}

// Fingerprint derives the campaign fingerprint for these options and the
// given experiment list.
func (o *Options) Fingerprint(experiments []string) Fingerprint {
	return Fingerprint{
		Module:      moduleVersion(),
		Experiments: experiments,
		Workloads:   o.Workloads,
		MaxBudget:   o.MaxBudget,
		Watchdog:    o.WatchdogCycles,
		CellTimeout: o.CellTimeout,
		MaxRetries:  o.MaxRetries,
		Faults:      o.Faults,
		Check:       o.Check,
	}
}

// moduleVersion names the simulator build a journal was written by.
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		return bi.Main.Path + "@" + bi.Main.Version
	}
	return "vrsim@unknown"
}

// journalHeader is the first line of a journal file.
type journalHeader struct {
	Journal     string
	Version     int
	Fingerprint Fingerprint
}

// Record is one journaled cell outcome. Exactly one of Result and Err is
// set; Err stores the rendered *RunError (snapshot and all) so a resumed
// campaign's error summary is byte-identical to the uninterrupted run's.
type Record struct {
	Exp      string
	Index    int
	Workload string
	Tech     string
	Attempts int
	Result   *Result `json:",omitempty"`
	Err      string  `json:",omitempty"`
}

// valid reports whether a decoded record is structurally usable: a cell
// key plus exactly one outcome. Anything else is treated as corruption
// and degrades to re-simulating the cell.
func (r *Record) valid() bool {
	if r.Exp == "" || r.Index < 0 || r.Workload == "" || r.Tech == "" || r.Attempts < 1 {
		return false
	}
	return (r.Result != nil) != (r.Err != "")
}

// recordKey keys the replay map by experiment and cell index — the
// coordinates the sweep engine addresses cells by.
func recordKey(exp string, index int) string { return fmt.Sprintf("%s#%d", exp, index) }

// Journal is an open campaign journal. It is safe for concurrent use by
// the sweep engine's workers.
type Journal struct {
	mu   sync.Mutex
	path string            // immutable after construction; Path() reads it lock-free
	f    *os.File          // vrlint:guardedby mu
	done map[string]Record // vrlint:guardedby mu
	// werr latches the first append failure; journaling stops, simulation
	// continues. vrlint:guardedby mu
	werr error
}

// CreateJournal starts a fresh journal at path, truncating any previous
// campaign there, via write-to-temp and atomic rename.
func CreateJournal(path string, fp Fingerprint) (*Journal, error) {
	hdr, err := json.Marshal(journalHeader{Journal: journalMagic, Version: journalVersion, Fingerprint: fp})
	if err != nil {
		return nil, fmt.Errorf("harness: journal header: %w", err)
	}
	if err := atomicWriteFile(path, append(hdr, '\n')); err != nil {
		return nil, fmt.Errorf("harness: create journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	return &Journal{path: path, f: f, done: map[string]Record{}}, nil
}

// ResumeJournal reopens an existing journal, verifies its fingerprint
// against this campaign's, loads every intact record for replay, and
// compacts the file (dropping any torn tail) via atomic rename before
// reopening it for appends. Corrupt or truncated records are dropped —
// their cells simply re-simulate.
func ResumeJournal(path string, fp Fingerprint) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: resume journal: %w", err)
	}
	hdr, recs, err := decodeJournal(data)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(hdr.Fingerprint, fp) {
		got, _ := json.Marshal(hdr.Fingerprint)
		want, _ := json.Marshal(fp)
		return nil, fmt.Errorf("%w:\n  journal:  %s\n  campaign: %s", ErrFingerprintMismatch, got, want)
	}
	// Compact: header plus every intact record, atomically replacing the
	// old file so a torn tail can never be appended onto.
	var buf bytes.Buffer
	hb, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("harness: journal header: %w", err)
	}
	buf.Write(hb)
	buf.WriteByte('\n')
	done := make(map[string]Record, len(recs))
	for _, rec := range recs {
		rb, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("harness: journal record: %w", err)
		}
		buf.Write(rb)
		buf.WriteByte('\n')
		done[recordKey(rec.Exp, rec.Index)] = rec
	}
	if err := atomicWriteFile(path, buf.Bytes()); err != nil {
		return nil, fmt.Errorf("harness: compact journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	return &Journal{path: path, f: f, done: done}, nil
}

// decodeJournal parses a journal image tolerantly: the header must be
// intact (a campaign with a damaged header cannot be trusted at all), but
// record decoding stops at the first undecodable line — a torn append —
// and structurally invalid records are skipped. Later duplicates of a
// cell key win, matching append order.
func decodeJournal(data []byte) (journalHeader, []Record, error) {
	var hdr journalHeader
	line, rest, _ := bytes.Cut(data, []byte{'\n'})
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, nil, fmt.Errorf("harness: journal header unreadable: %w", err)
	}
	if hdr.Journal != journalMagic {
		return hdr, nil, fmt.Errorf("harness: not a campaign journal (header %.40q)", string(line))
	}
	if hdr.Version != journalVersion {
		return hdr, nil, fmt.Errorf("harness: journal version %d, this build reads %d", hdr.Version, journalVersion)
	}
	var recs []Record
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn or corrupt append; everything from here on is
			// untrustworthy. The cells re-simulate.
			break
		}
		if !rec.valid() {
			continue
		}
		recs = append(recs, rec)
	}
	return hdr, recs, nil
}

// Replayed returns how many completed cells the journal holds for replay.
func (j *Journal) Replayed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// lookup returns the journaled outcome for a cell, keyed by experiment
// and index and cross-checked against the cell's workload and technique —
// a mismatch (a reordered or edited experiment plan that slipped past the
// fingerprint) is treated as a miss and the cell re-simulates.
func (j *Journal) lookup(exp string, index int, workload, tech string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.done[recordKey(exp, index)]
	if !ok || rec.Workload != workload || rec.Tech != tech {
		return Record{}, false
	}
	return rec, true
}

// record appends one completed cell, fsyncing so the record survives the
// process dying right after. The first write failure permanently disables
// journaling (the campaign itself continues); the error is reported to
// the caller each time so the sweep can surface it once per cell.
func (j *Journal) record(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.werr != nil {
		return j.werr
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = j.f.Write(append(b, '\n'))
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.werr = fmt.Errorf("harness: journal append: %w", err)
		return j.werr
	}
	j.done[recordKey(rec.Exp, rec.Index)] = rec
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// atomicWriteFile writes data to path via a temp file in the same
// directory, fsync, and rename, so path always holds either the old or
// the complete new contents.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(dirOf(path), ".journal-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// dirOf returns the directory portion of path ("." for a bare name),
// without pulling in path/filepath for one call.
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			if i == 0 {
				return "/"
			}
			return path[:i]
		}
	}
	return "."
}
