// Campaign checkpoint/resume and reuse. A Journal is a write-ahead log of
// completed sweep cells: after every cell finishes (success or failure,
// but never cancellation) one line-delimited JSON record — cell position,
// cell identity, attempt count, the full Result or the rendered error —
// is appended and fsynced. On restart, completed cells replay from the
// journal instead of re-simulating, so a multi-hour campaign survives an
// OOM kill or a Ctrl-C at the cost of one lost in-flight cell per worker.
//
// The journal is also the campaign's memory of the simulations it has
// made. A cell's identity is a hash of everything its simulation depends
// on: the workload name and the resolved attempt-0 RunConfig. When a
// later cell has the identity of a successful record — the baseline that
// F7, F9, F10 and F13 all run, say — it reuses that outcome instead of
// simulating again, and is journaled under its own position like any
// other cell. A journal created by NewJournal has no file: it serves
// reuse within one campaign and survives nothing.
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
	"crypto/sha256"
	"encoding/hex"
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
	// Key is the cell's identity (cellKey). A record replays only onto a
	// cell with the same key, so a resumed campaign whose sweep points
	// changed re-simulates the cells that moved. Records written before
	// identities existed have none and replay by position alone.
	Key      string `json:",omitempty"`
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

// cellKey returns a cell's identity: a hash of its workload name and its
// resolved attempt-0 configuration, encoded exactly as a wireCell carries
// them to a worker. The later attempts' fault seeds derive from the same
// cell coordinates as attempt 0's, so equal keys mean equal simulations,
// retries included. A configuration with a NewPredictor constructor has
// no identity (""): no encoding captures a function, and such a cell is
// never reused.
func cellKey(workload string, rc RunConfig) string {
	if rc.CPU.NewPredictor != nil {
		return ""
	}
	b, err := json.Marshal(wireCell{Workload: workload, RC: rc})
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Journal is an open campaign journal. It is safe for concurrent use by
// the sweep engine's workers.
type Journal struct {
	mu   sync.Mutex
	path string            // immutable after construction; Path() reads it lock-free
	f    *os.File          // nil for a journal without a file; guarded by mu
	done map[string]Record // by recordKey; guarded by mu
	// reuse holds the successful records by cell identity, the outcomes a
	// later cell with that identity takes instead of simulating. Guarded
	// by mu.
	reuse map[string]Record
	// werr latches the first append failure; journaling stops, simulation
	// continues. Guarded by mu.
	werr error
}

// NewJournal returns a journal without a file. It keeps a campaign's
// outcomes in memory only, so cells with one identity simulate once, but
// nothing resumes from it.
func NewJournal() *Journal {
	return &Journal{done: map[string]Record{}, reuse: map[string]Record{}}
}

// indexRecord files rec in a journal's maps: in done for replay by position
// and, when it is a success with an identity, in reuse.
func indexRecord(done, reuse map[string]Record, rec Record) {
	done[recordKey(rec.Exp, rec.Index)] = rec
	if rec.Key != "" && rec.Result != nil {
		reuse[rec.Key] = rec
	}
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
	return &Journal{path: path, f: f, done: map[string]Record{}, reuse: map[string]Record{}}, nil
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
	done, reuse := make(map[string]Record, len(recs)), map[string]Record{}
	for _, rec := range recs {
		rb, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("harness: journal record: %w", err)
		}
		buf.Write(rb)
		buf.WriteByte('\n')
		indexRecord(done, reuse, rec)
	}
	if err := atomicWriteFile(path, buf.Bytes()); err != nil {
		return nil, fmt.Errorf("harness: compact journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	return &Journal{path: path, f: f, done: done, reuse: reuse}, nil
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

// Path returns the journal's file path ("" for a journal without a file).
func (j *Journal) Path() string { return j.path }

// lookup returns the journaled outcome for a cell, keyed by experiment
// and index and cross-checked against the cell's workload, technique and
// identity — a mismatch (a reordered or edited experiment plan, or sweep
// points that changed, none of which the fingerprint covers) is treated
// as a miss and the cell re-simulates. A record without an identity
// predates them and is checked by workload and technique only.
func (j *Journal) lookup(exp string, index int, workload, tech, key string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.done[recordKey(exp, index)]
	if !ok || rec.Workload != workload || rec.Tech != tech || (rec.Key != "" && rec.Key != key) {
		return Record{}, false
	}
	return rec, true
}

// reusable returns a successful outcome of a cell with identity key, if
// the journal holds one. Failures are never reused: a cell whose
// identity only ever failed simulates again. Nothing is filed under the
// empty key, so a cell without an identity finds nothing.
func (j *Journal) reusable(key string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.reuse[key]
	return rec, ok
}

// record appends one completed cell, fsyncing so the record survives the
// process dying right after; a journal without a file only indexes it.
// The first write failure permanently disables journaling (the campaign
// itself continues, reusing only what was journaled before); the error
// is reported to the caller each time so the sweep can surface it once
// per cell.
func (j *Journal) record(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.werr != nil {
		return j.werr
	}
	if j.f != nil {
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
	}
	indexRecord(j.done, j.reuse, rec)
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
// the complete new contents. The rename is a change to the directory, so
// the directory is fsynced too: otherwise a power loss could undo it and
// lose the file, and with it every record later appended and fsynced.
func atomicWriteFile(path string, data []byte) error {
	dir := dirOf(path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
