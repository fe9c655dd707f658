package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// --- per-cell wall-clock deadlines -----------------------------------------

// TestCellTimeoutExpiredContext: a cell whose deadline has already passed
// must not simulate a single cycle; it fails as a run-phase, transient,
// snapshot-carrying ErrCellTimeout.
func TestCellTimeoutExpiredContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 10_000
	_, err := RunSupervisedContext(ctx, workloads.MicroStream(256), rc)
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RunError", err)
	}
	if re.Phase != "run" || re.Snapshot == nil {
		t.Errorf("phase=%q snapshot=%v, want run-phase with snapshot", re.Phase, re.Snapshot)
	}
	if !re.Transient() {
		t.Error("timeout must classify as transient")
	}
	if re.Snapshot.Cycle != 0 {
		t.Errorf("expired deadline ran %d cycles, want 0", re.Snapshot.Cycle)
	}
}

// TestCellTimeoutCatchesLivelock: a hang-fault cell with the watchdog
// effectively disabled — the slow-livelock case per-run supervision cannot
// see — must still be evicted by the wall-clock deadline.
func TestCellTimeoutCatchesLivelock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 10_000_000
	rc.WatchdogCycles = 1 << 62 // never trips: the deadline must do the work
	rc.Faults = mem.FaultConfig{Seed: 1, HangAfter: 1}
	start := time.Now()
	_, err := RunSupervisedContext(ctx, workloads.MicroStream(4096), rc)
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline enforcement took %v; the periodic check is not firing", elapsed)
	}
}

// TestBackgroundContextIsFree: RunSupervised must behave exactly as
// before — same results, no check overhead path — when no deadline or
// cancellation is configured.
func TestBackgroundContextIsFree(t *testing.T) {
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 20_000
	w := workloads.MicroStream(256)
	r1, err := RunSupervised(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSupervisedContext(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("context plumbing changed results:\n bare: %+v\n ctx:  %+v", r1, r2)
	}
}

// --- failure classification -------------------------------------------------

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  *RunError
		want bool
	}{
		{"timeout", &RunError{Phase: "run", Err: ErrCellTimeout}, true},
		{"wrapped timeout", &RunError{Phase: "run", Err: fmt.Errorf("init: %w", ErrCellTimeout)}, true},
		{"watchdog", &RunError{Phase: "run", Err: fmt.Errorf("%w: no commit in 5 cycles", ErrNoProgress)}, true},
		{"setup", &RunError{Phase: "setup", Err: ErrCellTimeout}, false},
		{"panic", &RunError{Phase: "run", Err: errors.New("panic: boom"), Stack: []byte("stack")}, false},
		{"cancelled", &RunError{Phase: "run", Err: ErrCancelled}, false},
		{"zero commit", &RunError{Phase: "run", Err: errZeroCommit}, false},
		{"plain error", &RunError{Phase: "run", Err: errors.New("cycle limit")}, false},
	}
	for _, tc := range cases {
		if got := tc.err.Transient(); got != tc.want {
			t.Errorf("%s: Transient() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryBackoffDeterministic: the backoff ladder is a pure function of
// (base, attempt) — doubling, capped, no jitter.
func TestRetryBackoffDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 160, 320, 640, 640, 640}
	for i, w := range want {
		if got := retryBackoff(base, i+1); got != w*time.Millisecond {
			t.Errorf("attempt %d: backoff = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := retryBackoff(0, 3); got != 0 {
		t.Errorf("zero base: backoff = %v, want 0", got)
	}
}

// --- retry machinery (scripted cells) ---------------------------------------

// scriptedSweep builds a single-cell sweep whose runFn executes scripted
// outcomes instead of real simulations; attempt is the 0-based count of
// calls so far (one cell's attempts are strictly sequential).
func scriptedSweep(opt *Options, tab *Table, script func(attempt int, rc RunConfig) (Result, error)) *sweep {
	s := opt.newSweep(tab)
	attempt := 0
	s.runFn = func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
		n := attempt
		attempt++
		return script(n, rc)
	}
	return s
}

func okResult(w string, tech Technique) Result {
	return Result{Workload: w, Tech: tech, Cycles: 1000, Instrs: 500, IPC: 0.5}
}

var transientErr = &RunError{Workload: "m", Tech: TechOoO, Phase: "run",
	Err: fmt.Errorf("%w: no commit in 7 cycles", ErrNoProgress)}

// TestRetryRecoversTransient: a transient first-attempt failure retries
// and recovers; the cell reports ok, the attempt count lands in a
// declaration-order note, and nothing reaches the error summary.
func TestRetryRecoversTransient(t *testing.T) {
	opt := &Options{MaxRetries: 2}
	tab := &Table{ID: "RT"}
	w := workloads.MicroStream(64)
	s := scriptedSweep(opt, tab, func(attempt int, rc RunConfig) (Result, error) {
		if attempt == 0 {
			return Result{}, transientErr
		}
		return okResult(w.Name, rc.Tech), nil
	})
	c := s.cell(w, RunConfig{Tech: TechOoO})
	s.run()
	res, ok := c.result()
	if !ok || res.Instrs != 500 {
		t.Fatalf("cell did not recover: ok=%v res=%+v err=%v", ok, res, c.err)
	}
	if c.attempts != 2 {
		t.Errorf("attempts = %d, want 2", c.attempts)
	}
	if len(tab.Errors) != 0 {
		t.Errorf("recovered cell polluted the error summary: %v", tab.Errors)
	}
	if len(tab.Notes) != 1 || !strings.Contains(tab.Notes[0], "recovered after 2 attempts") {
		t.Errorf("notes = %v, want one 'recovered after 2 attempts' note", tab.Notes)
	}
}

// TestRetryGivesUp: retries are bounded; exhaustion keeps the last error
// and notes the surrender.
func TestRetryGivesUp(t *testing.T) {
	opt := &Options{MaxRetries: 2}
	tab := &Table{ID: "RT"}
	s := scriptedSweep(opt, tab, func(attempt int, rc RunConfig) (Result, error) {
		return Result{}, transientErr
	})
	c := s.cell(workloads.MicroStream(64), RunConfig{Tech: TechOoO})
	s.run()
	if _, ok := c.result(); ok {
		t.Fatal("cell reported ok despite failing every attempt")
	}
	if c.attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + MaxRetries)", c.attempts)
	}
	if len(tab.Errors) != 1 {
		t.Errorf("errors = %v, want the final failure exactly once", tab.Errors)
	}
	if len(tab.Notes) != 1 || !strings.Contains(tab.Notes[0], "gave up after 3 attempts") {
		t.Errorf("notes = %v, want one 'gave up after 3 attempts' note", tab.Notes)
	}
}

// TestPermanentFailureNeverRetries: setup errors and panics run exactly
// once no matter the retry budget.
func TestPermanentFailureNeverRetries(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"setup", &RunError{Phase: "setup", Err: errors.New("bad config")}},
		{"panic", &RunError{Phase: "run", Err: errors.New("panic: boom"), Stack: []byte("s")}},
	} {
		opt := &Options{MaxRetries: 5}
		tab := &Table{ID: "RT"}
		calls := 0
		s := opt.newSweep(tab)
		s.runFn = func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
			calls++
			return Result{}, tc.err
		}
		c := s.cell(workloads.MicroStream(64), RunConfig{Tech: TechOoO})
		s.run()
		if calls != 1 || c.attempts != 1 {
			t.Errorf("%s: calls=%d attempts=%d, want 1/1", tc.name, calls, c.attempts)
		}
	}
}

// TestRetryDerivesPerAttemptFaultSeeds: each retry must see a different —
// but deterministic — fault seed, and attempt 0 must equal the legacy
// ForCell derivation so no-retry campaigns keep their exact fault
// sequences.
func TestRetryDerivesPerAttemptFaultSeeds(t *testing.T) {
	base := mem.FaultConfig{Seed: 9, LatencySpikeProb: 0.5, LatencySpikeCycles: 10}
	opt := &Options{MaxRetries: 2, Faults: base}
	tab := &Table{ID: "RT"}
	var seeds []int64
	s := opt.newSweep(tab)
	s.runFn = func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
		seeds = append(seeds, rc.Faults.Seed)
		return Result{}, transientErr
	}
	w := workloads.MicroStream(64)
	s.cell(w, RunConfig{Tech: TechOoO})
	s.run()
	if len(seeds) != 3 {
		t.Fatalf("seeds = %v, want 3 attempts", seeds)
	}
	if want := base.ForCell(w.Name, string(TechOoO), 0).Seed; seeds[0] != want {
		t.Errorf("attempt 0 seed = %d, want legacy ForCell seed %d", seeds[0], want)
	}
	if seeds[0] == seeds[1] || seeds[1] == seeds[2] || seeds[0] == seeds[2] {
		t.Errorf("attempt seeds not distinct: %v", seeds)
	}
	for i, s2 := range seeds {
		if want := base.ForCellAttempt(w.Name, string(TechOoO), 0, i).Seed; s2 != want {
			t.Errorf("attempt %d seed = %d, want ForCellAttempt %d", i, s2, want)
		}
	}
}

// --- graceful shutdown ------------------------------------------------------

// TestSoftCancelSkipsPendingCells: with the campaign context already
// cancelled, no cell simulates; all are counted cancelled, none as
// errors, and the rendered table carries the CANCELLED summary.
func TestSoftCancelSkipsPendingCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := &Options{Ctx: ctx}
	tab := &Table{ID: "GC", Header: []string{"x"}}
	calls := 0
	s := opt.newSweep(tab)
	s.runFn = func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
		calls++
		return Result{}, nil
	}
	w := workloads.MicroStream(64)
	base := s.cell(w, RunConfig{Tech: TechOoO})
	s.cell(w, RunConfig{Tech: TechVR}, base)
	s.run()
	if calls != 0 {
		t.Errorf("cancelled campaign still simulated %d cells", calls)
	}
	if tab.Cancelled != 2 {
		t.Errorf("Cancelled = %d, want 2 (the dependent counts too)", tab.Cancelled)
	}
	if len(tab.Errors) != 0 {
		t.Errorf("cancellation polluted the error summary: %v", tab.Errors)
	}
	if !strings.Contains(tab.String(), "CANCELLED: 2 cells not run") {
		t.Errorf("rendered table lacks the CANCELLED summary:\n%s", tab.String())
	}
}

// TestHardCancelAbortsInFlight: a cell aborted mid-run by the abort
// context counts as cancelled — not failed — and is never journaled.
func TestHardCancelAbortsInFlight(t *testing.T) {
	dir := t.TempDir()
	j, err := CreateJournal(filepath.Join(dir, "j.journal"), Fingerprint{Module: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	opt := &Options{Journal: j}
	tab := &Table{ID: "GC"}
	s := opt.newSweep(tab)
	s.runFn = func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
		return Result{}, &RunError{Workload: w.Name, Tech: rc.Tech, Phase: "run", Err: ErrCancelled}
	}
	c := s.cell(workloads.MicroStream(64), RunConfig{Tech: TechOoO})
	s.run()
	if !c.cancelled || c.err != nil {
		t.Errorf("cancelled=%v err=%v, want cancelled with no error", c.cancelled, c.err)
	}
	if tab.Cancelled != 1 || len(tab.Errors) != 0 {
		t.Errorf("Cancelled=%d Errors=%v, want 1 and none", tab.Cancelled, tab.Errors)
	}
	if j.Replayed() != 0 {
		t.Errorf("cancelled cell was journaled; it must re-simulate on resume")
	}
}

// TestHardCancelStopsSimulation: a real simulation under an
// already-cancelled abort context stops almost immediately with
// ErrCancelled (not a timeout, not a result).
func TestHardCancelStopsSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 10_000_000
	_, err := RunSupervisedContext(ctx, workloads.MicroStream(256), rc)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	var re *RunError
	if errors.As(err, &re) && re.Transient() {
		t.Error("cancellation must not classify as transient")
	}
}

// --- checkpoint/resume ------------------------------------------------------

// campaignOpts is the seeded-fault campaign the resume tests replay: real
// faults, real cells, two experiments sharing one journal.
func campaignOpts(parallel int) Options {
	return Options{
		MaxBudget: 15_000,
		Workloads: []string{"camel", "hj2"},
		Parallel:  parallel,
		Faults: mem.FaultConfig{
			Seed:               7,
			LatencySpikeProb:   0.05,
			LatencySpikeCycles: 300,
			DropPrefetchProb:   0.1,
		},
	}
}

// runCampaign renders the two-experiment campaign (F9 then F11) under
// opt, returning text+JSON for byte comparison.
func runCampaign(t *testing.T, opt Options) string {
	t.Helper()
	var sb strings.Builder
	t9, err := ExpF9MLP(opt)
	if err != nil {
		t.Fatal(err)
	}
	t11, err := ExpF11Timeliness(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{t9, t11} {
		b, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(tab.String())
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestResumeByteIdentical is the resume-determinism acceptance test: a
// seeded-fault campaign is "killed" by truncating its journal at a cell
// boundary and mid-record, then resumed — at serial and parallel widths —
// and the final rendered tables and JSON must be byte-identical to an
// uninterrupted run's.
func TestResumeByteIdentical(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			opt := campaignOpts(parallel)
			golden := runCampaign(t, opt)

			// A completed journaled campaign: the journal must not change
			// the output either.
			dir := t.TempDir()
			path := filepath.Join(dir, "campaign.journal")
			fp := opt.Fingerprint([]string{"f9", "f11"})
			j, err := CreateJournal(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			jopt := opt
			jopt.Journal = j
			if got := runCampaign(t, jopt); got != golden {
				t.Fatalf("journaled run differs from plain run:\n--- plain:\n%s\n--- journaled:\n%s", golden, got)
			}
			j.Close()
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(strings.TrimRight(string(full), "\n"), "\n")
			if len(lines) < 4 { // header + at least 3 records
				t.Fatalf("journal too small to truncate meaningfully: %d lines", len(lines))
			}

			cuts := map[string]string{
				// Killed exactly between two cells: a clean prefix.
				"cell-boundary": strings.Join(lines[:3], ""),
				// Killed mid-append: the torn record must degrade to
				// re-simulation, never to a parse failure or panic.
				"mid-record": strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2],
			}
			for name, img := range cuts {
				t.Run(name, func(t *testing.T) {
					cut := filepath.Join(dir, name+".journal")
					if err := os.WriteFile(cut, []byte(img), 0o644); err != nil {
						t.Fatal(err)
					}
					rj, err := ResumeJournal(cut, fp)
					if err != nil {
						t.Fatal(err)
					}
					defer rj.Close()
					if rj.Replayed() == 0 {
						t.Error("resume replayed nothing; the truncated journal should still hold completed cells")
					}
					replays := 0
					ropt := opt
					ropt.Journal = rj
					ropt.Progress = func(msg string) {
						if strings.Contains(msg, "replaying") {
							replays++
						}
					}
					if got := runCampaign(t, ropt); got != golden {
						t.Errorf("resumed output differs from uninterrupted run:\n--- golden:\n%s\n--- resumed:\n%s", golden, got)
					}
					if replays == 0 {
						t.Error("no cell replayed from the journal; resume is not actually resuming")
					}
				})
			}
		})
	}
}

// TestResumeFingerprintMismatch: a journal from a differently-configured
// campaign must refuse to resume.
func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	opt := campaignOpts(1)
	j, err := CreateJournal(path, opt.Fingerprint([]string{"f9"}))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := opt
	other.MaxBudget = 99_999 // any outcome-affecting knob
	if _, err := ResumeJournal(path, other.Fingerprint([]string{"f9"})); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
	// Parallelism is excluded from the fingerprint: output is
	// byte-identical at every width, so resuming wider must work.
	wider := opt
	wider.Parallel = 16
	rj, err := ResumeJournal(path, wider.Fingerprint([]string{"f9"}))
	if err != nil {
		t.Fatalf("resume at different -parallel refused: %v", err)
	}
	rj.Close()
}

// TestResumeLegacyFaultScopeHeader: journals written while the
// fingerprint still carried a FaultScope field resume. That field was
// always "cell" in a journal, because campaign-scoped runs never
// journaled, and decoding drops it before the fingerprints are compared.
func TestResumeLegacyFaultScopeHeader(t *testing.T) {
	opt := campaignOpts(1)
	fp := opt.Fingerprint([]string{"f9"})
	hdr, err := json.Marshal(journalHeader{Journal: journalMagic, Version: journalVersion, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(hdr, []byte(`"Faults":`), []byte(`"FaultScope":"cell","Faults":`), 1)
	if bytes.Equal(legacy, hdr) {
		t.Fatalf("header %s has no Faults field to place FaultScope before", hdr)
	}
	rec, err := json.Marshal(Record{Exp: "F9", Index: 0, Workload: "camel", Tech: "ooo", Attempts: 1,
		Result: &Result{Instrs: 1, Cycles: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.journal")
	if err := os.WriteFile(path, append(append(legacy, '\n'), append(rec, '\n')...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := ResumeJournal(path, fp)
	if err != nil {
		t.Fatalf("journal with a FaultScope header refused: %v", err)
	}
	defer j.Close()
	if _, ok := j.lookup("F9", 0, "camel", "ooo"); !ok {
		t.Error("the legacy journal's record does not replay")
	}
}

// TestJournalLookupGuards: a record whose workload/technique disagrees
// with the cell at that key is ignored (the cell re-simulates).
func TestJournalLookupGuards(t *testing.T) {
	dir := t.TempDir()
	j, err := CreateJournal(filepath.Join(dir, "j.journal"), Fingerprint{Module: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := Record{Exp: "F9", Index: 0, Workload: "camel", Tech: "ooo", Attempts: 1,
		Result: &Result{Instrs: 1, Cycles: 1}}
	if err := j.record(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.lookup("F9", 0, "camel", "ooo"); !ok {
		t.Error("exact-key lookup missed")
	}
	if _, ok := j.lookup("F9", 0, "camel", "vr"); ok {
		t.Error("technique mismatch replayed a stale record")
	}
	if _, ok := j.lookup("F9", 0, "hj2", "ooo"); ok {
		t.Error("workload mismatch replayed a stale record")
	}
}
