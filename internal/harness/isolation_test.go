// Tests for process-isolated cell execution: the wire protocol, the
// worker loop, the crash-classification taxonomy, restart budgets, and
// the acceptance property that isolation never changes a byte of output.
//
// Real worker processes are the test binary itself re-executed with
// -test.run pinned to TestHelperWorkerProcess (the standard helper-
// process idiom), gated by an environment variable so the function is
// inert during a normal test run. Fake workers — processes that exit,
// die by signal, hang, or garble the stream — are /bin/sh one-liners.

package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

// helperWorkerEnv gates TestHelperWorkerProcess; newTestPool sets it so
// child processes (which inherit the environment) become workers.
const helperWorkerEnv = "VRSIM_TEST_WORKER"

// TestHelperWorkerProcess is not a test: it is the worker-process body
// the isolation tests re-execute this binary into. It mirrors vrbench's
// -worker mode, including the SIGTERM-cancels-cell contract, and exits
// directly so the testing framework's summary output never reaches the
// frame stream on stdout.
func TestHelperWorkerProcess(t *testing.T) {
	if os.Getenv(helperWorkerEnv) != "1" {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	go func() {
		<-term
		cancel()
	}()
	if err := RunWorker(ctx, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	os.Exit(0)
}

// helperWorkerArgv returns the argv that turns this test binary into a
// worker process.
func helperWorkerArgv() []string {
	return []string{os.Args[0], "-test.run=^TestHelperWorkerProcess$"}
}

// newTestPool builds a pool over the given command with test-friendly
// supervision latencies, registering cleanup and the helper gate.
func newTestPool(t *testing.T, cfg PoolConfig) *WorkerPool {
	t.Helper()
	t.Setenv(helperWorkerEnv, "1")
	if cfg.Command == nil {
		cfg.Command = helperWorkerArgv()
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 50 * time.Millisecond
	}
	if cfg.HeartbeatDeadline == 0 {
		cfg.HeartbeatDeadline = 2 * time.Second
	}
	if cfg.KillGrace == 0 {
		cfg.KillGrace = time.Second
	}
	if cfg.RestartBackoff == 0 {
		cfg.RestartBackoff = time.Millisecond
	}
	p, err := NewWorkerPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// shWorker builds a fake-worker argv from a shell one-liner.
func shWorker(script string) []string {
	return []string{"/bin/sh", "-c", script}
}

// --- acceptance: isolation changes no bytes ---------------------------------

// TestIsolatedCampaignByteIdentical is the acceptance property: the
// seeded-fault two-experiment campaign rendered through real worker
// processes must match the in-process rendering byte for byte, at serial
// and parallel widths.
func TestIsolatedCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	for _, parallel := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			opt := campaignOpts(parallel)
			golden := runCampaign(t, opt)

			popt := opt
			popt.Pool = newTestPool(t, PoolConfig{Workers: parallel})
			got := runCampaign(t, popt)
			if got != golden {
				t.Errorf("isolated campaign diverged from in-process output:\n--- in-process ---\n%s\n--- isolated ---\n%s", golden, got)
			}
		})
	}
}

// TestIsolatedCellMatchesInProcess pins the single-cell contract the
// campaign property rests on: one real cell through a worker returns the
// identical Result struct.
func TestIsolatedCellMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	w, err := workloads.ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 15_000
	want, err := RunSupervised(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	pool := newTestPool(t, PoolConfig{Workers: 1})
	got, err := pool.Run(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("isolated result diverged:\n in-process: %+v\n isolated:   %+v", want, got)
	}
}

// TestIsolatedSetupErrorTravels: a cell the worker cannot even set up
// (unknown workload — impossible through the drivers, possible through
// the API) comes back as the same setup-phase *RunError the in-process
// path produces.
func TestIsolatedSetupErrorTravels(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	pool := newTestPool(t, PoolConfig{Workers: 1})
	w := workloads.MicroStream(64) // not registered with ByName
	_, err := pool.Run(context.Background(), w, DefaultRunConfig(TechOoO))
	var re *RunError
	if !errors.As(err, &re) || re.Phase != "setup" {
		t.Fatalf("err = %v, want setup-phase *RunError", err)
	}
	if !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("err = %v, want the worker's unknown-workload detail", err)
	}
}

// --- crash classification ----------------------------------------------------

// TestWorkerCrashClassification is the taxonomy table test: fake workers
// that exit nonzero, die by SIGSEGV, die by an un-sent SIGKILL (the OOM
// signature), hang past the heartbeat deadline, and emit torn or garbled
// frames must each classify as their typed error, always as a permanent
// worker-phase failure.
func TestWorkerCrashClassification(t *testing.T) {
	cases := []struct {
		name    string
		command []string
		want    error
		detail  string // substring the classified error must carry
	}{
		{"exit2", shWorker("exit 2"), ErrWorkerCrashed, "exit status 2"},
		{"sigsegv", shWorker("kill -SEGV $$"), ErrWorkerCrashed, "signal"},
		{"oom-sigkill", shWorker("kill -9 $$"), ErrWorkerOOM, "SIGKILL"},
		{"hang", shWorker("sleep 60"), ErrWorkerCrashed, "heartbeat"},
		{"torn-frame", shWorker(`printf '\0\0\0\377torn'; exit 0`), ErrWorkerProtocol, "torn"},
		{"garbled-json", shWorker(`printf '\0\0\0\002{]'; sleep 60`), ErrWorkerProtocol, "garbled"},
		{"oversized-length", shWorker(`printf '\377\377\377\377'; sleep 60`), ErrWorkerProtocol, "length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := newTestPool(t, PoolConfig{
				Command:           tc.command,
				Workers:           1,
				MaxDispatches:     1,
				HeartbeatDeadline: 500 * time.Millisecond,
				KillGrace:         200 * time.Millisecond,
			})
			_, err := pool.Run(context.Background(), workloads.MicroStream(64), DefaultRunConfig(TechOoO))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.detail) {
				t.Errorf("err = %q, want detail %q", err, tc.detail)
			}
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("err = %T, want *RunError", err)
			}
			if re.Phase != "worker" {
				t.Errorf("phase = %q, want worker", re.Phase)
			}
			if re.Transient() {
				t.Error("a worker-infrastructure failure must never classify as transient")
			}
		})
	}
}

// TestWorkerWrongCellID: a well-formed result frame for a cell id that
// was never dispatched is a protocol violation, and the lying worker is
// killed rather than trusted with another cell.
func TestWorkerWrongCellID(t *testing.T) {
	var frame bytes.Buffer
	if err := writeFrame(&frame, wireMsg{Type: msgResult, ID: 999, Result: &Result{}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "frame")
	if err := os.WriteFile(path, frame.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	pool := newTestPool(t, PoolConfig{
		Command:       shWorker(fmt.Sprintf("cat %q; sleep 60", path)),
		Workers:       1,
		MaxDispatches: 1,
		KillGrace:     200 * time.Millisecond,
	})
	_, err := pool.Run(context.Background(), workloads.MicroStream(64), DefaultRunConfig(TechOoO))
	if !errors.Is(err, ErrWorkerProtocol) {
		t.Fatalf("err = %v, want ErrWorkerProtocol", err)
	}
	if !strings.Contains(err.Error(), "999") {
		t.Errorf("err = %q, want the bogus cell id in the detail", err)
	}
}

// --- restart budget and redispatch ------------------------------------------

// TestWorkerCrashRedispatch: a worker that crashes once is replaced and
// the cell redispatches with identical inputs — the caller sees only the
// successful result, and the books show one crash, two starts.
func TestWorkerCrashRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	w, err := workloads.ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 15_000
	want, err := RunSupervised(w, rc)
	if err != nil {
		t.Fatal(err)
	}

	// The first worker start SIGKILLs itself before serving anything;
	// every later start execs the real helper worker.
	marker := filepath.Join(t.TempDir(), "crashed-once")
	script := fmt.Sprintf("if [ ! -e %q ]; then : > %q; kill -9 $$; fi; exec %s %s",
		marker, marker, helperWorkerArgv()[0], helperWorkerArgv()[1])
	pool := newTestPool(t, PoolConfig{
		Command:       shWorker(script),
		Workers:       1,
		MaxDispatches: 3,
	})
	got, err := pool.Run(context.Background(), w, rc)
	if err != nil {
		t.Fatalf("redispatch did not recover: %v", err)
	}
	if got != want {
		t.Errorf("redispatched result diverged:\n want %+v\n got  %+v", want, got)
	}
	st := pool.Stats()
	if st.Crashes != 1 || st.Starts != 2 {
		t.Errorf("stats = %+v, want 1 crash and 2 starts", st)
	}
}

// TestWorkerRestartBudgetExhaustion: crash-looping workers consume the
// deterministic restart budget (Workers+MaxRestarts total starts) and
// then fail fast, with the accounting visible in Stats.
func TestWorkerRestartBudgetExhaustion(t *testing.T) {
	pool := newTestPool(t, PoolConfig{
		Command:       shWorker("exit 2"),
		Workers:       1,
		MaxRestarts:   2,
		MaxDispatches: 3,
	})
	w := workloads.MicroStream(64)
	_, err := pool.Run(context.Background(), w, DefaultRunConfig(TechOoO))
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	if st := pool.Stats(); st.Starts != 3 || st.Crashes != 3 {
		t.Errorf("stats = %+v, want the full budget consumed: 3 starts, 3 crashes", st)
	}
	// The budget is spent: the next cell must fail fast on the lease,
	// not start a fourth process.
	_, err = pool.Run(context.Background(), w, DefaultRunConfig(TechOoO))
	if err == nil || !strings.Contains(err.Error(), "restart budget exhausted") {
		t.Fatalf("err = %v, want restart-budget exhaustion", err)
	}
	if st := pool.Stats(); st.Starts != 3 {
		t.Errorf("starts = %d after exhaustion, want still 3", st.Starts)
	}
}

// TestWorkerCrashDegradesToErrCell: through the sweep engine, a cell
// whose workers keep dying renders as an ERR cell with the typed worker
// error in the table's error summary — the campaign itself survives.
func TestWorkerCrashDegradesToErrCell(t *testing.T) {
	pool := newTestPool(t, PoolConfig{
		Command:       shWorker("exit 2"),
		Workers:       1,
		MaxDispatches: 1,
	})
	opt := &Options{Pool: pool, Parallel: 1}
	tab := &Table{ID: "ISO"}
	s := opt.newSweep(tab)
	c := s.cell(workloads.MicroStream(64), RunConfig{Tech: TechOoO})
	s.run()
	if _, ok := c.result(); ok {
		t.Fatal("cell reported ok despite its workers crashing")
	}
	if !errors.Is(c.err, ErrWorkerCrashed) {
		t.Fatalf("cell err = %v, want ErrWorkerCrashed", c.err)
	}
	if len(tab.Errors) != 1 || !strings.Contains(tab.Errors[0], "worker crashed") {
		t.Errorf("table errors = %v, want one worker-crash entry", tab.Errors)
	}
}

// TestPoolRunFnSelection: the sweep swaps in the pool's run function
// when a pool is configured.
func TestPoolRunFnSelection(t *testing.T) {
	pool := newTestPool(t, PoolConfig{Workers: 1})
	tab := &Table{ID: "SEL"}
	opt := &Options{Pool: pool}
	if s := opt.newSweep(tab); fmt.Sprintf("%p", s.runFn) != fmt.Sprintf("%p", pool.Run) {
		t.Error("sweep with a pool must run through the pool")
	}
}

// TestPoolBuildAllBuildsNothing: under a pool the workers build the
// workloads they run, so buildAll returns workloads holding only their
// names, constructs none, and rejects an unknown name with the error the
// in-process path gives.
func TestPoolBuildAllBuildsNothing(t *testing.T) {
	opt := &Options{Pool: newTestPool(t, PoolConfig{Workers: 1})}
	names := []string{"bfs_kr", "camel", "nas-is"}
	ws, err := opt.buildAll(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if w.Name != names[i] || w.Prog != nil || w.Init != nil || w.Validate != nil || w.Nodes != 0 {
			t.Errorf("buildAll under a pool built %s, want a workload holding only its name", names[i])
		}
	}
	bad := []string{"hj2", "no-such-kernel"}
	_, perr := opt.buildAll(bad)
	_, ierr := (&Options{}).buildAll(bad)
	if perr == nil || ierr == nil || perr.Error() != ierr.Error() {
		t.Errorf("unknown workload: %v under a pool, %v in process; want the same error", perr, ierr)
	}
}

// --- cancellation through the process boundary ------------------------------

// TestIsolatedCancellation: hard-cancelling a cell mid-flight terminates
// the worker and reports a cancellation (never a crash), so the
// scheduler accounts the cell exactly as in-process.
func TestIsolatedCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	w, err := workloads.ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	rc := livelockConfig() // only the cancel can end it
	pool := newTestPool(t, PoolConfig{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	_, err = pool.Run(ctx, w, rc)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestIsolatedCellTimeout: the worker enforces the cell deadline itself
// and reports the same transient, run-phase ErrCellTimeout the
// in-process path does — a timed-out cell is retryable, not a crash.
func TestIsolatedCellTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	w, err := workloads.ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	rc := livelockConfig() // only the deadline can end it
	pool := newTestPool(t, PoolConfig{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = pool.Run(ctx, w, rc)
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	var re *RunError
	if !errors.As(err, &re) || !re.Transient() {
		t.Errorf("err = %v, want a transient run-phase timeout", err)
	}
}

// --- wire-format fidelity ----------------------------------------------------

// TestWireErrorRoundTrip: a *RunError flattened onto the wire and
// reconstructed renders the identical string and answers the identical
// classification queries — the properties table bytes and retry behavior
// depend on.
func TestWireErrorRoundTrip(t *testing.T) {
	snap := &Snapshot{Cycle: 42, Committed: 7, FetchPC: 3, HeadPC: -1,
		ROB: 1, ROBCap: 350, MSHR: 2, MSHRCap: 16, EngineMode: "vr:runahead"}
	cases := []*RunError{
		{Workload: "camel", Tech: TechVR, Phase: "run",
			Err: fmt.Errorf("%w: no commit in 9 cycles", ErrNoProgress), Snapshot: snap},
		{Workload: "hj2", Tech: TechOoO, Phase: "run", Err: ErrCellTimeout, Snapshot: snap},
		{Workload: "hj2", Tech: TechOoO, Phase: "run", Err: ErrCancelled},
		{Workload: "kangaroo", Tech: TechPRE, Phase: "setup", Err: errors.New("bad config")},
		{Workload: "camel", Tech: TechIMP, Phase: "run",
			Err: errors.New("panic: boom"), Snapshot: snap, Stack: []byte("goroutine 1\n...")},
	}
	for _, re := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, wireMsg{Type: msgResult, ID: 1, Err: newWireError(re.Workload, re.Tech, re)}); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeMsg(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateMsg(m, 1); err != nil {
			t.Fatal(err)
		}
		back := m.Err.runError()
		if back.Error() != re.Error() {
			t.Errorf("rendering changed across the wire:\n want %q\n got  %q", re.Error(), back.Error())
		}
		if back.Transient() != re.Transient() {
			t.Errorf("%s: Transient changed across the wire: %v -> %v", re.Workload, re.Transient(), back.Transient())
		}
		for _, sentinel := range []error{ErrCellTimeout, ErrNoProgress, ErrCancelled} {
			if errors.Is(back, sentinel) != errors.Is(re, sentinel) {
				t.Errorf("%s: errors.Is(%v) changed across the wire", re.Workload, sentinel)
			}
		}
		if (back.Stack == nil) != (re.Stack == nil) {
			t.Errorf("%s: panic stack presence changed across the wire", re.Workload)
		}
	}
}

// --- the journal-before-ack write barrier ------------------------------------

// TestJournalWriteBarrierAttemptSeeds proves the kill-safety property the
// journal-before-acknowledge ordering exists for: a supervisor killed at
// ANY instant — before a cell's journal write, between the write and the
// acknowledgement, or after — never re-simulates a cell under different
// attempt seeds on resume. Either the record made it (the cell replays,
// zero re-simulation) or it did not (the cell re-runs from attempt 0,
// re-deriving the exact seed sequence the lost execution used, because
// ForCellAttempt is a pure function of campaign seed and cell identity).
func TestJournalWriteBarrierAttemptSeeds(t *testing.T) {
	base := Options{
		Parallel:   1,
		MaxRetries: 2,
		Faults:     mem.FaultConfig{Seed: 7, LatencySpikeProb: 0.05, LatencySpikeCycles: 300},
	}
	w0 := workloads.MicroStream(64)
	w1 := workloads.MicroChase(64, 8)

	// runOnce executes the two-cell sweep under j, recording the derived
	// fault seed of every simulation attempt per cell. Cell 0 recovers on
	// its second attempt, cell 1 on its third, so the attempt-seed ladder
	// is actually exercised.
	runOnce := func(j *Journal) (seeds [2][]mem.FaultConfig) {
		opt := base
		opt.Journal = j
		tab := &Table{ID: "WB"}
		s := opt.newSweep(tab)
		attempts := map[*workloads.Workload]int{}
		s.runFn = func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
			idx := 0
			if w == w1 {
				idx = 1
			}
			n := attempts[w]
			attempts[w]++
			seeds[idx] = append(seeds[idx], rc.Faults)
			if (idx == 0 && n < 1) || (idx == 1 && n < 2) {
				return Result{}, transientErr
			}
			return okResult(w.Name, rc.Tech), nil
		}
		s.cell(w0, RunConfig{Tech: TechOoO})
		s.cell(w1, RunConfig{Tech: TechVR})
		s.run()
		return seeds
	}

	dir := t.TempDir()
	fp := base.Fingerprint([]string{"WB"})
	full := filepath.Join(dir, "full.journal")
	j, err := CreateJournal(full, fp)
	if err != nil {
		t.Fatal(err)
	}
	golden := runOnce(j)
	j.Close()
	if len(golden[0]) != 2 || len(golden[1]) != 3 {
		t.Fatalf("scripted attempts off: %d/%d, want 2/3", len(golden[0]), len(golden[1]))
	}

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// lines: header, cell-0 record, cell-1 record.
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want header + 2 records", len(lines))
	}

	cases := []struct {
		name string
		keep int // journal lines surviving the "kill"
		// reruns[i] = expected re-simulation attempts for cell i
		reruns [2]int
	}{
		// Killed between cell 0's journal write and its acknowledgement:
		// the record survived, so cell 0 must replay without a single
		// re-simulation and only cell 1 re-runs.
		{"after-journal-before-ack", 2, [2]int{0, 3}},
		// Killed after the result arrived but before the journal write:
		// the record is gone, so the cell re-simulates from attempt 0.
		{"before-journal", 1, [2]int{2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".journal")
			if err := os.WriteFile(path, []byte(strings.Join(lines[:tc.keep], "")), 0o644); err != nil {
				t.Fatal(err)
			}
			rj, err := ResumeJournal(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			defer rj.Close()
			reseeds := runOnce(rj)
			for i := range reseeds {
				if len(reseeds[i]) != tc.reruns[i] {
					t.Fatalf("cell %d re-simulated %d attempts, want %d", i, len(reseeds[i]), tc.reruns[i])
				}
				for a, fc := range reseeds[i] {
					if fc != golden[i][a] {
						t.Errorf("cell %d attempt %d re-ran with a different seed:\n was %+v\n now %+v",
							i, a, golden[i][a], fc)
					}
				}
			}
		})
	}
}
