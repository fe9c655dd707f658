// Command vrbench regenerates the paper's tables and figures as formatted
// text, one experiment at a time or all together.
//
// Usage:
//
//	vrbench -exp f7                     # main results figure
//	vrbench -exp all -maxbudget 300000  # everything, faster
//	vrbench -exp f2 -workloads camel,hj8
//	vrbench -exp f7 -faults spike=0.01,spikecycles=2000 -faultseed 7
//	vrbench -exp all -parallel 8        # same bytes, more cores
//	vrbench -exp all -checkpoint run.journal          # crash-safe campaign
//	vrbench -exp all -checkpoint run.journal -resume  # continue it
//
// Experiment ids follow EXPERIMENTS.md: t1 t2 f2 f7 f8 f9 f10 f11 f12 f13 t3.
//
// Experiment cells (one workload × technique × configuration simulation
// each) execute on a bounded worker pool: -parallel N caps the concurrency
// (default GOMAXPROCS). Output is assembled in declaration order, so the
// rendered tables and JSON are byte-identical at every -parallel setting,
// including -parallel 1.
//
// Runs are supervised: a crash or hang in one workload/technique cell
// renders as ERR in its table (with the error and a machine-state snapshot
// in the table's error summary) instead of aborting the campaign.
// -celltimeout bounds each cell's wall clock, so a slow-livelocked cell
// (which the no-commit watchdog cannot see) frees its worker slot;
// -retries re-runs transiently failed cells (timeouts, watchdog trips)
// with a per-attempt derived fault seed and -retrybackoff's deterministic
// doubling delay.
//
// -checkpoint PATH appends every completed cell to a write-ahead journal
// (fsynced records, atomic-rename creation); with -resume, completed
// cells replay from the journal instead of re-simulating, and a campaign
// fingerprint (flags, experiment list, module version) refuses to resume
// a mismatched run. A resumed campaign's output is byte-identical to an
// uninterrupted one's.
//
// SIGINT/SIGTERM shut down gracefully: the first signal drains in-flight
// cells, flushes the journal, and renders the partial tables with a
// CANCELLED summary; a second signal hard-cancels the in-flight cells
// too. Exit codes: 0 success, 1 one or more cells or experiments failed,
// 2 configuration error, 3 worker protocol failure (internal -worker
// mode only), 130 interrupted.
//
// -isolate=process executes every cell in a supervised child process
// (the hidden -worker mode) instead of the supervisor's own: a cell that
// OOMs, hits a runtime-fatal error, or wedges takes down one disposable
// worker, which is killed (SIGTERM, then SIGKILL after a grace period),
// classified, and replaced under a bounded restart budget while the cell
// redispatches with identical inputs. Tables and JSON are byte-identical
// to -isolate=off at every -parallel setting.
//
// Fault injection is scoped per cell: each cell derives its own injector
// from (-faultseed, workload, technique, cell index), so the fault
// sequence a cell sees never depends on execution order and count-based
// faults (panic=N, hang=N) count per cell.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"vrsim/internal/harness"
	"vrsim/internal/mem"
)

// Exit codes, documented in the README: configuration problems are
// distinguishable from cell failures and from interruption.
const (
	exitOK        = 0
	exitRunErr    = 1   // one or more experiments or cells failed
	exitConfig    = 2   // bad flags / spec / journal fingerprint
	exitWorker    = 3   // -worker mode: stdin/stdout protocol failure
	exitInterrupt = 130 // campaign cancelled by SIGINT/SIGTERM (128+SIGINT)
)

func main() {
	os.Exit(run())
}

// configErr reports a configuration problem and returns the config exit
// code.
func configErr(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "vrbench: "+format+"\n", args...)
	return exitConfig
}

func run() int {
	var (
		exp        = flag.String("exp", "f7", "experiment id (t1,t2,f2,f7..f13,t3,a1..a9,all,ablations)")
		budget     = flag.Uint64("maxbudget", 1_000_000, "per-run instruction cap")
		wl         = flag.String("workloads", "", "comma-separated workload subset (default: experiment's set)")
		verbose    = flag.Bool("v", false, "print per-run progress to stderr")
		format     = flag.String("format", "text", "output format: text|json")
		faults     = flag.String("faults", "", "fault injection spec, comma-separated k=v: spike=P,spikecycles=N,drop=P,starve=P,starvecycles=N,panic=N,hang=N")
		faultSeed  = flag.Int64("faultseed", 1, "fault injection RNG seed")
		watchdog   = flag.Uint64("watchdog", 0, "abort a run after this many cycles without a commit (0 = default)")
		parallelN  = flag.Int("parallel", 0, "max concurrent simulation cells (0 = GOMAXPROCS); output is byte-identical at any setting")
		cellTO     = flag.Duration("celltimeout", 0, "wall-clock deadline per cell, e.g. 90s (0 = none)")
		retries    = flag.Int("retries", 0, "re-run transiently failed cells (timeout, watchdog) up to N extra attempts")
		backoff    = flag.Duration("retrybackoff", 0, "base delay before a retry, doubling per attempt (deterministic, no jitter)")
		checkpoint = flag.String("checkpoint", "", "write-ahead journal path: append every completed cell for -resume")
		resume     = flag.Bool("resume", false, "replay completed cells from the -checkpoint journal instead of re-simulating")
		check      = flag.Bool("check", false, "validate every run against the cosimulation oracle and runtime invariant checker; divergences fail their cell permanently")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file (pprof format)")
		memProf    = flag.String("memprofile", "", "write a heap profile (after GC) at campaign end to this file (pprof format)")
		isolate    = flag.String("isolate", "off", "cell execution isolation: off (in-process) or process (supervised child workers; identical output)")
		workerMode = flag.Bool("worker", false, "run as an isolated cell worker over stdin/stdout (internal; spawned by -isolate=process)")
	)
	flag.Parse()

	if *workerMode {
		return runWorker()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return configErr("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return configErr("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// Create (and thus validate) the path up front; the profile itself
		// is captured after the campaign, post-GC, so it reflects retained
		// memory rather than transient garbage.
		f, err := os.Create(*memProf)
		if err != nil {
			return configErr("-memprofile: %v", err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "vrbench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *parallelN < 0 {
		return configErr("-parallel %d: want >= 0", *parallelN)
	}
	switch *isolate {
	case "off", "process":
	default:
		return configErr("-isolate %q: want off or process", *isolate)
	}
	if *retries < 0 {
		return configErr("-retries %d: want >= 0", *retries)
	}
	if *resume && *checkpoint == "" {
		return configErr("-resume needs -checkpoint PATH to resume from")
	}

	opt := harness.Options{
		MaxBudget:      *budget,
		WatchdogCycles: *watchdog,
		Parallel:       *parallelN,
		CellTimeout:    *cellTO,
		MaxRetries:     *retries,
		RetryBackoff:   *backoff,
		Check:          *check,
	}
	if *wl != "" {
		opt.Workloads = strings.Split(*wl, ",")
	}
	if *verbose {
		start := time.Now()
		opt.Progress = func(msg string) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), msg)
		}
	}
	if *faults != "" {
		fc, err := mem.ParseFaultSpec(*faults, *faultSeed)
		if err != nil {
			return configErr("-faults: %v", err)
		}
		opt.Faults = fc
	}

	if *isolate == "process" {
		exe, err := os.Executable()
		if err != nil {
			return configErr("-isolate=process: cannot locate own executable: %v", err)
		}
		workers := *parallelN
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		pool, err := harness.NewWorkerPool(harness.PoolConfig{
			Command: []string{exe, "-worker"},
			Workers: workers,
			Log: func(msg string) {
				fmt.Fprintf(os.Stderr, "vrbench: isolate: %s\n", msg)
			},
		})
		if err != nil {
			return configErr("-isolate=process: %v", err)
		}
		defer pool.Close()
		opt.Pool = pool
	}

	ids := []string{*exp}
	switch *exp {
	case "all":
		ids = []string{"t1", "t2", "f2", "f7", "f8", "f9", "f10", "f11", "f12", "f13", "t3"}
	case "ablations":
		ids = []string{"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
	}
	for _, id := range ids {
		if !knownExperiment(id) {
			return configErr("unknown experiment %q", id)
		}
	}

	if *checkpoint != "" {
		fp := opt.Fingerprint(ids)
		var j *harness.Journal
		var jerr error
		if *resume {
			if _, serr := os.Stat(*checkpoint); serr != nil && os.IsNotExist(serr) {
				// Nothing to resume yet: start fresh so restart loops can
				// pass the same flags on the first and the Nth launch.
				fmt.Fprintf(os.Stderr, "vrbench: -resume: no journal at %s yet; starting fresh\n", *checkpoint)
				j, jerr = harness.CreateJournal(*checkpoint, fp)
			} else {
				j, jerr = harness.ResumeJournal(*checkpoint, fp)
				if jerr == nil {
					fmt.Fprintf(os.Stderr, "vrbench: resuming: %d completed cells replay from %s\n", j.Replayed(), *checkpoint)
				}
			}
		} else {
			if _, serr := os.Stat(*checkpoint); serr == nil {
				return configErr("-checkpoint %s already exists; pass -resume to continue that campaign or remove the file", *checkpoint)
			}
			j, jerr = harness.CreateJournal(*checkpoint, fp)
		}
		if jerr != nil {
			return configErr("-checkpoint: %v", jerr)
		}
		defer j.Close()
		opt.Journal = j
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops new cells from
	// starting and drains the in-flight ones (the journal keeps every
	// completed cell); a second signal hard-cancels the in-flight cells
	// through their cycle-loop context check.
	softCtx, softCancel := context.WithCancel(context.Background())
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	defer softCancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "vrbench: interrupted: draining in-flight cells; partial tables follow (interrupt again to abort the in-flight cells)")
		softCancel()
		if _, ok := <-sig; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "vrbench: interrupted again: cancelling in-flight cells")
		hardCancel()
	}()
	opt.Ctx = softCtx
	opt.AbortCtx = hardCtx

	failed, cancelled := false, false
	for _, id := range ids {
		degraded, wasCancelled, err := runExp(id, opt, *format)
		if err != nil {
			// Keep going: the remaining experiments still produce their
			// tables; the campaign reports failure at the end.
			fmt.Fprintf(os.Stderr, "vrbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		failed = failed || degraded
		cancelled = cancelled || wasCancelled
	}
	switch {
	case cancelled || softCtx.Err() != nil:
		return exitInterrupt
	case failed:
		return exitRunErr
	}
	return exitOK
}

// runWorker is the hidden -worker mode: execute cell specs from stdin,
// stream heartbeats and results to stdout, exit when the supervisor
// closes the pipe. Signals invert their campaign meaning here: SIGINT is
// ignored (the terminal delivers it to the whole foreground process
// group, but draining is the supervisor's decision — workers just finish
// their in-flight cell), and SIGTERM — the supervisor's cancellation
// ladder — hard-cancels the in-flight cell so it reports a structured
// cancellation before the SIGKILL backstop lands.
func runWorker() int {
	signal.Ignore(os.Interrupt)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	defer signal.Stop(term)
	go func() {
		if _, ok := <-term; ok {
			cancel()
		}
	}()
	if err := harness.RunWorker(ctx, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vrbench worker: %v\n", err)
		return exitWorker
	}
	return exitOK
}

// experimentIDs is the set runExp dispatches on.
var experimentIDs = map[string]bool{
	"t1": true, "t2": true, "f2": true, "f7": true, "f8": true, "f9": true,
	"f10": true, "f11": true, "f12": true, "f13": true, "t3": true,
	"a1": true, "a2": true, "a3": true, "a4": true, "a5": true, "a6": true,
	"a7": true, "a8": true, "a9": true,
}

func knownExperiment(id string) bool { return experimentIDs[id] }

// runExp runs one experiment. degraded reports that the experiment
// completed but one or more of its cells failed (the table carries the
// error summary); cancelled reports that the campaign was interrupted
// out of running some of its cells.
func runExp(id string, opt harness.Options, format string) (degraded, cancelled bool, err error) {
	var t *harness.Table
	switch id {
	case "t1":
		t = harness.ExpT1Config()
	case "t2":
		t, err = harness.ExpT2Graphs(opt)
	case "f2":
		t, err = harness.ExpF2ROBSweep(opt)
	case "f7":
		t, _, err = harness.ExpF7Performance(opt)
	case "f8":
		t, err = harness.ExpF8Ablation(opt)
	case "f9":
		t, err = harness.ExpF9MLP(opt)
	case "f10":
		t, err = harness.ExpF10AccuracyCoverage(opt)
	case "f11":
		t, err = harness.ExpF11Timeliness(opt)
	case "f12":
		t, err = harness.ExpF12VectorLength(opt)
	case "f13":
		t, err = harness.ExpF13DelayedTermination(opt)
	case "t3":
		t = harness.ExpT3Hardware()
	case "a1":
		t, err = harness.ExpA1MSHRSweep(opt)
	case "a2":
		t, err = harness.ExpA2BandwidthSweep(opt)
	case "a3":
		t, err = harness.ExpA3Predictors(opt)
	case "a4":
		t, err = harness.ExpA4StridePrefetcher(opt)
	case "a5":
		t, err = harness.ExpA5CoreScaling(opt)
	case "a6":
		t, err = harness.ExpA6LoopBound(opt)
	case "a7":
		t, err = harness.ExpA7RunaheadLineage(opt)
	case "a8":
		t, err = harness.ExpA8Reconverge(opt)
	case "a9":
		t, err = harness.ExpA9ExtraWork(opt)
	default:
		return false, false, fmt.Errorf("unknown experiment %q", id)
	}
	if err != nil {
		return false, false, err
	}
	//vrlint:allow lockcheck -- the experiment driver has returned: all cell goroutines are joined, so these reads are ordered after every guarded write
	degraded, cancelled = len(t.Errors) > 0, t.Cancelled > 0
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return degraded, cancelled, enc.Encode(t)
	}
	fmt.Println(t.String())
	return degraded, cancelled, nil
}
