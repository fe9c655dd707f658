package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"vrsim/internal/harness"
)

// campaignParallel is campaign-isolated's cells in flight and pool size:
// one per core of the 2-core host the benchmark was sized on.
const campaignParallel = 2

// campaignDrivers are the cell drivers campaign-isolated runs, in their
// canonical order.
var campaignDrivers = []struct {
	id  string
	run func(harness.Options) (*harness.Table, error)
}{
	{"f2", harness.ExpF2ROBSweep},
	{"f7", func(o harness.Options) (*harness.Table, error) {
		t, _, err := harness.ExpF7Performance(o)
		return t, err
	}},
	{"f8", harness.ExpF8Ablation},
	{"f9", harness.ExpF9MLP},
	{"f10", harness.ExpF10AccuracyCoverage},
	{"f11", harness.ExpF11Timeliness},
	{"f12", harness.ExpF12VectorLength},
	{"f13", harness.ExpF13DelayedTermination},
}

// campaign is one run of every driver.
type campaign struct {
	dur   time.Duration
	spans []time.Duration // per driver, in canonical order
	// tables are the rendered tables in canonical driver order.
	tables string
	failed int
	// The rest is set for isolated campaigns only.
	records       []harness.Record
	journalBytes  int64
	supervisorCPU time.Duration
	// slow is the host's slowdown over the campaign's probes, 1 without.
	slow float64
}

// runCampaign runs the drivers in the given order, checked, two cells in
// flight, taking a host probe before each driver when given one. Given a
// pool, the cells run in its worker processes and are journaled to a
// fresh file in a new directory under journalDir, which is read back and
// removed; otherwise they run in this process, unjournaled.
func runCampaign(kernels []string, budget uint64, order []int, pool *harness.WorkerPool, journalDir string, probe *hostProbe) (c campaign, err error) {
	opt := harness.Options{MaxBudget: budget, Parallel: campaignParallel, Check: true, Workloads: kernels}
	cpu0 := rusage(syscall.RUSAGE_SELF).cpu
	start := time.Now()
	var journal *harness.Journal
	var journalPath string
	if pool != nil {
		dir, err := os.MkdirTemp(journalDir, "vrperf-journal-")
		if err != nil {
			return c, fmt.Errorf("campaign journal: %w", err)
		}
		defer os.RemoveAll(dir)
		ids := make([]string, len(campaignDrivers))
		for i, d := range campaignDrivers {
			ids[i] = d.id
		}
		journalPath = filepath.Join(dir, "campaign.journal")
		if journal, err = harness.CreateJournal(journalPath, opt.Fingerprint(ids)); err != nil {
			return c, err
		}
		defer journal.Close()
		opt.Pool, opt.Journal = pool, journal
	}
	c.spans = make([]time.Duration, len(campaignDrivers))
	tables := make([]string, len(campaignDrivers))
	from := probe.taken()
	for _, i := range order {
		d := campaignDrivers[i]
		probe.sample()
		t0 := time.Now()
		t, err := d.run(opt)
		c.spans[i] = time.Since(t0)
		if err != nil {
			return c, fmt.Errorf("%s: %w", d.id, err)
		}
		tables[i] = t.String()
		c.failed += len(t.Errors) + t.Cancelled
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return c, fmt.Errorf("campaign journal: %w", err)
		}
	}
	c.dur = time.Since(start)
	c.slow = probe.slowdown(from)
	c.supervisorCPU = rusage(syscall.RUSAGE_SELF).cpu - cpu0
	for _, t := range tables {
		c.tables += t
	}
	if journal != nil {
		data, err := os.ReadFile(journalPath)
		if err != nil {
			return c, fmt.Errorf("campaign journal: %w", err)
		}
		c.journalBytes = int64(len(data))
		if c.records, err = journalRecords(data); err != nil {
			return c, err
		}
	}
	return c, nil
}

// journalRecords decodes the cell records of a campaign journal: every
// line after the header.
func journalRecords(data []byte) ([]harness.Record, error) {
	_, rest, _ := bytes.Cut(data, []byte{'\n'})
	var recs []harness.Record
	for _, line := range bytes.Split(rest, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var r harness.Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("campaign journal record: %w", err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// childrenLeft reports whether any child process of this one is still
// running, reaping any that exited unwaited.
func childrenLeft() bool {
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		switch {
		case errors.Is(err, syscall.EINTR):
		case err != nil: // ECHILD: no children at all
			return false
		case pid == 0:
			return true
		}
	}
}

// campaignSpans returns the campaigns' per-driver spans and slowdowns.
func campaignSpans(cs []campaign) ([][]time.Duration, []float64) {
	spans := make([][]time.Duration, len(cs))
	slows := make([]float64, len(cs))
	for i, c := range cs {
		spans[i], slows[i] = c.spans, c.slow
	}
	return spans, slows
}

// runCampaignWorkload runs campaign-isolated on one pool of two workers,
// started with the run, and a fresh journal per campaign, kept beside the
// executable (in .bench_build under run.sh). The first campaign starts
// the workers, which build their kernels: the set-up that setup_s
// measures in this process. That campaign is a warm-up, checked but not
// timed. Untraced, it then repeats campaigns for the
// measuring time, with a host probe before every driver, and reports the
// median over campaigns of each one's time divided by its slowdown, and
// the median set-up divided by the run's. Traced, each isolated campaign is
// followed by the same drivers run in this process without a journal; the
// pairs repeat profiled for half the measuring time and unprofiled, with
// probes, for the other half, and the replay probes finish the run. As on
// the cell workloads, the traced run's times are as measured.
func runCampaignWorkload(cfg config, wl *workload, log io.Writer) (*report, error) {
	kernels, budget := wl.sizes(cfg.quick)
	rng := rand.New(rand.NewSource(cfg.seed))
	rep := &report{correct: true, metrics: metrics{}}

	var prof *profiler
	if cfg.trace {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
		defer prof.finish()
	}
	su, err := measureSetup(kernels, cfg.quick)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own executable for the workers: %w", err)
	}
	pool, err := harness.NewWorkerPool(harness.PoolConfig{
		Command: []string{exe, "-worker"},
		Workers: campaignParallel,
		Stderr:  log,
		Log:     func(msg string) { fmt.Fprintf(log, "vrperf: worker pool: %s\n", msg) },
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	journalDir := filepath.Dir(exe)
	order := func() []int { return rng.Perm(len(campaignDrivers)) }
	// campaigns runs an isolated campaign and, given inProc, the same
	// drivers in this process. The first in-process campaign builds the
	// kernels into this process's workload cache; later ones run warm,
	// like the pool's workers.
	campaigns := func(isolated, inProc *[]campaign, probe *hostProbe) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			c, err := runCampaign(kernels, budget, order(), pool, journalDir, probe)
			*isolated = append(*isolated, c)
			if err != nil || inProc == nil {
				return c.dur, err
			}
			p, err := runCampaign(kernels, budget, order(), nil, "", probe)
			*inProc = append(*inProc, p)
			return c.dur + p.dur, err
		}
	}
	// The first campaign starts the workers, which build their kernels, and
	// took 1.4 to 2 times as long as the next ones: it is checked, not timed.
	warmup, err := runCampaign(kernels, budget, order(), pool, journalDir, nil)
	if err != nil {
		return nil, err
	}
	limit := time.Duration(cfg.seconds * float64(time.Second))
	var runs, tracedRuns, inProcess, tracedInProcess []campaign
	var inProc *[]campaign
	if cfg.trace {
		limit /= 2
		if err := repeat(limit, cfg.quick, campaigns(&tracedRuns, &tracedInProcess, nil)); err != nil {
			return nil, err
		}
		prof.finish()
		inProc = &inProcess
	}
	probe := newHostProbe()
	if err := repeat(limit, cfg.quick, campaigns(&runs, inProc, probe)); err != nil {
		return nil, err
	}
	pool.Close()
	stats := pool.Stats()

	isolatedRuns := slices.Concat([]campaign{warmup}, runs, tracedRuns)
	for i, c := range slices.Concat(isolatedRuns, inProcess, tracedInProcess) {
		rep.attempted += len(c.records)
		for _, r := range c.records {
			if r.Result == nil {
				rep.failed++
			}
		}
		if c.failed > 0 {
			rep.fail("campaign %d: %d cells failed or were cancelled", i, c.failed)
		}
		if c.tables != runs[0].tables {
			rep.fail("campaign %d tables differ from campaign 0", i)
		}
	}
	if stats.Starts > campaignParallel || stats.Crashes > 0 {
		rep.fail("%d worker starts and %d crashes for a pool of %d", stats.Starts, stats.Crashes, campaignParallel)
	}
	if childrenLeft() {
		rep.fail("a worker process outlived its pool")
	}
	if rep.digest, err = digest(runs[0].tables); err != nil {
		return nil, err
	}
	var labelled []labelledResult
	var results []harness.Result
	cpis := map[string]float64{}
	for _, r := range runs[0].records {
		if r.Result == nil {
			continue
		}
		results = append(results, *r.Result)
		if r.Exp != "F7" {
			continue
		}
		labelled = append(labelled, labelledResult{kernel: r.Workload, label: r.Tech, r: *r.Result})
		if r.Tech == string(harness.TechOoO) && r.Result.Instrs > 0 {
			cpis[r.Workload] = float64(r.Result.Cycles) / float64(r.Result.Instrs)
		}
	}
	headline := speedupHmean(labelled, wl.base, wl.target)
	reps, slows := campaignSpans(runs)
	slow := probe.slowdown(0)

	if !cfg.trace {
		endToEnd(rep.metrics, quietMedian(reps, slows), len(runs[0].records), results, su.total/slow, headline)
		return rep, nil
	}
	_, wall := medianSpans(reps)
	tracedReps, _ := campaignSpans(tracedRuns)
	_, tracedWall := medianSpans(tracedReps)
	inProcessReps, _ := campaignSpans(inProcess)
	_, inProcessWall := medianSpans(inProcessReps)
	rep.metrics.set("trace.host_slowdown", slow, "ratio")
	var supervisorCPU time.Duration
	for _, c := range isolatedRuns {
		supervisorCPU += c.supervisorCPU
	}
	n := time.Duration(len(isolatedRuns))
	folded, err := prof.folded()
	if err != nil {
		return nil, err
	}
	setProfile(rep.metrics, folded, prof.alloc)
	setModel(rep.metrics, results)
	setSpans(rep.metrics, nil, nil, nil)
	harnessLayer{
		run:           inProcessWall,
		campaign:      wall,
		isolation:     wall - inProcessWall,
		starts:        stats.Starts,
		crashes:       stats.Crashes,
		workerCPU:     rusage(syscall.RUSAGE_CHILDREN).cpu / n,
		supervisorCPU: supervisorCPU / n,
		journalBytes:  runs[0].journalBytes,
	}.set(rep.metrics)
	setSetup(rep.metrics, su)
	rep.metrics.set("trace.overhead_frac", tracedWall.Seconds()/wall.Seconds()-1, "ratio")
	if err := setReplay(rep.metrics, su.ws, kernels, cpis, cfg.quick); err != nil {
		return nil, err
	}
	return rep, nil
}
