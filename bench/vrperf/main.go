// Command vrperf is the simulator's benchmark. Each invocation runs one
// workload in its own process, so workload memoization and copy-on-write
// images never carry set-up from one workload into the next, and prints
// one JSON object as the last line of standard output:
//
//	vrperf --workload hpcdb-techniques --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics (host time,
// simulated throughput, memory, the workload's simulated headline
// speedup); with --trace 1 a separate traced run carries the per-layer
// metrics instead: a CPU profile folded by simulator package, spans
// around the benchmark's own calls, counts read from harness results,
// and replay probes that time single layers on recorded instruction
// streams. Everything is measured from outside the simulator, through
// its public functions.
//
// --seed permutes the order cells (and, on campaign-isolated, experiment
// drivers) run in. The simulated results must not depend on it: the
// printed sim_digest hashes them in canonical order. The run exits
// non-zero when any cell failed or a correctness check did not hold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"vrsim/internal/harness"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every workload to a smoke test: 2k-instruction
	// budgets, the smallest kernel, one pass and one set-up repetition.
	quick bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vrperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the order cells and drivers run in")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "repeat passes (or campaigns) for about this long, at least once")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes: 2k budgets, smallest kernel, one pass")
	worker := fs.Bool("worker", false, "internal: serve cells to a campaign over stdin/stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *worker {
		return runWorker(stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "vrperf: --trace %d: want 0 or 1\n", *trace)
		return 2
	}
	cfg.trace = *trace == 1
	wl, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "vrperf: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		return 2
	}
	rep, err := wl.run(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "vrperf: %s: %v\n", wl.name, err)
		return 1
	}
	if err := rep.write(stdout, wl.name); err != nil {
		fmt.Fprintf(stderr, "vrperf: %v\n", err)
		return 1
	}
	if !rep.correct {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "vrperf: %s: %s\n", wl.name, p)
		}
		return 1
	}
	return 0
}

// runWorker is the hidden worker mode campaign-isolated's pools start.
// SIGINT belongs to the supervisor (it shares the terminal's process
// group); SIGTERM, the pool's kill ladder, cancels the in-flight cell.
func runWorker(stderr io.Writer) int {
	signal.Ignore(os.Interrupt)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	if err := harness.RunWorker(ctx, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(stderr, "vrperf worker: %v\n", err)
		return 3
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	// JSON has no NaN or infinity; every ratio guards its zero base, so
	// this only keeps a missed one from failing the whole report.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	// digest is the SHA-256 of the simulated results in canonical order.
	digest string
	// problems says why correct is false or which cells failed.
	problems []string
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// write prints one "<workload> <metric> <value> <unit>" line per metric,
// the digest, and the result object as the last line.
func (r *report) write(w io.Writer, workload string) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %v %s\n", workload, n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Fprintf(w, "%s sim_digest %s\n", workload, r.digest)
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
