// Command benchdiff records and compares the repository's benchmark
// baselines (the BENCH_PR*.json files at the repo root), guarding the
// hot path's allocation budget between PRs.
//
// Record mode parses `go test -bench -benchmem` output from stdin into a
// baseline file (median per benchmark, with the ns/op quartiles beside
// it, when -count ran it repeatedly):
//
//	go test -bench=. -benchmem -run='^$' . | go run ./scripts/benchdiff -record BENCH_NOW.json
//
// Compare mode diffs two baselines and fails when any benchmark's
// allocs/op regressed by more than -threshold percent, or its ns/op by
// more than -nsthreshold percent. Allocation count is the stable metric
// on shared CI hardware, so it gates tightly; wall-clock is noisy, so
// the ns/op gate is deliberately loose (default 100%, i.e. only a 2×
// slowdown of the recorded median fails) and exists to catch order-of-
// magnitude pathologies, not jitter:
//
//	go run ./scripts/benchdiff -old BENCH_PR18.json -new BENCH_NOW.json -threshold 25 -nsthreshold 100
//
// Only the standard library is used.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark's recorded result, matching the schema of
// the existing BENCH_PR*.json baselines. Iterations is the per-sample
// iteration count; the quartiles give the spread of ns/op over the
// samples (equal to the median for a single sample).
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsP25       float64 `json:"ns_per_op_p25"`
	NsP75       float64 `json:"ns_per_op_p75"`
	BPerOp      int64   `json:"B_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is one BENCH_PR*.json file.
type Baseline struct {
	PR         int         `json:"pr"`
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	CPU        string      `json:"cpu"`
	Note       string      `json:"note"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		record      = flag.String("record", "", "parse `go test -bench` output on stdin and write a baseline JSON file")
		oldFile     = flag.String("old", "", "baseline to compare against")
		newFile     = flag.String("new", "", "candidate baseline")
		threshold   = flag.Float64("threshold", 25, "max tolerated allocs/op regression, percent")
		nsThreshold = flag.Float64("nsthreshold", 100, "max tolerated ns/op regression, percent (100 = 2x)")
		pr          = flag.Int("pr", 0, "PR number stamped into a recorded baseline")
		note        = flag.String("note", "", "note stamped into a recorded baseline")
	)
	flag.Parse()

	switch {
	case *record != "":
		if err := recordBaseline(*record, *pr, *note); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	case *oldFile != "" && *newFile != "":
		regressed, err := compare(*oldFile, *newFile, *threshold, *nsThreshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchdiff: need either -record FILE, or -old FILE -new FILE")
		os.Exit(2)
	}
}

// recordBaseline parses benchmark output from stdin and writes file.
func recordBaseline(file string, pr int, note string) error {
	byName := map[string][]Benchmark{}
	var order []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	cpu := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			continue
		case strings.HasPrefix(line, "cpu:"):
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "goarch:"):
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if _, seen := byName[b.Name]; !seen {
			order = append(order, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(order) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	base := Baseline{
		PR:   pr,
		Date: time.Now().Format("2006-01-02"),
		Go:   runtime.Version(),
		CPU:  cpu,
		Note: note,
	}
	for _, name := range order {
		base.Benchmarks = append(base.Benchmarks, median(byName[name]))
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseBenchLine parses one `go test -bench` result line: the name, the
// iteration count, then value/unit pairs (ns/op, B/op, allocs/op; custom
// ReportMetric units are ignored).
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -N GOMAXPROCS suffix so names stay stable across hosts.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			b.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			b.BPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			b.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return b, true
}

// median reduces repeated runs of one benchmark (-count N) to
// component-wise medians: allocs/op and B/op from the run with median
// allocs/op, ns/op as the median of the ns/op samples independently,
// with their quartiles. The split matters because the metrics are
// differently noisy — the first run of a process pays one-time
// construction (caches, images) that later runs amortize, and wall-clock
// jitters run-to-run, so a single "median run" can pair a representative
// alloc count with an outlier time. Each statistic is the sample at rank
// floor(p·(N-1)), so ties and even counts take the lower middle.
func median(runs []Benchmark) Benchmark {
	sort.Slice(runs, func(i, j int) bool { return runs[i].AllocsPerOp < runs[j].AllocsPerOp })
	m := runs[(len(runs)-1)/2]
	ns := make([]float64, len(runs))
	for i, r := range runs {
		ns[i] = r.NsPerOp
	}
	sort.Float64s(ns)
	rank := func(p float64) float64 { return ns[int(p*float64(len(ns)-1))] }
	m.NsP25, m.NsPerOp, m.NsP75 = rank(0.25), rank(0.5), rank(0.75)
	return m
}

// compare diffs two baselines, printing a per-benchmark table, and
// reports whether any allocation or wall-clock regression exceeds its
// threshold.
func compare(oldFile, newFile string, threshold, nsThreshold float64) (regressed bool, err error) {
	oldBase, err := readBaseline(oldFile)
	if err != nil {
		return false, err
	}
	newBase, err := readBaseline(newFile)
	if err != nil {
		return false, err
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldBase.Benchmarks {
		oldBy[b.Name] = b
	}
	var added []string
	fmt.Printf("%-40s %15s %15s %10s %12s %12s %10s\n",
		"benchmark", "old allocs/op", "new allocs/op", "delta", "old ms/op", "new ms/op", "delta")
	for _, nb := range newBase.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			added = append(added, nb.Name)
			fmt.Printf("%-40s %15s %15d %10s %12s %12.1f %10s\n",
				nb.Name, "(new)", nb.AllocsPerOp, "-", "(new)", nb.NsPerOp/1e6, "-")
			continue
		}
		delete(oldBy, nb.Name)
		delta := allocDelta(ob.AllocsPerOp, nb.AllocsPerOp)
		nsDelta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		mark := ""
		if delta > threshold {
			mark = "  << ALLOC REGRESSION"
			regressed = true
		}
		if nsDelta > nsThreshold {
			mark += "  << TIME REGRESSION"
			regressed = true
		}
		fmt.Printf("%-40s %15d %15d %+9.1f%% %12.1f %12.1f %+9.1f%%%s\n",
			nb.Name, ob.AllocsPerOp, nb.AllocsPerOp, delta, ob.NsPerOp/1e6, nb.NsPerOp/1e6, nsDelta, mark)
	}
	var removed []string
	for name := range oldBy {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Printf("%-40s %15d %15s %10s\n", name, oldBy[name].AllocsPerOp, "(gone)", "-")
	}
	// Name churn is reported explicitly: a silently vanished benchmark is
	// how an allocation gate stops gating (renamed benchmarks look like a
	// removal plus an ungated addition).
	if len(added) > 0 {
		fmt.Printf("\nbenchdiff: %d benchmark(s) not in %s (ungated until the baseline is re-recorded): %s\n",
			len(added), oldFile, strings.Join(added, ", "))
	}
	if len(removed) > 0 {
		fmt.Printf("\nbenchdiff: %d benchmark(s) in %s no longer present: %s\n",
			len(removed), oldFile, strings.Join(removed, ", "))
	}
	if regressed {
		fmt.Printf("\nbenchdiff: regression against %s (allocs/op gate %.0f%%, ns/op gate %.0f%%)\n",
			oldFile, threshold, nsThreshold)
	} else {
		fmt.Printf("\nbenchdiff: allocations within %.0f%% and wall-clock within %.0f%% of %s\n",
			threshold, nsThreshold, oldFile)
	}
	return regressed, nil
}

// pctDelta returns the percentage change from old to new; a zero old
// value gates any nonzero new value hard (treated as +inf percent via a
// large finite number so formatting stays sane).
func pctDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return 1e9
	}
	return (newV - oldV) / oldV * 100
}

// allocDelta returns the percentage change from old to new allocs/op.
// A zero-alloc baseline treats any new allocation as a 100% regression
// per allocation (so the threshold still gates it meaningfully).
func allocDelta(oldN, newN int64) float64 {
	if oldN == 0 {
		return float64(newN) * 100
	}
	return (float64(newN) - float64(oldN)) / float64(oldN) * 100
}

func readBaseline(file string) (Baseline, error) {
	data, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		return Baseline{}, fmt.Errorf(
			"baseline %s does not exist; record one by piping the benchmark runs of `make benchdiff` into `go run ./scripts/benchdiff -record %s`",
			file, file)
	}
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("%s: %w", file, err)
	}
	if len(b.Benchmarks) == 0 {
		return Baseline{}, fmt.Errorf("baseline %s contains no benchmarks; it gates nothing — re-record it", file)
	}
	return b, nil
}
