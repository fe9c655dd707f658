package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestMain lets the test binary serve as campaign-isolated's worker: the
// pool re-executes os.Executable() with -worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(runWorker(os.Stderr))
	}
	os.Exit(m.Run())
}

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// syncBuffer is a bytes.Buffer the worker pool's goroutines may write
// concurrently, as they may os.Stderr.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// quickRun is one -quick invocation's parsed output.
type quickRun struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digest    string
}

func runQuick(t *testing.T, workload string, seed int64, trace int) quickRun {
	t.Helper()
	var out bytes.Buffer
	var stderr syncBuffer
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", "0",
		"-trace", strconv.Itoa(trace), "-quick"}
	if code := run(args, &out, &stderr); code != 0 {
		t.Fatalf("%s seed %d trace %d: exit %d\n%s", workload, seed, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("%s: last line is not a JSON object: %q", workload, last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("%s: result lacks %q", workload, k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("%s: result has keys %v, want exactly correct, attempted, failed, metrics", workload, keys)
	}
	var r quickRun
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, workload+" sim_digest "); ok {
			r.digest = d
		}
	}
	return r
}

// TestQuickSmoke runs every workload at smoke-test size under two seeds
// and traced, and checks the results against BENCHMARK.json: no cell
// fails, the digest does not depend on the seed or on tracing, and each
// run emits exactly the declared metrics with their declared units.
func TestQuickSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declaredWorkloads []string
	for _, w := range spec.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	if !slices.Equal(declaredWorkloads, workloadNames()) {
		t.Errorf("BENCHMARK.json declares workloads %v; vrperf runs %v", declaredWorkloads, workloadNames())
	}
	for _, d := range spec.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", d.Name)
		}
	}
	for _, d := range spec.PerLayer {
		if d.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}

	for _, wl := range workloadDefs {
		a := runQuick(t, wl.name, 1, 0)
		b := runQuick(t, wl.name, 2, 0)
		traced := runQuick(t, wl.name, 1, 1)
		for _, r := range []quickRun{a, b, traced} {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.name, r.Correct, r.Attempted, r.Failed)
			}
			if r.digest == "" || r.digest != a.digest {
				t.Errorf("%s: sim_digest %q, want %q under every seed and traced", wl.name, r.digest, a.digest)
			}
		}
		checkEmitted(t, wl.name, a.Metrics, spec.EndToEnd)
		checkEmitted(t, wl.name, traced.Metrics, spec.PerLayer)
	}
}

func checkEmitted(t *testing.T, workload string, got map[string]metric, want []declared) {
	t.Helper()
	for _, d := range want {
		if !metricName.MatchString(d.Name) {
			t.Errorf("declared metric name %q is not valid", d.Name)
		}
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		if !slices.ContainsFunc(want, func(d declared) bool { return d.Name == name }) {
			t.Errorf("%s: emitted metric %s is not declared", workload, name)
		}
	}
}
