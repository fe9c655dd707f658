// Golden retired-instruction traces: the first commits of every
// benchmark, captured in the oracle package's technique-invariant trace
// format and pinned as testdata fixtures. The architectural commit stream
// is a function of the program alone — runahead engines only prefetch —
// so one fixture per workload constrains all six techniques, and any
// silent change to dispatch, commit or value semantics shows up as a
// fixture diff. Regenerate intentionally with:
//
//	go test ./internal/harness -run TestGoldenRetiredTraces -update-golden

package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vrsim/internal/oracle"
	"vrsim/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden fixtures: retired traces, simulated timing and experiment tables")

// goldenTraceLen is how many leading commits each fixture pins.
const goldenTraceLen = 64

// goldenTrace captures the first goldenTraceLen commits of w under tech.
// Each capture assembles a fresh instance (with a fresh memory image from
// w.Fresh), so no state leaks between techniques.
func goldenTrace(t *testing.T, w *workloads.Workload, tech Technique) string {
	t.Helper()
	rc := DefaultRunConfig(tech)
	in, err := newInstance(w, rc)
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, tech, err)
	}
	rec := &oracle.TraceRecorder{Max: goldenTraceLen}
	in.c.CommitObserver = rec.OnCommit
	if err := in.c.Run(goldenTraceLen * 4); err != nil {
		t.Fatalf("%s/%s: %v", w.Name, tech, err)
	}
	if !rec.Full() {
		t.Fatalf("%s/%s: recorded only %d of %d commits", w.Name, tech, len(rec.Lines()), goldenTraceLen)
	}
	return rec.Text()
}

// TestGoldenRetiredTraces checks every workload's leading commit stream
// against its pinned fixture, under every technique.
func TestGoldenRetiredTraces(t *testing.T) {
	for _, w := range smallWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ref := goldenTrace(t, w, TechOoO)
			for _, tech := range checkedTechniques()[1:] {
				if got := goldenTrace(t, w, tech); got != ref {
					t.Errorf("%s: retired stream differs from the baseline's — runahead changed architectural behavior\nbaseline:\n%s\ngot:\n%s",
						tech, ref, got)
				}
			}
			path := filepath.Join("testdata", "goldentrace", w.Name+".trace")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(ref), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			if string(want) != ref {
				t.Errorf("retired stream diverged from the golden fixture %s\nwant:\n%s\ngot:\n%s", path, want, ref)
			}
		})
	}
}
