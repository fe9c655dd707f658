// Golden experiment tables: every listed experiment except T2, rendered
// at a small budget over four kernels under two fault configurations and
// pinned as testdata fixtures. A driver's cell plan fixes which cells run
// and in what order — the order keys journal records and derives each
// cell's fault seed — and its renderer fixes how the surviving cells
// combine into rows. Under faults some cells fail, some retry, and every
// fault sequence follows the cell's index, so a change to either shows
// up here even when fault-free output would not move. T2 is left out
// because it always builds four full-size graphs. Each configuration is
// rendered twice, the second time with one journal without a file shared
// by every experiment, as vrbench runs a campaign: a cell that reuses an
// earlier experiment's outcome must render exactly as if it had been
// simulated. Regenerate intentionally with:
//
//	go test ./internal/harness -run TestExperimentGolden -update-golden

package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrsim/internal/mem"
)

// TestExperimentGolden checks each fault configuration's rendered tables,
// with and without reuse, against its pinned fixture.
func TestExperimentGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  Options
	}{
		// Fails some baselines and some variants, leaves "recovered" and
		// "gave up" retry notes, and perturbs every cell's timing.
		{"faults", Options{
			Faults: mem.FaultConfig{Seed: 7,
				LatencySpikeProb: 0.05, LatencySpikeCycles: 300,
				DropPrefetchProb: 0.1,
				MSHRStarveProb:   0.001, MSHRStarveCycles: 4000},
			WatchdogCycles: 3000,
			MaxRetries:     1,
		}},
		// Fails every cell that runs.
		{"panic", Options{Faults: mem.FaultConfig{PanicAfter: 1}}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opt := c.opt
			opt.MaxBudget = 5000
			opt.Workloads = []string{"camel", "hj8", "kangaroo", "nas-is"}
			render := func(opt Options) string {
				var got strings.Builder
				for _, e := range Experiments {
					if e.ID == "t2" {
						continue
					}
					tab, err := e.Run(opt)
					if err != nil {
						t.Fatalf("%s: %v", e.ID, err)
					}
					got.WriteString(tab.String())
				}
				return got.String()
			}
			got := render(opt)
			path := filepath.Join("testdata", "experiments", c.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			if string(want) != got {
				t.Errorf("rendered tables diverged from the golden fixture %s:\n%s", path, firstDiff(string(want), got))
			}
			opt.Journal = NewJournal()
			if got := render(opt); string(want) != got {
				t.Errorf("with reuse, rendered tables diverged from the golden fixture %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff names the first line where got departs from want, under the
// header of the table that holds it.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	table := ""
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("%s\nline %d\nwant: %s\ngot:  %s", table, i+1, w, g)
		}
		if strings.HasPrefix(w, "== ") {
			table = w
		}
	}
	return "(identical lines; the lengths differ)"
}
