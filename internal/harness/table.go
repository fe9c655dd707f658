package harness

import (
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
)

// Table is a formatted experiment result: the textual equivalent of one of
// the paper's tables or figures (figures become row-per-series tables).
type Table struct {
	ID     string // experiment id, e.g. "F7"
	Title  string
	Header []string
	Rows   [][]string // guarded by mu
	Notes  []string   // guarded by mu
	// Errors collects per-cell failures from degrade-gracefully experiment
	// drivers: each entry is one failed run's *RunError (with its machine
	// snapshot). Rendered as a trailing summary; a non-empty list makes
	// vrbench exit non-zero after printing everything.
	Errors []string `json:",omitempty"` // guarded by mu
	// Cancelled counts cells the campaign was interrupted out of running
	// (including cells skipped because a dependency was cancelled). A
	// nonzero count renders a trailing CANCELLED summary and makes
	// vrbench exit with the interrupt status.
	Cancelled int `json:",omitempty"` // guarded by mu

	// mu guards Rows, Notes, Errors and Cancelled so tables tolerate
	// concurrent appends. The sweep engine nevertheless assembles rows,
	// notes and errors serially in declaration order after all cells
	// complete — ordering, not just atomicity, is what keeps parallel
	// output byte-identical.
	mu sync.Mutex
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Rows = append(t.Rows, cells)
}

// AddError records one failed cell in the table's error summary.
func (t *Table) AddError(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Errors = append(t.Errors, err.Error())
}

// AddNote appends one note line.
func (t *Table) AddNote(note string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Notes = append(t.Notes, note)
}

// markCancelled records how many cells the campaign was interrupted out
// of running.
func (t *Table) markCancelled(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Cancelled += n
}

// String renders the table as aligned text. It takes the lock: callers
// render after the sweep completes, but a concurrent AddError from a
// straggling cell must not tear the summary.
func (t *Table) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	if len(t.Errors) > 0 {
		fmt.Fprintf(&sb, "errors (%d cells failed; means cover survivors):\n", len(t.Errors))
		for _, e := range t.Errors {
			fmt.Fprintf(&sb, "  ! %s\n", e)
		}
	}
	if t.Cancelled > 0 {
		fmt.Fprintf(&sb, "CANCELLED: %d cells not run (campaign interrupted); partial results above — resume with -checkpoint PATH -resume\n", t.Cancelled)
	}
	return sb.String()
}

// f formats a float with 2 decimals; fx with the given precision.
func f(v float64) string         { return fmt.Sprintf("%.2f", v) }
func fx(v float64, p int) string { return fmt.Sprintf("%.*f", p, v) }
func d(v uint64) string          { return fmt.Sprintf("%d", v) }
func pct(v float64) string       { return fmt.Sprintf("%.1f%%", v*100) }
