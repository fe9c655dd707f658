// Lock-discipline tests. Every mutex-guarded field of the harness, and of
// the memory images its cells share, is touched here or in
// TestWorkerConcurrentCrashes and TestRecycledCellsConcurrent from
// goroutines that share no other synchronization, so `go test -race`
// reports a data race as soon as a method that touches the field stops
// taking its lock. DESIGN.md "Static invariants" lists which test covers
// which field.

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vrsim/internal/workloads"
)

// TestTableConcurrentMutation hammers every mutex-guarded Table entry
// point from concurrent goroutines. String() is called mid-flight on
// purpose: it must tolerate renders concurrent with appends.
func TestTableConcurrentMutation(t *testing.T) {
	tab := &Table{ID: "RACE", Title: "race hammer", Header: []string{"a", "b"}}
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tab.AddRow(fmt.Sprintf("w%d", w), fmt.Sprintf("i%d", i))
				tab.AddError(fmt.Errorf("worker %d error %d", w, i))
				tab.AddNote(fmt.Sprintf("note %d/%d", w, i))
				tab.markCancelled(1)
				_ = tab.String()
			}
		}(w)
	}
	wg.Wait()

	if got := len(tab.Rows); got != workers*perWorker {
		t.Errorf("rows = %d, want %d", got, workers*perWorker)
	}
	if got := len(tab.Errors); got != workers*perWorker {
		t.Errorf("errors = %d, want %d", got, workers*perWorker)
	}
	if got := len(tab.Notes); got != workers*perWorker {
		t.Errorf("notes = %d, want %d", got, workers*perWorker)
	}
	if got := tab.Cancelled; got != workers*perWorker {
		t.Errorf("cancelled = %d, want %d", got, workers*perWorker)
	}
	out := tab.String()
	if !strings.Contains(out, "RACE") || !strings.Contains(out, "CANCELLED") {
		t.Errorf("final render missing sections:\n%s", out)
	}
}

// TestSweepProgressSerialized gives the sweep a Progress callback that
// counts its lines in an unguarded variable, safe only because note
// serializes every call. A parallel sweep must deliver one line per
// cell; then note is called from concurrent goroutines directly, as the
// sweep's workers call it, so a note that stops taking its lock is
// reported by the race detector on every run.
func TestSweepProgressSerialized(t *testing.T) {
	delivered := 0 // unguarded on purpose: note's lock is the only protection
	opt := &Options{
		Parallel: 4,
		Progress: func(string) { delivered++ },
	}
	s := opt.newSweep(&Table{ID: "PS"})
	s.runFn = func(ctx context.Context, w *workloads.Workload, rc RunConfig) (Result, error) {
		return okResult(w.Name, rc.Tech), nil
	}
	w := workloads.MicroStream(64)
	for i := 0; i < 16; i++ {
		s.cell(w, RunConfig{Tech: TechOoO})
	}
	s.run()
	if delivered != 16 {
		t.Errorf("callback saw %d lines, want 16 (one line per cell)", delivered)
	}

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.note("[PS#%03d] line %d", g, i)
			}
		}()
	}
	wg.Wait()
	if want := 16 + workers*perWorker; delivered != want {
		t.Errorf("callback saw %d lines, want %d (one per note)", delivered, want)
	}
}

// TestJournalConcurrentUse records cells from several goroutines, each
// also looking its cells up for replay and for reuse, while another
// goroutine reads Replayed and then closes the journal. A record after
// the Close only indexes, so every cell is still found.
func TestJournalConcurrentUse(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "j.journal"), Fingerprint{Module: "m"})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				idx := g*perWorker + i
				key := fmt.Sprintf("k%d", idx)
				rec := Record{Exp: "J", Index: idx, Workload: "camel", Tech: "ooo", Key: key, Attempts: 1,
					Result: &Result{Instrs: 1, Cycles: 1}}
				if err := j.record(rec); err != nil {
					t.Error(err)
					return
				}
				if _, ok := j.lookup("J", idx, "camel", "ooo", key); !ok {
					t.Errorf("cell %d: lookup missed its own record", idx)
				}
				if _, ok := j.reusable(key); !ok {
					t.Errorf("cell %d: no reusable record under its identity", idx)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j.Replayed() < workers*perWorker/2 {
			runtime.Gosched()
		}
		if err := j.Close(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if n := j.Replayed(); n != workers*perWorker {
		t.Errorf("Replayed = %d, want %d", n, workers*perWorker)
	}
}

// TestWorkerPoolCloseDuringRuns runs cells back to back on two goroutines
// over two real workers, so workers are leased, released and leased again
// concurrently, and closes the pool once each goroutine has finished a
// cell. A Run in flight at the Close finishes its cell, and every later
// Run must return the closed pool's error rather than hang or start
// another worker. The last worker out removes the pool's directory.
func TestWorkerPoolCloseDuringRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const streams = 2
	pool := newTestPool(t, PoolConfig{Workers: streams})
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 1000
	ran := make(chan struct{}, streams)
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		go func() {
			for n := 0; ; n++ {
				if _, err := pool.Run(context.Background(), &workloads.Workload{Name: "camel"}, rc); err != nil {
					errs <- err
					return
				}
				if n == 0 {
					ran <- struct{}{}
				}
			}
		}()
	}
	for i := 0; i < streams; i++ {
		select {
		case <-ran:
		case err := <-errs:
			t.Fatalf("a cell failed before the Close: %v", err)
		}
	}
	pool.Close()
	for i := 0; i < streams; i++ {
		select {
		case err := <-errs:
			if !strings.Contains(err.Error(), "worker pool is closed") {
				t.Errorf("err = %v, want the closed pool's error", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a Run did not return after Close")
		}
	}
	if st := pool.Stats(); st.Starts != streams || st.Crashes != 0 {
		t.Errorf("stats = %+v, want %d starts and no crash", st, streams)
	}
	if _, err := os.Stat(pool.dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("pool directory once every Run returned: %v, want it gone", err)
	}
}

// TestRunWorkerFrames runs the worker loop in process over four cells,
// with a heartbeat due every 100µs, into an unsynchronized buffer: the
// first cell builds and publishes camel while heartbeats flow, and every cell's
// heartbeats are due as its result is written. Every frame must decode,
// and each cell's heartbeats must all precede its result. Under -race
// this checks that a cell's heartbeat goroutine has stopped before its
// result frame is written.
func TestRunWorkerFrames(t *testing.T) {
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 3000
	var in bytes.Buffer
	const cells = 4
	dir := t.TempDir()
	for id := 1; id <= cells; id++ {
		if err := writeFrame(&in, wireCell{ID: id, Workload: "camel", Dir: dir, RC: rc, HeartbeatEvery: 100 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := RunWorker(context.Background(), &in, &out); err != nil {
		t.Fatal(err)
	}
	next, beats := 1, 0
	for {
		payload, err := readFrame(&out)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var msg wireMsg
		if err := json.Unmarshal(payload, &msg); err != nil {
			t.Fatalf("frame %q does not decode: %v", payload, err)
		}
		if msg.ID != next {
			t.Fatalf("%s frame for cell %d while cell %d is running", msg.Type, msg.ID, next)
		}
		switch msg.Type {
		case msgHeartbeat:
			beats++
		case msgResult:
			if msg.Err != nil || msg.Result == nil || msg.Result.Instrs == 0 {
				t.Errorf("cell %d: result %+v, error %v", next, msg.Result, msg.Err)
			}
			next++
		default:
			t.Fatalf("frame of unknown type %q", msg.Type)
		}
	}
	if next != cells+1 {
		t.Errorf("%d results, want %d", next-1, cells)
	}
	if beats == 0 {
		t.Error("no heartbeat was written")
	}
}
