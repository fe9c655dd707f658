// Tests for the workloads a worker pool publishes once and its workers
// map: the opened workload simulates as the built one does, concurrent
// workers publish a workload once, a worker killed while it holds a
// build lock blocks no replacement, and the pool's directory goes with
// the pool.

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vrsim/internal/workloads"
)

// TestOpenedWorkloadMatchesBuilt: a cell on a published and opened
// workload returns the Result it returns on the built one, under every
// technique, with the oracle and the invariant checker on.
func TestOpenedWorkloadMatchesBuilt(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"camel", "nas-is"} {
		built, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := workloads.Publish(path, built); err != nil {
			t.Fatal(err)
		}
		opened, err := workloads.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range append(AllTechniques(), TechRA) {
			rc := DefaultRunConfig(tech)
			rc.MaxBudget = 20_000
			rc.Check = true
			want, err := RunSupervised(built, rc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSupervised(opened, rc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: opened workload returned\n%+v\nbuilt one\n%+v", name, tech, got, want)
			}
		}
	}
}

// TestWorkersPublishOnce runs two worker loops in this process, each
// sent a cell of the same workload at once in the same pool directory.
// Both must return the same result, the directory must hold the one
// published file and its lock, and every mapping of the file in this
// process must be of the file now at its path: a second publish would
// have renamed a new file over the one the first worker mapped.
func TestWorkersPublishOnce(t *testing.T) {
	dir := t.TempDir()
	rc := DefaultRunConfig(TechVR)
	rc.MaxBudget = 5000
	msgs := make([]wireMsg, 2)
	var wg sync.WaitGroup
	for i := range msgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var in, out bytes.Buffer
			if err := writeFrame(&in, wireCell{ID: 1, Workload: "camel", Dir: dir, RC: rc}); err != nil {
				t.Error(err)
				return
			}
			if err := RunWorker(context.Background(), &in, &out); err != nil {
				t.Error(err)
				return
			}
			payload, err := readFrame(&out)
			if err == nil {
				err = json.Unmarshal(payload, &msgs[i])
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, m := range msgs {
		if m.Result == nil {
			t.Fatalf("worker %d: no result (%+v)", i, m.Err)
		}
	}
	if *msgs[0].Result != *msgs[1].Result {
		t.Errorf("the two workers' results differ:\n%+v\n%+v", *msgs[0].Result, *msgs[1].Result)
	}
	if got := dirNames(t, dir); strings.Join(got, " ") != "camel camel.lock" {
		t.Errorf("pool directory holds %v, want camel and camel.lock", got)
	}
	fi, err := os.Stat(filepath.Join(dir, "camel"))
	if err != nil {
		t.Fatal(err)
	}
	ino := strconv.FormatUint(fi.Sys().(*syscall.Stat_t).Ino, 10)
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no mapping list to check: %v", err)
	}
	mapped := 0
	for _, line := range strings.Split(string(maps), "\n") {
		// address perms offset dev inode path
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasPrefix(f[5], filepath.Join(dir, "camel")) {
			continue
		}
		mapped++
		if f[4] != ino || len(f) > 6 {
			t.Errorf("a worker maps %s, not the published file (inode %s)", line, ino)
		}
	}
	if mapped != len(msgs) {
		t.Errorf("%d mappings of the published file, want one per worker", mapped)
	}
}

// TestWorkerKilledHoldingBuildLock: the pool's first worker sent camel
// builds it and then blocks opening the file it publishes to, a FIFO no
// one reads, while it holds camel's build lock. SIGKILLed there, it must
// not block its replacement, which takes the lock, publishes camel and
// returns the in-process result.
func TestWorkerKilledHoldingBuildLock(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	pool := newTestPool(t, PoolConfig{Workers: 1})
	tmp := filepath.Join(pool.dir, "camel.tmp")
	if err := syscall.Mkfifo(tmp, 0o600); err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 15_000
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := pool.Run(context.Background(), &workloads.Workload{Name: "camel"}, rc)
		done <- outcome{res, err}
	}()
	pid := flockHolder(t, filepath.Join(pool.dir, "camel.lock"))
	// The blocked open keeps its FIFO; the replacement creates a file.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	var got outcome
	select {
	case got = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the replacement worker did not finish the cell")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	w, err := workloads.ByName("camel")
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSupervised(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got.res != want {
		t.Errorf("replacement returned\n%+v\nin process\n%+v", got.res, want)
	}
	if st := pool.Stats(); st.Starts != 2 || st.Crashes != 1 {
		t.Errorf("stats = %+v, want 2 starts and 1 crash", st)
	}
	if names := dirNames(t, pool.dir); strings.Join(names, " ") != "camel camel.lock" {
		t.Errorf("pool directory holds %v, want camel and camel.lock", names)
	}
}

// flockHolder waits until a process holds a flock on the file at path,
// which need not exist yet, and returns its pid, read from /proc/locks.
func flockHolder(t *testing.T, path string) int {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		ino := ":" + strconv.FormatUint(fi.Sys().(*syscall.Stat_t).Ino, 10)
		locks, err := os.ReadFile("/proc/locks")
		if err != nil {
			t.Skipf("no lock list to read: %v", err)
		}
		for _, line := range strings.Split(string(locks), "\n") {
			// id: FLOCK ADVISORY WRITE pid maj:min:inode start end
			f := strings.Fields(line)
			if len(f) >= 6 && f[1] == "FLOCK" && strings.HasSuffix(f[5], ino) {
				pid, err := strconv.Atoi(f[4])
				if err != nil {
					t.Fatalf("/proc/locks line %q: %v", line, err)
				}
				return pid
			}
		}
	}
	t.Fatalf("no process took the lock on %s", path)
	return 0
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestWorkerPoolDirectory: a pool's directory is made under TMPDIR,
// holds the workloads its workers published, and is gone once Close
// returns with no worker out on lease.
func TestWorkerPoolDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	pool := newTestPool(t, PoolConfig{Workers: 1})
	if filepath.Dir(pool.dir) != tmp {
		t.Errorf("pool directory %s is not under TMPDIR %s", pool.dir, tmp)
	}
	rc := DefaultRunConfig(TechOoO)
	rc.MaxBudget = 1000
	for _, name := range []string{"camel", "nas-is", "camel"} {
		if _, err := pool.Run(context.Background(), &workloads.Workload{Name: name}, rc); err != nil {
			t.Fatal(err)
		}
	}
	if got := dirNames(t, pool.dir); strings.Join(got, " ") != "camel camel.lock nas-is nas-is.lock" {
		t.Errorf("pool directory holds %v", got)
	}
	pool.Close()
	if _, err := os.Stat(pool.dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("pool directory after Close: %v, want it gone", err)
	}
	if got := dirNames(t, tmp); len(got) != 0 {
		t.Errorf("TMPDIR holds %v after Close", got)
	}
}
