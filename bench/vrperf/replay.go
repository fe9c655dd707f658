package main

import (
	"time"

	"vrsim/internal/cpu"
	"vrsim/internal/harness"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/prefetch"
	"vrsim/internal/workloads"
)

// Replay probes time one layer at a time on a kernel's own functional
// instruction stream, recorded once through the interpreter: the
// interpreter itself, the memory hierarchy with and without the
// prefetchers, and the branch predictor.

// access is one recorded memory operation.
type access struct {
	instr uint64 // dynamic index of the instruction that made it
	addr  uint64
	pc    int
	write bool
}

type branchOutcome struct {
	pc    int
	taken bool
}

// stream is a kernel's recorded functional execution.
type stream struct {
	// instrs, loads and stores are the interpreter's own counts.
	instrs, loads, stores uint64
	accesses              []access
	branches              []branchOutcome // conditional branches only
}

// recorder is an isa.Memory that records each access on its way to the
// backing store, tagged with the instruction the loop says is executing.
type recorder struct {
	data  *mem.Backing
	s     *stream
	pc    int
	instr uint64
}

func (r *recorder) Load(addr uint64) uint64 {
	r.s.accesses = append(r.s.accesses, access{instr: r.instr, addr: addr, pc: r.pc})
	return r.data.Load(addr)
}

func (r *recorder) Store(addr, val uint64) {
	r.s.accesses = append(r.s.accesses, access{instr: r.instr, addr: addr, pc: r.pc, write: true})
	r.data.Store(addr, val)
}

// record runs w's program for up to n instructions from a fresh memory
// image and returns what it did.
func record(w *workloads.Workload, n uint64) *stream {
	s := &stream{}
	rec := &recorder{data: w.Fresh(), s: s}
	it := isa.NewInterp(w.Prog, rec)
	for it.Executed < n {
		pc := it.PC
		rec.pc, rec.instr = pc, it.Executed
		in := w.Prog.At(pc)
		if !it.Step() {
			break
		}
		if in.IsCondBranch() {
			s.branches = append(s.branches, branchOutcome{pc: pc, taken: it.PC != pc+1})
		}
	}
	s.instrs, s.loads, s.stores = it.Executed, it.Loads, it.Stores
	return s
}

// replayHierarchy assembles the memory system harness.Run builds for rc:
// the configured hierarchy, the stream prefetcher unless disabled, and
// IMP under the imp technique.
func replayHierarchy(rc harness.RunConfig, data *mem.Backing) (*mem.Hierarchy, error) {
	h, err := mem.NewHierarchy(rc.Mem)
	if err != nil {
		return nil, err
	}
	h.Data = data
	var parts []mem.Prefetcher
	if !rc.DisableStridePrefetcher {
		parts = append(parts, prefetch.NewStreamPrefetcher(16, 4))
	}
	if rc.Tech == harness.TechIMP {
		parts = append(parts, prefetch.NewIMP())
	}
	switch len(parts) {
	case 1:
		h.SetPrefetcher(parts[0])
	case 2:
		h.SetPrefetcher(&prefetch.Combined{Parts: parts})
	}
	return h, nil
}

// replayAccesses issues the recorded accesses as demand traffic, clocked
// at cpi cycles per instruction.
func replayAccesses(h *mem.Hierarchy, as []access, cpi float64) {
	for _, a := range as {
		h.Access(uint64(float64(a.instr)*cpi), a.pc, a.addr, a.write, mem.ClassDemand, mem.SrcDemand)
	}
}

// probe repeats an untimed prepare and a timed run, which makes calls
// calls, at least three times and until the timed total reaches
// minTotal, and returns the median nanoseconds per call.
func probe(minTotal time.Duration, calls int, prepare func() (run func(), err error)) (float64, error) {
	if calls == 0 {
		return 0, nil
	}
	var per []float64
	var total time.Duration
	for total < minTotal || len(per) < 3 {
		run, err := prepare()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		run()
		d := time.Since(t0)
		total += d
		per = append(per, float64(d.Nanoseconds())/float64(calls))
	}
	return median(per), nil
}

// weighted accumulates per-kernel probe results into a mean per call
// over all kernels' calls.
type weighted struct{ ns, calls float64 }

func (w *weighted) add(nsPerCall float64, calls int) {
	w.ns += nsPerCall * float64(calls)
	w.calls += float64(calls)
}

func (w weighted) mean() float64 { return ratio(w.ns, w.calls) }

// setReplay records each kernel's stream and sets the replay-probe
// metrics. cpis holds each kernel's simulated ooo cycles per instruction,
// which clocks the hierarchy replays.
func setReplay(m metrics, ws map[string]*workloads.Workload, kernels []string, cpis map[string]float64, quick bool) error {
	n, minTotal := uint64(200_000), 200*time.Millisecond
	if quick {
		n, minTotal = 20_000, 10*time.Millisecond
	}
	noPrefetch := harness.DefaultRunConfig(harness.TechOoO)
	noPrefetch.DisableStridePrefetcher = true
	hierProbes := []struct {
		rc  harness.RunConfig
		acc *weighted
	}{
		{noPrefetch, new(weighted)},
		{harness.DefaultRunConfig(harness.TechOoO), new(weighted)},
		{harness.DefaultRunConfig(harness.TechIMP), new(weighted)},
	}
	var interp, tage weighted
	for _, k := range kernels {
		w := ws[k]
		s := record(w, n)
		cpi := cpis[k]
		if cpi == 0 {
			cpi = 1
		}
		ns, err := probe(minTotal, int(s.instrs), func() (func(), error) {
			it := isa.NewInterp(w.Prog, w.Fresh())
			return func() {
				for it.Executed < s.instrs && it.Step() {
				}
			}, nil
		})
		if err != nil {
			return err
		}
		interp.add(ns, int(s.instrs))
		for _, hp := range hierProbes {
			ns, err := probe(minTotal, len(s.accesses), func() (func(), error) {
				h, err := replayHierarchy(hp.rc, w.Fresh())
				return func() { replayAccesses(h, s.accesses, cpi) }, err
			})
			if err != nil {
				return err
			}
			hp.acc.add(ns, len(s.accesses))
		}
		ns, err = probe(minTotal, len(s.branches), func() (func(), error) {
			p := cpu.DefaultConfig().Predictor.New()
			return func() {
				var hist uint64
				for _, b := range s.branches {
					p.Predict(b.pc, hist)
					p.Update(b.pc, hist, b.taken)
					hist <<= 1
					if b.taken {
						hist |= 1
					}
				}
			}, nil
		})
		if err != nil {
			return err
		}
		tage.add(ns, len(s.branches))
	}
	m.set("isa.replay_ns_per_instr", interp.mean(), "ns/instr")
	m.set("mem.replay_ns_per_access", hierProbes[0].acc.mean(), "ns/access")
	m.set("prefetch.replay_stride_ns_per_access", hierProbes[1].acc.mean(), "ns/access")
	m.set("prefetch.replay_imp_ns_per_access", hierProbes[2].acc.mean(), "ns/access")
	m.set("branch.replay_ns_per_branch", tage.mean(), "ns/branch")
	return nil
}
