package main

import (
	"math/rand"
	"time"
)

// The benchmark's host is shared: other tenants' work slows the same
// simulator code by up to 2x, for minutes at a time, so a time measured in
// one run says as much about the host as about the simulator. A host
// probe measures the host: a fixed piece of work, independent of the
// simulator, timed before every cell (or campaign driver) of the measured
// passes. A pass's slowdown is its probes' mean time over their time on a
// quiet host, and the pass's time is divided by it, so it reads as the
// time the same work takes on the reference host at a quiet time.
//
// The probe does what slows down with the simulator: independent
// hash-map lookups and updates over a table of a few MiB, larger than a
// core's L2 cache, which the cell just run has evicted, so that they go
// to the last-level cache and memory the host's tenants share. On the
// 2-vCPU KVM guest (Xeon, Sapphire Rapids) the benchmark was sized on,
// twelve 15-second runs each of ooo-rob-sweep, hpcdb-techniques and
// gap-graphs, at a noisy time, spread by 38%, 26% and 30% in raw time
// (the interquartile range over the median). Dividing each run by its
// probes' mean left 7.3%, 6.4% and 7.5%; dividing each pass by its own
// probes' mean, and taking the median pass, left 2.6%, 4.6% and 6.0%.
// In ten-run sets at other times, the log of the raw time against the
// log of the probe's mean had a slope of 0.8 to 1.1. Other probes tracked
// the slowdown less well: dividing by the median of the same probe, by
// the same lookups on a warmed table, by a register-only loop or by a
// pointer chase left the worst workload's spread at 13% to 23%, against
// 6% for this probe's mean.
//
// Because the probe runs in the cache state the preceding cell leaves, a
// change that shrank the simulator's cache footprint far enough to leave
// the probe's table in L2 would speed up the probe as well, and so show
// less than its whole gain. With the table out of L2 the probe takes
// about 4.5 ms, and with it warm about 2.7 ms.

const (
	probeKeys    = 100_000
	probeLookups = 30_000
	// probeQuiet is the probe's mean time at a quiet time on the
	// reference host: the tenth percentile of the run means of 53 runs
	// over all four workloads.
	probeQuiet = 3.7 * float64(time.Millisecond)
)

// hostProbe is the probe's table and the times of the probes taken.
type hostProbe struct {
	table   map[uint64]uint64
	keys    []uint64
	sink    uint64
	samples []time.Duration
}

func newHostProbe() *hostProbe {
	p := &hostProbe{table: make(map[uint64]uint64, probeKeys), keys: make([]uint64, probeKeys)}
	rng := rand.New(rand.NewSource(1))
	for i := range p.keys {
		p.keys[i] = rng.Uint64()
		p.table[p.keys[i]] = uint64(i)
	}
	return p
}

// sample times one probe; on a nil probe it does nothing. Its updates
// store into existing keys, so it allocates nothing and leaves the table
// the same size.
func (p *hostProbe) sample() {
	if p == nil {
		return
	}
	t0 := time.Now()
	s := p.sink
	for i := range probeLookups {
		k := p.keys[(i*7919)%probeKeys]
		s += p.table[k]
		p.table[k] = s
	}
	p.samples = append(p.samples, time.Since(t0))
	p.sink = s
}

// taken is the number of probes taken so far, 0 on a nil probe.
func (p *hostProbe) taken() int {
	if p == nil {
		return 0
	}
	return len(p.samples)
}

// slowdown is the mean time of the probes taken since the first from
// over the quiet host's: how many times slower the host ran than a quiet
// one while they were taken. It is 1 when none were.
func (p *hostProbe) slowdown(from int) float64 {
	if p.taken() <= from {
		return 1
	}
	var sum time.Duration
	for _, d := range p.samples[from:] {
		sum += d
	}
	return float64(sum) / float64(len(p.samples)-from) / probeQuiet
}

// quietMedian is the median over repetitions of each repetition's time,
// the sum of its spans (reps[r] holds repetition r's span per cell or
// driver), divided by the host's slowdown during it (slows[r]). The
// slowdown changes within a run too: over a run's passes, a pass's time
// and its probes' mean correlated by 0.86 to 0.88.
func quietMedian(reps [][]time.Duration, slows []float64) float64 {
	xs := make([]float64, len(reps))
	for r, rep := range reps {
		var sum time.Duration
		for _, d := range rep {
			sum += d
		}
		xs[r] = sum.Seconds() / slows[r]
	}
	return median(xs)
}
