package mem

import "math"

// MSHRFile models the L1-D miss status holding registers: the hard limit on
// how many distinct line misses can be outstanding at once (24 in the
// paper's Table 1). Vector Runahead's whole point is to keep this structure
// full of useful misses; the file therefore also integrates occupancy over
// time so the harness can report average outstanding misses per cycle
// (the MLP figure).
//
// Entries live in fixed arrays sized at construction: Acquire/TryAcquire
// guarantee a free slot before Complete fills one, so the file never grows
// and the steady state allocates nothing.
type MSHRFile struct {
	capacity int
	// Outstanding misses as parallel (line, done, source) columns over
	// [0:n]; expired entries are compacted lazily as the clock advances.
	lines []uint64
	done  []uint64
	srcs  []PrefetchSource
	n     int
	// minDone is a lower bound on done[0:n] (MaxUint64 when empty): no
	// entry can expire before it, so expire skips the compaction. Complete
	// lowers it and each compaction resets it to the survivors' minimum.
	minDone uint64

	// Stats
	Allocations   uint64
	Merges        uint64 // secondary misses folded into an existing entry
	StallEvents   uint64 // allocations that had to wait for a free MSHR
	occupancyArea uint64 // sum over misses of (done - start): occupancy integral
}

// NewMSHRFile returns a file with the given number of entries.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity < 0 {
		capacity = 0
	}
	return &MSHRFile{
		capacity: capacity,
		lines:    make([]uint64, capacity),
		done:     make([]uint64, capacity),
		srcs:     make([]PrefetchSource, capacity),
		minDone:  math.MaxUint64,
	}
}

// Capacity returns the number of MSHR entries.
func (m *MSHRFile) Capacity() int { return m.capacity }

// expire drops entries whose miss completed at or before cycle.
func (m *MSHRFile) expire(cycle uint64) {
	if cycle < m.minDone {
		return
	}
	w := 0
	minDone := uint64(math.MaxUint64)
	for i := 0; i < m.n; i++ {
		if d := m.done[i]; d > cycle {
			m.lines[w] = m.lines[i]
			m.done[w] = d
			m.srcs[w] = m.srcs[i]
			minDone = min(minDone, d)
			w++
		}
	}
	m.n = w
	m.minDone = minDone
}

// Outstanding returns the completion cycle and requesting source if the
// line already has an MSHR allocated at the given cycle (a secondary miss
// that merges).
func (m *MSHRFile) Outstanding(line uint64, cycle uint64) (done uint64, src PrefetchSource, ok bool) {
	m.expire(cycle)
	for i := 0; i < m.n; i++ {
		if m.lines[i] == line {
			return m.done[i], m.srcs[i], true
		}
	}
	return 0, SrcDemand, false
}

// InFlightAt counts the outstanding misses at the given cycle without
// mutating the file: no entries are expired, so observers (the oracle's
// invariant checks, failure snapshots, vrtrace) can sample it without
// perturbing the run.
func (m *MSHRFile) InFlightAt(cycle uint64) int {
	n := 0
	for _, d := range m.done[:m.n] {
		if d > cycle {
			n++
		}
	}
	return n
}

// Acquire allocates an MSHR for a new line miss arriving at cycle. If the
// file is full the allocation waits for the earliest completion; the
// returned start is the cycle the miss can actually be issued to the next
// level. Call Complete afterwards to record the completion time.
func (m *MSHRFile) Acquire(cycle uint64) (start uint64) {
	m.expire(cycle)
	m.Allocations++
	if m.n < m.capacity {
		return cycle
	}
	m.StallEvents++
	// Wait for the earliest outstanding miss to complete.
	earliest := m.done[0]
	ei := 0
	for i := 1; i < m.n; i++ {
		if m.done[i] < earliest {
			earliest = m.done[i]
			ei = i
		}
	}
	// Free that entry as of `earliest`. The survivors complete no earlier,
	// so minDone stays a lower bound.
	last := m.n - 1
	m.lines[ei] = m.lines[last]
	m.done[ei] = m.done[last]
	m.srcs[ei] = m.srcs[last]
	m.n = last
	return earliest
}

// TryAcquire allocates an MSHR only if one is free at cycle; prefetchers
// use it so they never stall (a full file just drops the prefetch).
func (m *MSHRFile) TryAcquire(cycle uint64) bool {
	m.expire(cycle)
	if m.n >= m.capacity {
		return false
	}
	m.Allocations++
	return true
}

// Complete records that the miss for line, started at start via
// Acquire/TryAcquire, finishes at done. The (done - start) interval feeds
// the occupancy integral behind AvgOccupancy. Acquire/TryAcquire guarantee
// a free slot, so the fixed arrays never grow.
func (m *MSHRFile) Complete(line, start, done uint64, src PrefetchSource) {
	m.lines[m.n] = line
	m.done[m.n] = done
	m.srcs[m.n] = src
	m.n++
	m.minDone = min(m.minDone, done)
	if done > start {
		m.occupancyArea += done - start
	}
}

// AvgOccupancy returns the mean number of in-flight misses per cycle over
// a run of the given total length — the paper's MLP metric (Fig. 9 style,
// MSHRs used per cycle on average).
func (m *MSHRFile) AvgOccupancy(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return float64(m.occupancyArea) / float64(totalCycles)
}

// ResetStatsAt zeroes the counters as of the given cycle, keeping
// outstanding entries. The occupancy integral is clamped to the new stats
// window: a miss still in flight at the reset contributes only its
// remaining (done - cycle) interval, so AvgOccupancy over the
// region-of-interest window never counts pre-ROI occupancy.
func (m *MSHRFile) ResetStatsAt(cycle uint64) {
	m.Allocations, m.Merges, m.StallEvents, m.occupancyArea = 0, 0, 0, 0
	for _, d := range m.done[:m.n] {
		if d > cycle {
			m.occupancyArea += d - cycle
		}
	}
}

// Reset clears all entries and statistics.
func (m *MSHRFile) Reset() {
	m.n, m.minDone = 0, math.MaxUint64
	m.Allocations, m.Merges, m.StallEvents, m.occupancyArea = 0, 0, 0, 0
}
