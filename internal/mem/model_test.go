package mem

import (
	"math/rand"
	"testing"
)

// refCache is an executable specification of a set-associative,
// write-back LRU cache with first-use prefetch accounting: per-set ordered
// slices, most recent first. The real Cache must agree with it on every
// operation outcome and counter.
type refCache struct {
	sets int
	ways int
	data [][]refWay // per set, MRU first

	dirtyEvicts, prefetchEvictedUnused uint64
}

type refWay struct {
	line   uint64
	dirty  bool
	src    PrefetchSource
	unused bool
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, data: make([][]refWay, sets)}
}

func (r *refCache) set(line uint64) int { return int(line) % r.sets }

// touch moves the line to MRU and returns it, or nil if absent.
func (r *refCache) touch(line uint64) *refWay {
	ways := r.data[r.set(line)]
	for i, w := range ways {
		if w.line == line {
			copy(ways[1:i+1], ways[:i])
			ways[0] = w
			return &ways[0]
		}
	}
	return nil
}

func (r *refCache) contains(line uint64) bool {
	for _, w := range r.data[r.set(line)] {
		if w.line == line {
			return true
		}
	}
	return false
}

func (r *refCache) lookup(line uint64, isWrite bool) (src PrefetchSource, wasUnused, hit bool) {
	w := r.touch(line)
	if w == nil {
		return SrcDemand, false, false
	}
	src, wasUnused = w.src, w.unused
	w.unused = false
	w.dirty = w.dirty || isWrite
	return src, wasUnused, true
}

func (r *refCache) insert(line uint64, isWrite bool, src PrefetchSource) (victim uint64, evicted, dirty bool) {
	if w := r.touch(line); w != nil {
		w.dirty = w.dirty || isWrite
		return 0, false, false
	}
	s := r.set(line)
	if len(r.data[s]) == r.ways {
		v := r.data[s][r.ways-1]
		victim, evicted, dirty = v.line, true, v.dirty
		if v.unused && v.src != SrcDemand {
			r.prefetchEvictedUnused++
		}
		if dirty {
			r.dirtyEvicts++
		}
		r.data[s] = r.data[s][:r.ways-1]
	}
	w := refWay{line: line, dirty: isWrite, src: src, unused: src != SrcDemand}
	r.data[s] = append([]refWay{w}, r.data[s]...)
	return victim, evicted, dirty
}

// TestCacheAgainstModel drives the production cache and the reference spec
// with the same random stream of reads, writes and fills from every
// source, and requires identical outcomes and counters after every step.
// Now and then both are reset, often enough that a reset finds some sets
// never filled since the last one.
func TestCacheAgainstModel(t *testing.T) {
	const sets, ways = 8, 4
	c, err := NewCache("model", sets*ways*LineSize, ways, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(sets, ways)
	rng := rand.New(rand.NewSource(77))

	for op := 0; op < 50_000; op++ {
		line := uint64(rng.Intn(sets * 8)) // heavy set contention
		isWrite := rng.Intn(4) == 0
		if rng.Intn(16) == 0 {
			c.Reset()
			ref = newRefCache(sets, ways)
			continue
		}
		switch rng.Intn(5) {
		case 0, 1:
			gotSrc, gotUnused, gotHit := c.Lookup(line, isWrite)
			wantSrc, wantUnused, wantHit := ref.lookup(line, isWrite)
			if gotSrc != wantSrc || gotUnused != wantUnused || gotHit != wantHit {
				t.Fatalf("op %d: lookup(%d, %v) = (%v, %v, %v), want (%v, %v, %v)",
					op, line, isWrite, gotSrc, gotUnused, gotHit, wantSrc, wantUnused, wantHit)
			}
		case 2:
			if got, want := c.Contains(line), ref.contains(line); got != want {
				t.Fatalf("op %d: contains(%d) = %v, want %v", op, line, got, want)
			}
		default:
			src := PrefetchSource(rng.Intn(int(NumSources)))
			gotVictim, gotEvicted, gotDirty := c.Insert(line, isWrite, src)
			wantVictim, wantEvicted, wantDirty := ref.insert(line, isWrite, src)
			if gotVictim != wantVictim || gotEvicted != wantEvicted || gotDirty != wantDirty {
				t.Fatalf("op %d: insert(%d, %v, %v) = (%d, %v, %v), want (%d, %v, %v)",
					op, line, isWrite, src, gotVictim, gotEvicted, gotDirty, wantVictim, wantEvicted, wantDirty)
			}
		}
		if c.DirtyEvicts != ref.dirtyEvicts || c.PrefetchEvictedUnused != ref.prefetchEvictedUnused {
			t.Fatalf("op %d: DirtyEvicts %d, PrefetchEvictedUnused %d; want %d, %d",
				op, c.DirtyEvicts, c.PrefetchEvictedUnused, ref.dirtyEvicts, ref.prefetchEvictedUnused)
		}
	}
}

// TestDRAMNeverReordersBelowMinLatency: completion times are monotone in
// arrival for same-cycle bursts and never beat the minimum latency.
func TestDRAMProperties(t *testing.T) {
	d := NewDRAM(4.0, 50, 51.2)
	rng := rand.New(rand.NewSource(5))
	cycle := uint64(0)
	var prevDone uint64
	for i := 0; i < 10_000; i++ {
		cycle += uint64(rng.Intn(10))
		done := d.Access(cycle)
		if done < cycle+d.MinLatency {
			t.Fatalf("access at %d done %d beats min latency", cycle, done)
		}
		if done < prevDone {
			t.Fatalf("service order inverted: %d after %d", done, prevDone)
		}
		prevDone = done
	}
	// Aggregate bandwidth: n accesses cannot finish faster than n*interval.
	if d.BusyCycles != 10_000*d.ServiceInterval {
		t.Fatalf("busy cycles = %d", d.BusyCycles)
	}
}

// TestMSHRNeverExceedsCapacity across random acquire/complete interleavings.
func TestMSHRCapacityInvariant(t *testing.T) {
	const capEntries = 6
	m := NewMSHRFile(capEntries)
	rng := rand.New(rand.NewSource(11))
	cycle := uint64(0)
	for i := 0; i < 20_000; i++ {
		cycle += uint64(rng.Intn(20))
		line := uint64(rng.Intn(64))
		if _, _, ok := m.Outstanding(line, cycle); ok {
			continue
		}
		start := m.Acquire(cycle)
		if start < cycle {
			t.Fatalf("acquire start %d before request cycle %d", start, cycle)
		}
		m.Complete(line, start, start+uint64(100+rng.Intn(400)), SrcDemand)
		if n := m.InFlightAt(start); n > capEntries {
			t.Fatalf("in flight %d exceeds capacity %d", n, capEntries)
		}
	}
}

// refMSHR is the MSHR file without the expiry bound: it compacts the whole
// file on every observation. MSHRFile must agree with it on every return
// value and statistic.
type refMSHR struct {
	capacity      int
	lines, done   []uint64
	srcs          []PrefetchSource
	allocations   uint64
	stallEvents   uint64
	occupancyArea uint64
}

func (m *refMSHR) expire(cycle uint64) {
	w := 0
	for i := range m.done {
		if m.done[i] > cycle {
			m.lines[w], m.done[w], m.srcs[w] = m.lines[i], m.done[i], m.srcs[i]
			w++
		}
	}
	m.lines, m.done, m.srcs = m.lines[:w], m.done[:w], m.srcs[:w]
}

func (m *refMSHR) outstanding(line, cycle uint64) (uint64, PrefetchSource, bool) {
	m.expire(cycle)
	for i, l := range m.lines {
		if l == line {
			return m.done[i], m.srcs[i], true
		}
	}
	return 0, SrcDemand, false
}

func (m *refMSHR) acquire(cycle uint64) uint64 {
	m.expire(cycle)
	m.allocations++
	if len(m.done) < m.capacity {
		return cycle
	}
	m.stallEvents++
	ei := 0
	for i, d := range m.done {
		if d < m.done[ei] {
			ei = i
		}
	}
	earliest, last := m.done[ei], len(m.done)-1
	m.lines[ei], m.done[ei], m.srcs[ei] = m.lines[last], m.done[last], m.srcs[last]
	m.lines, m.done, m.srcs = m.lines[:last], m.done[:last], m.srcs[:last]
	return earliest
}

func (m *refMSHR) tryAcquire(cycle uint64) bool {
	m.expire(cycle)
	if len(m.done) >= m.capacity {
		return false
	}
	m.allocations++
	return true
}

func (m *refMSHR) complete(line, start, done uint64, src PrefetchSource) {
	m.lines, m.done, m.srcs = append(m.lines, line), append(m.done, done), append(m.srcs, src)
	if done > start {
		m.occupancyArea += done - start
	}
}

func (m *refMSHR) inFlightAt(cycle uint64) int {
	n := 0
	for _, d := range m.done {
		if d > cycle {
			n++
		}
	}
	return n
}

// TestMSHRAgainstModel drives MSHRFile and the always-compacting
// reference with the call order Hierarchy produces — Acquire at the end
// of the L1 lookup, cycle+4, then the next probe back at cycle — plus
// prefetch-style TryAcquire, completions short and long, and region-of-
// interest resets, comparing every result and statistic after each call.
func TestMSHRAgainstModel(t *testing.T) {
	const capEntries = 6
	m := NewMSHRFile(capEntries)
	ref := &refMSHR{capacity: capEntries}
	rng := rand.New(rand.NewSource(23))
	var cycle uint64
	check := func(op int, what string) {
		t.Helper()
		if m.Allocations != ref.allocations || m.StallEvents != ref.stallEvents {
			t.Fatalf("op %d %s: Allocations %d, StallEvents %d; want %d, %d",
				op, what, m.Allocations, m.StallEvents, ref.allocations, ref.stallEvents)
		}
		for _, c := range []uint64{cycle, cycle + 4, cycle + 200} {
			if got, want := m.InFlightAt(c), ref.inFlightAt(c); got != want {
				t.Fatalf("op %d %s: InFlightAt(%d) = %d, want %d", op, what, c, got, want)
			}
		}
		total := cycle + 1
		if got, want := m.AvgOccupancy(total), float64(ref.occupancyArea)/float64(total); got != want {
			t.Fatalf("op %d %s: AvgOccupancy = %v, want %v", op, what, got, want)
		}
	}
	probe := func(op int, line uint64) bool {
		t.Helper()
		gotDone, gotSrc, gotOK := m.Outstanding(line, cycle)
		wantDone, wantSrc, wantOK := ref.outstanding(line, cycle)
		if gotDone != wantDone || gotSrc != wantSrc || gotOK != wantOK {
			t.Fatalf("op %d: Outstanding(%d, %d) = (%d, %v, %v), want (%d, %v, %v)",
				op, line, cycle, gotDone, gotSrc, gotOK, wantDone, wantSrc, wantOK)
		}
		check(op, "Outstanding")
		return gotOK
	}
	latency := func() uint64 {
		if rng.Intn(3) == 0 {
			return uint64(1 + rng.Intn(8))
		}
		return uint64(20 + rng.Intn(300))
	}

	for op := 0; op < 50_000; op++ {
		cycle += uint64(rng.Intn(12))
		line := uint64(rng.Intn(24))
		src := PrefetchSource(rng.Intn(int(NumSources)))
		switch rng.Intn(8) {
		case 0:
			if probe(op, line) {
				continue
			}
			ok := m.TryAcquire(cycle)
			if want := ref.tryAcquire(cycle); ok != want {
				t.Fatalf("op %d: TryAcquire(%d) = %v, want %v", op, cycle, ok, want)
			}
			check(op, "TryAcquire")
			if ok {
				done := cycle + latency()
				m.Complete(line, cycle, done, src)
				ref.complete(line, cycle, done, src)
				check(op, "Complete")
			}
		case 1:
			m.ResetStatsAt(cycle)
			ref.allocations, ref.stallEvents, ref.occupancyArea = 0, 0, 0
			for _, d := range ref.done {
				if d > cycle {
					ref.occupancyArea += d - cycle
				}
			}
			check(op, "ResetStatsAt")
		default:
			if probe(op, line) {
				continue
			}
			start := m.Acquire(cycle + 4)
			if want := ref.acquire(cycle + 4); start != want {
				t.Fatalf("op %d: Acquire(%d) = %d, want %d", op, cycle+4, start, want)
			}
			check(op, "Acquire")
			done := start + latency()
			m.Complete(line, start, done, src)
			ref.complete(line, start, done, src)
			check(op, "Complete")
			probe(op, uint64(rng.Intn(24))) // back at cycle, below the Acquire
		}
	}
}

// TestHierarchyInclusionOnFills: after a demand miss fills, the line is
// present at every level (fills propagate downward).
func TestHierarchyInclusionOnFills(t *testing.T) {
	h := MustHierarchy(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	cycle := uint64(0)
	for i := 0; i < 2_000; i++ {
		cycle += 50
		addr := uint64(rng.Intn(1<<20)) * 64
		h.Access(cycle, 1, addr, false, ClassDemand, SrcDemand)
		line := Line(addr)
		if !h.L1D.Contains(line) {
			t.Fatalf("line %d absent from L1 after access", line)
		}
		if !h.L2.Contains(line) && !h.L1D.Contains(line) {
			t.Fatalf("line %d absent from both L1 and L2", line)
		}
	}
}
