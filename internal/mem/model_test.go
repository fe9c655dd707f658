package mem

import (
	"math/rand"
	"testing"
)

// refCache is an executable specification of a set-associative LRU cache:
// per-set ordered slices, most recent first. The real Cache must agree with
// it on every operation outcome.
type refCache struct {
	sets int
	ways int
	data []([]uint64) // per set, MRU-first line numbers
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, data: make([][]uint64, sets)}
}

func (r *refCache) set(line uint64) int { return int(line) % r.sets }

func (r *refCache) lookup(line uint64) bool {
	s := r.set(line)
	for i, l := range r.data[s] {
		if l == line {
			// Move to MRU.
			copy(r.data[s][1:i+1], r.data[s][:i])
			r.data[s][0] = line
			return true
		}
	}
	return false
}

func (r *refCache) insert(line uint64) (victim uint64, evicted bool) {
	if r.lookup(line) {
		return 0, false
	}
	s := r.set(line)
	if len(r.data[s]) == r.ways {
		victim = r.data[s][r.ways-1]
		evicted = true
		r.data[s] = r.data[s][:r.ways-1]
	}
	r.data[s] = append([]uint64{line}, r.data[s]...)
	return victim, evicted
}

// TestCacheAgainstModel drives the production cache and the reference spec
// with the same random operation stream and requires identical outcomes.
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
		if rng.Intn(2) == 0 {
			_, _, gotHit := c.Lookup(line, false)
			wantHit := ref.lookup(line)
			if gotHit != wantHit {
				t.Fatalf("op %d: lookup(%d) hit=%v want %v", op, line, gotHit, wantHit)
			}
		} else {
			gotVictim, gotEvicted, _ := c.Insert(line, false, SrcDemand)
			wantVictim, wantEvicted := ref.insert(line)
			if gotEvicted != wantEvicted {
				t.Fatalf("op %d: insert(%d) evicted=%v want %v", op, line, gotEvicted, wantEvicted)
			}
			if gotEvicted && gotVictim != wantVictim {
				t.Fatalf("op %d: insert(%d) victim=%d want %d", op, line, gotVictim, wantVictim)
			}
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
