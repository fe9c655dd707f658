package mem

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

// mustCache builds a cache for tests whose geometry is known-good.
func mustCache(t *testing.T, name string, sizeBytes, ways int, latency uint64) *Cache {
	t.Helper()
	c, err := NewCache(name, sizeBytes, ways, latency)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBackingRoundTrip(t *testing.T) {
	b := NewBacking()
	if got := b.Load(0x1234); got != 0 {
		t.Errorf("uninitialized load = %d", got)
	}
	b.Store(0x1000, 42)
	if got := b.Load(0x1000); got != 42 {
		t.Errorf("load = %d", got)
	}
	// Word alignment: low bits ignored.
	if got := b.Load(0x1007); got != 42 {
		t.Errorf("unaligned load = %d", got)
	}
	b.Store(0x1008, 7)
	if b.Load(0x1000) != 42 || b.Load(0x1008) != 7 {
		t.Error("adjacent words interfere")
	}
}

func TestBackingSlices(t *testing.T) {
	b := NewBacking()
	vals := []uint64{1, 2, 3, 4, 5}
	b.StoreSlice(0x2000, vals)
	got := b.LoadSlice(0x2000, 5)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slice[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
	if b.Footprint() == 0 {
		t.Error("footprint should be nonzero after stores")
	}
}

func TestBackingProperty(t *testing.T) {
	b := NewBacking()
	f := func(addr, val uint64) bool {
		b.Store(addr, val)
		return b.Load(addr) == val && b.Load(addr|7) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBackingCopyOnWrite: stores through a backing seeded from an Image
// land in private copies — never in the image or a sibling backing — even
// when they interleave over pages of three regions that share one slot of
// the region cache, so nearly every store misses it, and a Snapshot shares
// every page so no later store writes through into it.
func TestBackingCopyOnWrite(t *testing.T) {
	// Pages 0-2 are the first pages of the three aliasing regions and
	// pages 3-5 their last pages.
	const pages = 6
	word := func(pg, i int) uint64 {
		region := uint64(8 + (pg%3)*regionSlots)
		return region<<regionShift + uint64(pg/3*(regionPages-1))<<pageShift + uint64(i)*8
	}
	src := NewBacking()
	for pg := 0; pg < pages; pg++ {
		src.Store(word(pg, 0), uint64(pg))
	}
	img := src.Snapshot()

	a, sib := NewBackingFrom(img), NewBackingFrom(img)
	for i := 0; i < 64; i++ {
		for pg := 0; pg < pages; pg++ {
			a.Store(word(pg, i), 1000+uint64(pg*64+i))
		}
	}
	for pg := 0; pg < pages; pg++ {
		for i := 0; i < 64; i++ {
			if got, want := a.Load(word(pg, i)), 1000+uint64(pg*64+i); got != want {
				t.Fatalf("page %d word %d = %d, want %d", pg, i, got, want)
			}
		}
		for _, v := range []*Backing{sib, NewBackingFrom(img), src} {
			if got := v.Load(word(pg, 0)); got != uint64(pg) {
				t.Fatalf("page %d leaked a copy-on-write store: read %d, want %d", pg, got, pg)
			}
		}
	}

	// Re-snapshot a backing whose cache is warm, then keep writing
	// through it, most recently written pages first: the new image must
	// hold the values at snapshot time.
	img2 := a.Snapshot()
	for pg := pages - 1; pg >= 0; pg-- {
		a.Store(word(pg, 1), 7)
		src.Store(word(pg, 0), 9)
	}
	b2 := NewBackingFrom(img2)
	for pg := 0; pg < pages; pg++ {
		if got, want := b2.Load(word(pg, 1)), 1000+uint64(pg*64+1); got != want {
			t.Fatalf("store after Snapshot wrote through: page %d reads %d, want %d", pg, got, want)
		}
		if got := NewBackingFrom(img).Load(word(pg, 0)); got != uint64(pg) {
			t.Fatalf("store after Snapshot wrote through the source image: page %d reads %d", pg, got)
		}
		if a.Load(word(pg, 1)) != 7 || src.Load(word(pg, 0)) != 9 {
			t.Fatalf("page %d: store after Snapshot was lost", pg)
		}
	}
}

// TestStoreSliceMatchesStore: StoreSlice leaves a backing exactly as
// per-word Stores would, on spans that start mid-page (one at an
// unaligned address) and cross several page boundaries, into a fresh
// backing and into one seeded from an image. Stores first write a few
// pages in an order unlike the spans', so the spans cross pages that are
// owned, shared with the image and absent. The image never changes, and
// a later Store lands in the private copy StoreSlice made.
func TestStoreSliceMatchesStore(t *testing.T) {
	const base = 0x40000
	word := func(pg, i int) uint64 { return base + uint64(pg)<<pageShift + uint64(i)*8 }
	spans := []struct {
		addr uint64
		n    int
	}{
		{word(0, 100), 2*pageWords + 50},   // pages 0-2
		{word(1, 500) + 5, pageWords + 20}, // pages 1-3, unaligned
		{word(4, 7), 3 * pageWords},        // pages 4-7
	}
	src := NewBacking()
	for pg := 0; pg < 8; pg += 2 {
		for i := 0; i < pageWords; i++ {
			src.Store(word(pg, i), uint64(pg)<<32|uint64(i))
		}
	}
	img := src.Snapshot()
	imageWords := NewBackingFrom(img).LoadSlice(base, 9*pageWords)

	for _, fresh := range []func() *Backing{NewBacking, func() *Backing { return NewBackingFrom(img) }} {
		got, want := fresh(), fresh()
		for _, b := range []*Backing{got, want} {
			for _, pg := range []int{1, 0, 5, 2} {
				b.Store(word(pg, 3), 7)
			}
		}
		for k, sp := range spans {
			vals := make([]uint64, sp.n)
			for i := range vals {
				vals[i] = uint64(k+1)<<40 | uint64(i)
			}
			got.StoreSlice(sp.addr, vals)
			for i, v := range vals {
				want.Store(sp.addr+uint64(i)*8, v)
			}
		}
		if !slices.Equal(got.LoadSlice(base, 9*pageWords), want.LoadSlice(base, 9*pageWords)) {
			t.Fatal("StoreSlice differs from per-word Store")
		}
		if got.Footprint() != want.Footprint() {
			t.Fatalf("footprint %d, want %d", got.Footprint(), want.Footprint())
		}
		for _, pg := range []int{0, 4} {
			got.Store(word(pg, 200), 99)
			if got.Load(word(pg, 200)) != 99 || got.Load(word(pg, 201)) != want.Load(word(pg, 201)) {
				t.Fatalf("page %d: a Store after StoreSlice missed its private copy", pg)
			}
		}
		if !slices.Equal(NewBackingFrom(img).LoadSlice(base, 9*pageWords), imageWords) {
			t.Fatal("StoreSlice wrote through into the image")
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := mustCache(t, "t", 4*64*2, 2, 4) // 4 sets, 2 ways
	if _, _, hit := c.Lookup(10, false); hit {
		t.Fatal("empty cache should miss")
	}
	c.Insert(10, false, SrcDemand)
	if _, _, hit := c.Lookup(10, false); !hit {
		t.Fatal("inserted line should hit")
	}
	if !c.Contains(10) {
		t.Fatal("Contains should see line 10")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t, "t", 1*64*2, 2, 4) // 1 set, 2 ways
	c.Insert(1, false, SrcDemand)
	c.Insert(2, false, SrcDemand)
	c.Lookup(1, false) // make line 1 MRU
	victim, evicted, _ := c.Insert(3, false, SrcDemand)
	if !evicted || victim != 2 {
		t.Fatalf("evicted=%v victim=%d, want line 2", evicted, victim)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Error("wrong residency after eviction")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := mustCache(t, "t", 1*64*2, 2, 4)
	c.Insert(1, true, SrcDemand) // dirty
	c.Insert(2, false, SrcDemand)
	_, _, dirty := c.Insert(3, false, SrcDemand) // evicts line 1 (LRU)
	if !dirty {
		t.Error("evicting a written line should be dirty")
	}
	if c.DirtyEvicts != 1 {
		t.Errorf("DirtyEvicts = %d", c.DirtyEvicts)
	}
}

func TestCachePrefetchUnusedAccounting(t *testing.T) {
	c := mustCache(t, "t", 1*64*2, 2, 4)
	c.Insert(1, false, SrcStride) // prefetched, never used
	c.Insert(2, false, SrcDemand)
	c.Insert(3, false, SrcDemand) // evicts line 1
	if c.PrefetchEvictedUnused != 1 {
		t.Errorf("PrefetchEvictedUnused = %d", c.PrefetchEvictedUnused)
	}
	// A used prefetch must not count.
	c.Reset()
	c.Insert(1, false, SrcStride)
	if src, unused, _ := c.Lookup(1, false); src != SrcStride || !unused {
		t.Fatalf("first use should report prefetch source, got %v/%v", src, unused)
	}
	if _, unused, _ := c.Lookup(1, false); unused {
		t.Fatal("second use must not report unused")
	}
	c.Insert(2, false, SrcDemand)
	c.Insert(3, false, SrcDemand)
	if c.PrefetchEvictedUnused != 0 {
		t.Errorf("used prefetch counted as unused")
	}
}

func TestCacheBadGeometry(t *testing.T) {
	if _, err := NewCache("bad", 3*64, 1, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("non-power-of-two sets: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewCache("bad", 0, 1, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero size: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewCache("bad", 4*64*2, 0, 4); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero ways: err = %v, want ErrBadConfig", err)
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	d := NewDRAM(4.0, 50, 51.2) // 200-cycle latency, 5-cycle interval
	if d.MinLatency != 200 {
		t.Fatalf("MinLatency = %d", d.MinLatency)
	}
	if d.ServiceInterval != 5 {
		t.Fatalf("ServiceInterval = %d", d.ServiceInterval)
	}
	first := d.Access(100)
	if first != 300 {
		t.Fatalf("first access done = %d, want 300", first)
	}
	// Second access at the same cycle queues behind the first transfer.
	second := d.Access(100)
	if second != 305 {
		t.Fatalf("second access done = %d, want 305", second)
	}
	// A later access after the channel drained sees min latency again.
	third := d.Access(1000)
	if third != 1200 {
		t.Fatalf("third access done = %d, want 1200", third)
	}
	if d.Accesses != 3 || d.MaxQueueDelay != 5 {
		t.Errorf("stats: accesses=%d maxQ=%d", d.Accesses, d.MaxQueueDelay)
	}
}

func TestMSHRMergeAndStall(t *testing.T) {
	m := NewMSHRFile(2)
	// First miss to line 1.
	if start := m.Acquire(10); start != 10 {
		t.Fatalf("start = %d", start)
	}
	m.Complete(1, 10, 200, SrcDemand)
	if done, _, ok := m.Outstanding(1, 50); !ok || done != 200 {
		t.Fatalf("outstanding(1) = %d,%v", done, ok)
	}
	if _, _, ok := m.Outstanding(2, 50); ok {
		t.Fatal("line 2 should not be outstanding")
	}
	// Fill up: second miss.
	m.Acquire(20)
	m.Complete(2, 20, 150, SrcDemand)
	// Third miss must wait for earliest completion (line 2 at 150).
	if start := m.Acquire(30); start != 150 {
		t.Fatalf("stalled start = %d, want 150", start)
	}
	if m.StallEvents != 1 {
		t.Errorf("StallEvents = %d", m.StallEvents)
	}
	// After line 1 completes (cycle 200), entries expire.
	if n := m.InFlightAt(300); n != 0 {
		// The third acquire was never Completed, so only expired entries count.
		t.Errorf("in flight at 300 = %d", n)
	}
}

func TestMSHRTryAcquire(t *testing.T) {
	m := NewMSHRFile(1)
	if !m.TryAcquire(0) {
		t.Fatal("first TryAcquire should succeed")
	}
	m.Complete(1, 0, 100, SrcDemand)
	if m.TryAcquire(50) {
		t.Fatal("full file must reject TryAcquire")
	}
	if !m.TryAcquire(101) {
		t.Fatal("TryAcquire after completion should succeed")
	}
}

func TestMSHROccupancyIntegral(t *testing.T) {
	m := NewMSHRFile(4)
	start := m.Acquire(0)
	m.Complete(1, start, 100, SrcDemand) // one miss outstanding for cycles 0..100
	got := m.AvgOccupancy(200)
	want := 100.0 / 200.0
	if got < want-0.01 || got > want+0.01 {
		t.Errorf("AvgOccupancy = %f, want %f", got, want)
	}
}

func newTestHierarchy() *Hierarchy {
	cfg := DefaultConfig()
	return MustHierarchy(cfg)
}

func TestHierarchyMissThenHit(t *testing.T) {
	h := newTestHierarchy()
	r1 := h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	if r1.Level != AtMem {
		t.Fatalf("cold access level = %v", r1.Level)
	}
	// 4 (L1) + 8 (L2) + 30 (L3) + 200 (DRAM) + 4 (fill to L1) = 246.
	if r1.Done != 246 {
		t.Fatalf("cold access done = %d, want 246", r1.Done)
	}
	r2 := h.Access(r1.Done, 1, 0x10000, false, ClassDemand, SrcDemand)
	if r2.Level != AtL1 || r2.Done != r1.Done+4 {
		t.Fatalf("warm access = %+v", r2)
	}
	if h.Stats.DemandLoads[AtMem] != 1 || h.Stats.DemandLoads[AtL1] != 1 {
		t.Errorf("demand load counters wrong: %+v", h.Stats.DemandLoads)
	}
}

func TestHierarchySecondaryMissMerges(t *testing.T) {
	h := newTestHierarchy()
	r1 := h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	r2 := h.Access(5, 1, 0x10008, false, ClassDemand, SrcDemand) // same line
	if r2.Level != InFlight {
		t.Fatalf("secondary miss level = %v", r2.Level)
	}
	if r2.Done != r1.Done {
		t.Fatalf("merged done = %d, want %d", r2.Done, r1.Done)
	}
	if h.MSHR.Merges != 1 {
		t.Errorf("merges = %d", h.MSHR.Merges)
	}
	// A demand-demand merge is not a late prefetch.
	if h.Stats.PrefetchLate != 0 {
		t.Errorf("late counter = %d for demand-demand merge", h.Stats.PrefetchLate)
	}
	// A demand access merging with an in-flight *runahead* miss is.
	h.Access(10, 2, 0x40000, false, ClassRunahead, SrcRunahead)
	h.Access(15, 1, 0x40000, false, ClassDemand, SrcDemand)
	if h.Stats.PrefetchLate != 1 {
		t.Errorf("late counter = %d after runahead merge", h.Stats.PrefetchLate)
	}
}

func TestHierarchyL2L3Hits(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand) // fill all levels
	// Evict from a 32KB L1 by touching 64 distinct lines mapping to the
	// same set. L1: 64 sets, 8 ways -> lines that differ by 64 in line
	// number map to the same set.
	base := uint64(0x10000)
	for i := 1; i <= 8; i++ {
		h.Access(1000*uint64(i), 1, base+uint64(i)*64*LineSize, false, ClassDemand, SrcDemand)
	}
	r := h.Access(1_000_000, 1, base, false, ClassDemand, SrcDemand)
	if r.Level != AtL2 {
		t.Fatalf("expected L2 hit after L1 eviction, got %v", r.Level)
	}
	// 4 + 8 + 4 fill = 16 cycles.
	if r.Done != 1_000_000+16 {
		t.Errorf("L2 hit done = %d", r.Done)
	}
}

func TestHierarchyPrefetchUsefulness(t *testing.T) {
	h := newTestHierarchy()
	pr := h.Prefetch(0, 0x20000, SrcStride)
	if pr.Dropped {
		t.Fatal("prefetch dropped with free MSHRs")
	}
	if h.Stats.PrefetchIssued[SrcStride] != 1 {
		t.Fatalf("issued = %d", h.Stats.PrefetchIssued[SrcStride])
	}
	// Demand access after the fill completes: L1 hit credited to stride.
	r := h.Access(pr.Done+1, 1, 0x20000, false, ClassDemand, SrcDemand)
	if r.Level != AtL1 || r.PrefetchedBy != SrcStride {
		t.Fatalf("demand after prefetch = %+v", r)
	}
	if h.Stats.PrefetchUseful[SrcStride] != 1 {
		t.Errorf("useful = %d", h.Stats.PrefetchUseful[SrcStride])
	}
	if h.Stats.TimelinessHits[SrcStride][AtL1] != 1 {
		t.Errorf("timeliness = %+v", h.Stats.TimelinessHits[SrcStride])
	}
	// Second access: no double counting.
	h.Access(pr.Done+100, 1, 0x20000, false, ClassDemand, SrcDemand)
	if h.Stats.PrefetchUseful[SrcStride] != 1 {
		t.Errorf("useful double counted")
	}
}

func TestHierarchyPrefetchDuplicatesDropped(t *testing.T) {
	h := newTestHierarchy()
	h.Prefetch(0, 0x20000, SrcStride)
	r := h.Prefetch(1, 0x20000, SrcStride) // in flight -> dropped
	if !r.Dropped || r.Level != InFlight {
		t.Fatalf("in-flight duplicate = %+v", r)
	}
	h.Access(10_000, 1, 0x20000, false, ClassDemand, SrcDemand)
	r = h.Prefetch(10_010, 0x20000, SrcStride) // resident -> dropped
	if !r.Dropped || r.Level != AtL1 {
		t.Fatalf("resident duplicate = %+v", r)
	}
	if h.Stats.PrefetchIssued[SrcStride] != 1 {
		t.Errorf("issued = %d", h.Stats.PrefetchIssued[SrcStride])
	}
}

func TestHierarchyPrefetchDroppedWhenMSHRsFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	h := MustHierarchy(cfg)
	h.Access(0, 1, 0x30000, false, ClassDemand, SrcDemand) // occupies the MSHR
	r := h.Prefetch(1, 0x40000, SrcStride)
	if !r.Dropped {
		t.Fatal("prefetch should drop when MSHRs are full")
	}
	if h.Stats.PrefetchDropped != 1 {
		t.Errorf("dropped = %d", h.Stats.PrefetchDropped)
	}
}

func TestHierarchyRunaheadClassWaitsAndCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	h := MustHierarchy(cfg)
	r1 := h.Access(0, 1, 0x30000, false, ClassDemand, SrcDemand)
	r2 := h.Access(1, 2, 0x40000, false, ClassRunahead, SrcRunahead)
	if r2.Done <= r1.Done {
		t.Fatalf("runahead access must wait for MSHR: %d vs %d", r2.Done, r1.Done)
	}
	if h.Stats.RunaheadAccesses[AtMem] != 1 {
		t.Errorf("runahead counters = %+v", h.Stats.RunaheadAccesses)
	}
	if h.Stats.OffChipBySource[SrcRunahead] != 1 {
		t.Errorf("offchip by source = %+v", h.Stats.OffChipBySource)
	}
}

func TestHierarchyTimelinessAtL2(t *testing.T) {
	h := newTestHierarchy()
	pr := h.Prefetch(0, 0x50000, SrcRunahead)
	// Evict the prefetched line from L1 (same-set floods), leaving it in L2.
	for i := 1; i <= 8; i++ {
		h.Access(pr.Done+uint64(i)*1000, 1, 0x50000+uint64(i)*64*LineSize, false, ClassDemand, SrcDemand)
	}
	r := h.Access(1_000_000, 1, 0x50000, false, ClassDemand, SrcDemand)
	if r.Level != AtL2 {
		t.Fatalf("expected L2 hit, got %v", r.Level)
	}
	if r.PrefetchedBy != SrcRunahead {
		t.Fatalf("PrefetchedBy = %v", r.PrefetchedBy)
	}
	if h.Stats.TimelinessHits[SrcRunahead][AtL2] != 1 {
		t.Errorf("timeliness at L2 = %+v", h.Stats.TimelinessHits[SrcRunahead])
	}
}

func TestDeriveStats(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	h.Access(300, 1, 0x10000, false, ClassDemand, SrcDemand)
	d := h.Derive(1000, 1000)
	if d.L1MissRate != 0.5 {
		t.Errorf("L1MissRate = %f", d.L1MissRate)
	}
	if d.LLCMPKI != 1.0 {
		t.Errorf("LLCMPKI = %f", d.LLCMPKI)
	}
	if d.TotalOffChip != 1 {
		t.Errorf("TotalOffChip = %d", d.TotalOffChip)
	}
	if d.AvgMLP <= 0 {
		t.Errorf("AvgMLP = %f", d.AvgMLP)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	h.Reset()
	if h.L1D.Hits+h.L1D.Misses != 0 || h.DRAM.Accesses != 0 {
		t.Error("stats survive reset")
	}
	r := h.Access(0, 1, 0x10000, false, ClassDemand, SrcDemand)
	if r.Level != AtMem {
		t.Error("cache contents survive reset")
	}
}

// Property: hierarchy access completion is never before the L1 latency.
func TestHierarchyLatencyLowerBound(t *testing.T) {
	h := newTestHierarchy()
	cycle := uint64(0)
	f := func(addrSeed uint32) bool {
		addr := uint64(addrSeed) * 8
		cycle += 10
		r := h.Access(cycle, 1, addr, false, ClassDemand, SrcDemand)
		return r.Done >= cycle+h.L1D.Latency()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMSHROccupancyResetClamps is the regression test for the MLP
// occupancy-integral drift across a region-of-interest rearm: a miss in
// flight when statistics reset must contribute only its remaining
// (done - resetCycle) interval to the post-reset window, and misses that
// completed before the reset must contribute nothing. Before the fix the
// pre-ROI portion leaked into AvgOccupancy, inflating the MLP figure for
// every workload with a warmup skip.
func TestMSHROccupancyResetClamps(t *testing.T) {
	m := NewMSHRFile(4)

	// Miss A: cycles 0..100, fully pre-ROI.
	start := m.Acquire(0)
	m.Complete(0x100, start, 100, SrcDemand)
	// Miss B: cycles 50..900, straddles the reset at 600.
	start = m.Acquire(50)
	m.Complete(0x200, start, 900, SrcDemand)

	m.ResetStatsAt(600)

	// Post-reset window 600..1000: only B's remaining 300 cycles count.
	got := m.AvgOccupancy(400)
	want := 300.0 / 400.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("AvgOccupancy after reset = %f, want %f (pre-ROI occupancy leaked in?)", got, want)
	}

	// A rearm with nothing in flight zeroes the integral entirely.
	m.ResetStatsAt(900)
	if got := m.AvgOccupancy(100); got != 0 {
		t.Errorf("AvgOccupancy after drained reset = %f, want 0", got)
	}

	// New misses after the rearm accrue normally on top of the clamp.
	start = m.Acquire(950)
	m.Complete(0x300, start, 1000, SrcDemand)
	got = m.AvgOccupancy(100)
	want = 50.0 / 100.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("AvgOccupancy post-rearm = %f, want %f", got, want)
	}
}
