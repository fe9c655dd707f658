package mem

// Level identifies where in the hierarchy an access was served.
type Level uint8

// Hierarchy levels, nearest first.
const (
	AtL1 Level = iota
	AtL2
	AtL3
	AtMem
	InFlight // merged into an already-outstanding miss
	NumLevels
)

func (l Level) String() string {
	switch l {
	case AtL1:
		return "L1"
	case AtL2:
		return "L2"
	case AtL3:
		return "L3"
	case AtMem:
		return "mem"
	case InFlight:
		return "in-flight"
	}
	return "?"
}

// Class distinguishes how an access contends for miss resources.
type Class uint8

// Access classes.
const (
	// ClassDemand is a main-thread access: on a full MSHR file it waits.
	ClassDemand Class = iota
	// ClassRunahead is a runahead-engine access: it occupies MSHRs like a
	// demand miss (this occupancy is the MLP runahead exposes) and waits
	// when the file is full.
	ClassRunahead
	// ClassHWPrefetch is a hardware-prefetcher access: it is dropped when
	// no MSHR is free, never stalling anything.
	ClassHWPrefetch
)

// Result describes the timing outcome of one access.
type Result struct {
	// Done is the cycle the data is available to the requester.
	Done uint64
	// Level is where the access was served from.
	Level Level
	// Dropped is set for hardware prefetches abandoned for lack of MSHRs.
	Dropped bool
	// PrefetchedBy reports the engine that had earlier brought the line
	// into the level that served a demand access (SrcDemand if none).
	PrefetchedBy PrefetchSource
}

// AccessEvent is delivered to the attached Prefetcher after every demand
// access, carrying what it needs to train on.
type AccessEvent struct {
	PC      int // program counter (instruction index) of the memory op
	Addr    uint64
	Cycle   uint64
	Level   Level
	IsWrite bool
}

// Prefetcher observes demand traffic and issues prefetches back into the
// hierarchy. Implementations live in internal/prefetch.
type Prefetcher interface {
	OnAccess(h *Hierarchy, ev AccessEvent)
}

// Hierarchy ties together the three cache levels, the L1-D MSHR file and
// DRAM. All requesters — the out-of-order core, the runahead engines and
// the hardware prefetchers — share one Hierarchy, so they contend for the
// same MSHRs and DRAM bandwidth, which is essential to reproducing the
// paper's MLP and bandwidth-pollution results.
//
// The hierarchy is (mostly) inclusive: fills propagate to every level.
// Evictions do not back-invalidate (NINE behaviour), a simplification that
// does not affect the studied mechanisms.
type Hierarchy struct {
	L1D  *Cache
	L2   *Cache
	L3   *Cache
	MSHR *MSHRFile
	DRAM *DRAM

	// Data optionally points at the functional backing store, from which
	// indirect prefetchers read the index values they correlate with
	// later miss addresses.
	Data *Backing

	// PerfectL1 makes every access an L1 hit — the evaluation's Oracle,
	// a prefetcher with full knowledge of the future and perfect
	// timeliness.
	PerfectL1 bool

	// Faults, when non-nil, injects deterministic faults (latency spikes,
	// dropped prefetches, forced MSHR exhaustion, hangs, panics) into the
	// access paths; see FaultConfig.
	Faults *FaultInjector

	pf Prefetcher

	Stats HierStats
}

// HierStats aggregates hierarchy-wide counters.
type HierStats struct {
	// DemandLoads/DemandStores count demand accesses by serving level.
	DemandLoads  [NumLevels]uint64
	DemandStores [NumLevels]uint64
	// RunaheadAccesses counts runahead-class accesses by serving level.
	RunaheadAccesses [NumLevels]uint64
	// PrefetchIssued counts prefetches injected per source.
	PrefetchIssued [NumSources]uint64
	// PrefetchDropped counts hardware prefetches dropped for lack of MSHRs.
	PrefetchDropped uint64
	// PrefetchUseful counts first demand hits on prefetched lines, per source.
	PrefetchUseful [NumSources]uint64
	// PrefetchLate counts demand accesses that merged with an in-flight
	// miss a *prefetcher or runahead engine* initiated — a prefetch that
	// was correct but not early enough.
	PrefetchLate uint64
	// TimelinessHits[src][level] counts, per prefetch source, the level at
	// which the main thread found a prefetched line on first use.
	TimelinessHits [NumSources][NumLevels]uint64
	// OffChipBySource counts lines fetched from DRAM per requester source:
	// SrcDemand = main thread, SrcRunahead = runahead engine, etc. The
	// accuracy figure (total memory traffic split) comes from this.
	OffChipBySource [NumSources]uint64
	// MissLatencyArea accumulates (done-start) over every off-L1 miss; the
	// MLP average is MissLatencyArea / total cycles.
	MissLatencyArea uint64
}

// Config carries the physical parameters of the hierarchy.
type Config struct {
	L1SizeBytes int
	L1Ways      int
	L1Latency   uint64
	L2SizeBytes int
	L2Ways      int
	L2Latency   uint64
	L3SizeBytes int
	L3Ways      int
	L3Latency   uint64
	MSHRs       int
	CoreGHz     float64
	DRAMMinNS   float64
	DRAMGBs     float64
}

// DefaultConfig mirrors the paper's Table 1 memory system: 32 KB/8-way L1-D
// (4 cycles), 256 KB/8-way L2 (8 cycles), 8 MB/16-way L3 (30 cycles),
// 24 MSHRs, and 50 ns / 51.2 GB/s DRAM on a 4 GHz core.
func DefaultConfig() Config {
	return Config{
		L1SizeBytes: 32 << 10, L1Ways: 8, L1Latency: 4,
		L2SizeBytes: 256 << 10, L2Ways: 8, L2Latency: 8,
		L3SizeBytes: 8 << 20, L3Ways: 16, L3Latency: 30,
		MSHRs:   24,
		CoreGHz: 4.0, DRAMMinNS: 50, DRAMGBs: 51.2,
	}
}

// NewHierarchy builds a hierarchy from the configuration, rejecting
// invalid parameters with an error wrapping ErrBadConfig.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := NewCache("L1-D", cfg.L1SizeBytes, cfg.L1Ways, cfg.L1Latency)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache("L2", cfg.L2SizeBytes, cfg.L2Ways, cfg.L2Latency)
	if err != nil {
		return nil, err
	}
	l3, err := NewCache("L3", cfg.L3SizeBytes, cfg.L3Ways, cfg.L3Latency)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		L1D:  l1,
		L2:   l2,
		L3:   l3,
		MSHR: NewMSHRFile(cfg.MSHRs),
		DRAM: NewDRAM(cfg.CoreGHz, cfg.DRAMMinNS, cfg.DRAMGBs),
	}, nil
}

// MustHierarchy builds a hierarchy from a configuration known to be good
// (static defaults in tools and tests), panicking on validation errors.
func MustHierarchy(cfg Config) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// SetPrefetcher attaches the hardware prefetcher trained by demand traffic.
func (h *Hierarchy) SetPrefetcher(p Prefetcher) { h.pf = p }

// Line returns the line number containing addr.
func Line(addr uint64) uint64 { return addr / LineSize }

// Access performs one timed access. pc is the instruction index of the
// memory operation (used to train prefetchers); src identifies the engine
// for prefetch-class and runahead-class accesses (ignored for demand).
func (h *Hierarchy) Access(cycle uint64, pc int, addr uint64, isWrite bool, class Class, src PrefetchSource) Result {
	if h.Faults != nil && class == ClassDemand {
		h.Faults.onDemandAccess()
	}
	line := Line(addr)
	res := h.accessLine(cycle, line, isWrite, class, src)

	if class == ClassDemand {
		lvl := res.Level
		if isWrite {
			h.Stats.DemandStores[lvl]++
		} else {
			h.Stats.DemandLoads[lvl]++
		}
		if res.PrefetchedBy != SrcDemand {
			h.Stats.PrefetchUseful[res.PrefetchedBy]++
			h.Stats.TimelinessHits[res.PrefetchedBy][lvl]++
		}
		if h.pf != nil {
			h.pf.OnAccess(h, AccessEvent{PC: pc, Addr: addr, Cycle: cycle, Level: res.Level, IsWrite: isWrite})
		}
	} else if class == ClassRunahead && !res.Dropped {
		h.Stats.RunaheadAccesses[res.Level]++
	}
	return res
}

// Prefetch injects a hardware-prefetch fill for addr. It returns the
// completion cycle, or Dropped if no MSHR was free or the line was already
// present or in flight.
//
// Under PerfectL1 nothing ever misses, so the MSHR file and the L1 tags
// stay empty and every prefetch is an issued L1 hit.
func (h *Hierarchy) Prefetch(cycle uint64, addr uint64, src PrefetchSource) Result {
	if h.PerfectL1 {
		h.Stats.PrefetchIssued[src]++
		return h.perfectHit(cycle)
	}
	line := Line(addr)
	if done, _, ok := h.MSHR.Outstanding(line, cycle); ok {
		return Result{Done: done, Level: InFlight, Dropped: true}
	}
	if h.L1D.Contains(line) {
		return Result{Done: cycle, Level: AtL1, Dropped: true}
	}
	res := h.primaryMiss(cycle, line, false, ClassHWPrefetch, src)
	if !res.Dropped {
		h.Stats.PrefetchIssued[src]++
	}
	return res
}

// perfectHit serves an access under PerfectL1.
func (h *Hierarchy) perfectHit(cycle uint64) Result {
	h.L1D.Hits++
	return Result{Done: cycle + h.L1D.Latency(), Level: AtL1}
}

// accessLine is the shared access path: a merge into an outstanding miss,
// an L1 hit, or a primary miss.
//
// Lines are inserted into the caches at allocation time but remain covered
// by their MSHR entry until the fill completes; the in-flight check
// therefore runs before the tag lookup, so accesses racing an outstanding
// fill observe the fill latency rather than an instant hit.
func (h *Hierarchy) accessLine(cycle uint64, line uint64, isWrite bool, class Class, src PrefetchSource) Result {
	if h.PerfectL1 {
		return h.perfectHit(cycle)
	}
	// Secondary miss: merge with the outstanding request.
	if done, msrc, ok := h.MSHR.Outstanding(line, cycle); ok {
		h.L1D.Misses++
		h.MSHR.Merges++
		if class == ClassDemand && msrc != SrcDemand {
			h.Stats.PrefetchLate++
		}
		if done < cycle+h.L1D.Latency() {
			done = cycle + h.L1D.Latency()
		}
		return Result{Done: done, Level: InFlight}
	}

	// L1 hit?
	if fillSrc, wasUnused, hit := h.L1D.Lookup(line, isWrite); hit {
		h.L1D.Hits++
		pb := SrcDemand
		if wasUnused {
			pb = fillSrc
		}
		return Result{Done: cycle + h.L1D.Latency(), Level: AtL1, PrefetchedBy: pb}
	}
	return h.primaryMiss(cycle, line, isWrite, class, src)
}

// primaryMiss handles a line that is neither in flight nor in the L1: it
// allocates an MSHR and fills from L2, L3 or DRAM. Demand and runahead
// accesses pay the L1 lookup before the miss is detected; hardware
// prefetches do not (they are generated by the miss stream itself).
func (h *Hierarchy) primaryMiss(cycle uint64, line uint64, isWrite bool, class Class, src PrefetchSource) Result {
	h.L1D.Misses++
	var start uint64
	if class == ClassHWPrefetch {
		if h.Faults != nil && h.Faults.dropPrefetch() {
			h.Stats.PrefetchDropped++
			return Result{Dropped: true}
		}
		if !h.MSHR.TryAcquire(cycle) {
			h.Stats.PrefetchDropped++
			return Result{Dropped: true}
		}
		start = cycle
	} else {
		start = h.MSHR.Acquire(cycle + h.L1D.Latency())
		if h.Faults != nil {
			start += h.Faults.starveCycles()
		}
	}

	fillSource := src
	if class == ClassDemand {
		fillSource = SrcDemand
	}

	var done uint64
	var lvl Level
	var pb PrefetchSource // who prefetched the line the demand access found
	l2src, l2unused, l2hit := h.L2.Lookup(line, isWrite)
	if l2hit {
		h.L2.Hits++
		done = start + h.L2.Latency()
		lvl = AtL2
		if l2unused {
			pb = l2src
		}
	} else {
		h.L2.Misses++
		l3src, l3unused, l3hit := h.L3.Lookup(line, isWrite)
		if l3hit {
			h.L3.Hits++
			done = start + h.L2.Latency() + h.L3.Latency()
			lvl = AtL3
			if l3unused {
				pb = l3src
			}
		} else {
			h.L3.Misses++
			done = h.DRAM.Access(start + h.L2.Latency() + h.L3.Latency())
			if h.Faults != nil {
				done += h.Faults.dramExtra()
			}
			lvl = AtMem
			h.Stats.OffChipBySource[src]++
			h.L3.Insert(line, isWrite, fillSource)
		}
		h.L2.Insert(line, isWrite, fillSource)
	}
	if h.Faults != nil {
		done += h.Faults.missExtra(class)
	}
	done += h.L1D.Latency() // fill into L1 and bypass to the requester
	h.MSHR.Complete(line, start, done, src)
	if done > cycle {
		h.Stats.MissLatencyArea += done - cycle
	}
	h.L1D.Insert(line, isWrite, fillSource)

	if class != ClassDemand {
		pb = SrcDemand
	}
	return Result{Done: done, Level: lvl, PrefetchedBy: pb}
}

// ResetStatsAt zeroes every statistic while keeping cache contents, MSHR
// entries and the DRAM schedule — the region-of-interest boundary at the
// given cycle: misses still in flight at the reset contribute only their
// remaining latency to the MSHR occupancy integral (see
// MSHRFile.ResetStatsAt).
func (h *Hierarchy) ResetStatsAt(cycle uint64) {
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.MSHR.ResetStatsAt(cycle)
	h.DRAM.ResetStats()
	h.Stats = HierStats{}
}

// Reset returns the hierarchy to the state NewHierarchy built it in: it
// clears all cache contents, MSHRs, DRAM state and statistics, and
// detaches Data, the prefetcher, Faults and PerfectL1. A reset hierarchy
// cannot be told from a new one of the same Config, so a finished
// simulation's hierarchy can serve the next.
func (h *Hierarchy) Reset() {
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
	h.MSHR.Reset()
	h.DRAM.Reset()
	h.Data, h.pf, h.Faults, h.PerfectL1 = nil, nil, nil, false
	h.Stats = HierStats{}
}
