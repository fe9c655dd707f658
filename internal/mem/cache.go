package mem

// PrefetchSource records which engine brought a line into the cache, for
// accuracy/coverage/timeliness accounting (paper Figs. on effectiveness).
type PrefetchSource uint8

// Prefetch sources.
const (
	SrcDemand   PrefetchSource = iota // demand fill (not a prefetch)
	SrcStride                         // hardware stride prefetcher
	SrcIMP                            // indirect memory prefetcher
	SrcRunahead                       // PRE / VR runahead prefetch
	NumSources
)

func (s PrefetchSource) String() string {
	switch s {
	case SrcDemand:
		return "demand"
	case SrcStride:
		return "stride"
	case SrcIMP:
		return "imp"
	case SrcRunahead:
		return "runahead"
	}
	return "unknown"
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
	// src/unused implement first-use prefetch accounting.
	src    PrefetchSource
	unused bool // true until the first demand access after a prefetch fill
}

// Cache is one set-associative, write-back, write-allocate cache level with
// LRU replacement. It models tags only; data lives in Backing.
type Cache struct {
	name     string
	sets     int
	ways     int
	latency  uint64 // access latency in cycles
	lines    []cacheLine
	lruClock uint64

	// Stats
	Hits, Misses          uint64
	DirtyEvicts           uint64
	PrefetchEvictedUnused uint64
}

// NewCache builds a cache of sizeBytes with the given associativity and
// access latency in cycles. sizeBytes must be a multiple of ways*LineSize
// and the resulting set count must be a power of two; invalid geometries
// are reported as an error wrapping ErrBadConfig rather than a panic, so
// campaign drivers can reject a bad configuration and keep going.
func NewCache(name string, sizeBytes, ways int, latency uint64) (*Cache, error) {
	if err := validateCacheGeometry(name, sizeBytes, ways, latency); err != nil {
		return nil, err
	}
	sets := sizeBytes / (ways * LineSize)
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		latency: latency,
		lines:   make([]cacheLine, sets*ways),
	}, nil
}

// Name returns the cache's display name.
func (c *Cache) Name() string { return c.name }

// Latency returns the access latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

func (c *Cache) set(line uint64) []cacheLine {
	s := int(line) & (c.sets - 1)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup probes for the line (a line number, i.e. addr/LineSize). On hit it
// updates recency, clears the unused-prefetch mark, and returns the fill
// source recorded for the line. It does not count stats; Hierarchy does.
func (c *Cache) Lookup(line uint64, isWrite bool) (src PrefetchSource, wasUnused, hit bool) {
	set := c.set(line)
	for i := range set {
		cl := &set[i]
		if cl.valid && cl.tag == line {
			c.lruClock++
			cl.lru = c.lruClock
			src, wasUnused = cl.src, cl.unused
			cl.unused = false
			if isWrite {
				cl.dirty = true
			}
			return src, wasUnused, true
		}
	}
	return SrcDemand, false, false
}

// Contains reports whether the line is present, without touching recency.
func (c *Cache) Contains(line uint64) bool {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return true
		}
	}
	return false
}

// Insert fills the line, evicting the LRU victim if the set is full.
// It returns the evicted line number and whether an eviction of a valid
// (and dirty) line occurred.
func (c *Cache) Insert(line uint64, isWrite bool, src PrefetchSource) (victim uint64, evicted, dirty bool) {
	set := c.set(line)
	// Already present (e.g. racing fills): refresh.
	for i := range set {
		if set[i].valid && set[i].tag == line {
			c.lruClock++
			set[i].lru = c.lruClock
			if isWrite {
				set[i].dirty = true
			}
			return 0, false, false
		}
	}
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	v := &set[vi]
	if v.valid {
		victim, evicted, dirty = v.tag, true, v.dirty
		if v.unused && v.src != SrcDemand {
			c.PrefetchEvictedUnused++
		}
		if dirty {
			c.DirtyEvicts++
		}
	}
	c.lruClock++
	*v = cacheLine{
		tag:    line,
		valid:  true,
		dirty:  isWrite,
		lru:    c.lruClock,
		src:    src,
		unused: src != SrcDemand,
	}
	return victim, evicted, dirty
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(line uint64) (wasDirty, present bool) {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			d := set[i].dirty
			set[i] = cacheLine{}
			return d, true
		}
	}
	return false, false
}

// ResetStats zeroes the counters, keeping cache contents.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.DirtyEvicts, c.PrefetchEvictedUnused = 0, 0, 0, 0
}

// Reset clears all lines and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
	c.lruClock = 0
	c.Hits, c.Misses, c.DirtyEvicts, c.PrefetchEvictedUnused = 0, 0, 0, 0
}
