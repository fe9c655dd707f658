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

// Per-way state bits: the dirty flag, the unused-prefetch mark (set by a
// prefetch fill, cleared by the first demand access, for first-use
// prefetch accounting) and, above them, the fill source.
const (
	wayDirty  uint8 = 1 << 0
	wayUnused uint8 = 1 << 1
	srcShift        = 2
)

// Cache is one set-associative, write-back, write-allocate cache level with
// LRU replacement. It models tags only; data lives in Backing.
//
// Ways are stored as columns indexed set*ways+way, so a probe scans only
// the set's 8-byte tags: tags holds line+1 (0 marks an invalid way), lru
// the recency stamps (larger = more recently used) and state the
// wayDirty/wayUnused bits with the fill source above them. Only the tags
// say whether a way is valid, and an invalid way's lru and state are
// never read: a fill writes both.
type Cache struct {
	name     string
	sets     int
	ways     int
	latency  uint64 // access latency in cycles
	tags     []uint64
	lru      []uint64
	state    []uint8
	lruClock uint64
	// filled holds the column index of each set filled since the last
	// Reset, once per set, so Reset clears only those sets' tags. A set's
	// first fill lands on its way 0 (Insert takes the first invalid way,
	// and nothing but Reset invalidates one), so Insert records the set
	// when it fills a free way 0. Its capacity is the set count, so the
	// appends never allocate.
	filled []int

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
		tags:    make([]uint64, sets*ways),
		lru:     make([]uint64, sets*ways),
		state:   make([]uint8, sets*ways),
		filled:  make([]int, 0, sets),
	}, nil
}

// Name returns the cache's display name.
func (c *Cache) Name() string { return c.name }

// Latency returns the access latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// set returns the column index of the line's set's first way.
func (c *Cache) set(line uint64) int { return (int(line) & (c.sets - 1)) * c.ways }

// find returns the column index of the line's way, or -1 if it is absent.
func (c *Cache) find(line uint64) int {
	base := c.set(line)
	for i, t := range c.tags[base : base+c.ways] {
		if t == line+1 {
			return base + i
		}
	}
	return -1
}

// touch makes way i the most recently used and marks it dirty on a write.
func (c *Cache) touch(i int, isWrite bool) {
	c.lruClock++
	c.lru[i] = c.lruClock
	if isWrite {
		c.state[i] |= wayDirty
	}
}

// Lookup probes for the line (a line number, i.e. addr/LineSize). On hit it
// updates recency, clears the unused-prefetch mark, and returns the fill
// source recorded for the line. It does not count stats; Hierarchy does.
func (c *Cache) Lookup(line uint64, isWrite bool) (src PrefetchSource, wasUnused, hit bool) {
	i := c.find(line)
	if i < 0 {
		return SrcDemand, false, false
	}
	c.touch(i, isWrite)
	st := c.state[i]
	c.state[i] = st &^ wayUnused
	return PrefetchSource(st >> srcShift), st&wayUnused != 0, true
}

// Contains reports whether the line is present, without touching recency.
func (c *Cache) Contains(line uint64) bool { return c.find(line) >= 0 }

// Insert fills the line, evicting the LRU victim if the set is full.
// It returns the evicted line number and whether an eviction of a valid
// (and dirty) line occurred.
func (c *Cache) Insert(line uint64, isWrite bool, src PrefetchSource) (victim uint64, evicted, dirty bool) {
	base := c.set(line)
	// One pass finds the line if already present (e.g. racing fills) and
	// otherwise the victim: the first invalid way, else the LRU way.
	vi, free := base, false
	for w, t := range c.tags[base : base+c.ways] {
		i := base + w
		switch {
		case t == line+1:
			c.touch(i, isWrite)
			return 0, false, false
		case free:
		case t == 0:
			vi, free = i, true
		case c.lru[i] < c.lru[vi]:
			vi = i
		}
	}
	if free && vi == base {
		c.filled = append(c.filled, base)
	}
	if !free {
		st := c.state[vi]
		victim, evicted, dirty = c.tags[vi]-1, true, st&wayDirty != 0
		if st&wayUnused != 0 && PrefetchSource(st>>srcShift) != SrcDemand {
			c.PrefetchEvictedUnused++
		}
		if dirty {
			c.DirtyEvicts++
		}
	}
	c.lruClock++
	c.tags[vi], c.lru[vi] = line+1, c.lruClock
	st := uint8(src) << srcShift
	if isWrite {
		st |= wayDirty
	}
	if src != SrcDemand {
		st |= wayUnused
	}
	c.state[vi] = st
	return victim, evicted, dirty
}

// ResetStats zeroes the counters, keeping cache contents.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.DirtyEvicts, c.PrefetchEvictedUnused = 0, 0, 0, 0
}

// Reset clears all lines and statistics. It invalidates only the sets
// filled since the last Reset: every other set is still empty.
func (c *Cache) Reset() {
	for _, base := range c.filled {
		clear(c.tags[base : base+c.ways])
	}
	c.filled = c.filled[:0]
	c.lruClock = 0
	c.Hits, c.Misses, c.DirtyEvicts, c.PrefetchEvictedUnused = 0, 0, 0, 0
}
