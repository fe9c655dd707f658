// Package mem models the simulated memory system: a sparse 64-bit backing
// store holding architectural data, and a timing hierarchy of set-associative
// caches (L1-D, L2, L3) with MSHR-limited miss handling over a
// bandwidth-constrained DRAM, mirroring the baseline configuration in the
// paper's Table 1.
//
// The functional store (Backing) and the timing hierarchy (Hierarchy) are
// deliberately separate: runahead execution reads real data through Backing
// while its memory accesses are timed — and contend for MSHRs and DRAM
// bandwidth — through the same Hierarchy the main thread uses.
package mem

// LineSize is the cache line size in bytes.
const LineSize = 64

// pageShift sizes backing pages at 4 KiB (512 words).
const (
	pageShift = 12
	pageWords = 1 << (pageShift - 3)
)

// pageRef is one backing page plus its ownership: pages seeded from a
// shared Image are read-only until first write, when Store copies them
// (copy-on-write). Pages faulted in by Store are private from birth.
type pageRef struct {
	p    *[pageWords]uint64
	priv bool
}

// recentPages is how many recently written private pages Store keeps at
// hand: workload initializers fill several arrays in lockstep (HashJoin
// interleaves four), and a hit skips the page-map lookup.
const recentPages = 4

// recentPage is one entry of Store's cache: a page key and the private
// page the map holds for it (nil when the entry is empty).
type recentPage struct {
	key uint64
	p   *[pageWords]uint64
}

// Backing is a sparse, paged functional memory. The zero value is not
// usable; create with NewBacking or NewBackingFrom. It implements
// isa.Memory.
//
// Accesses are aligned to 64-bit words: the low three address bits are
// ignored, matching the mini-ISA's word-granular loads and stores.
type Backing struct {
	pages map[uint64]pageRef
	// recent caches the last private pages writable returned, replaced
	// round-robin at next. Every entry mirrors a private page of the
	// map; Snapshot, which shares every page, empties it.
	recent [recentPages]recentPage
	next   uint
}

// NewBacking returns an empty memory; all addresses read as zero.
func NewBacking() *Backing {
	return &Backing{pages: make(map[uint64]pageRef)}
}

// Image is an immutable memory snapshot. Many Backings can be seeded from
// one Image concurrently (NewBackingFrom): they share its pages until
// first write, so a sweep pays one image build plus only the pages each
// cell actually dirties, instead of re-running the workload initializer —
// and re-allocating its full footprint — per cell.
type Image struct {
	pages map[uint64]*[pageWords]uint64
}

// Snapshot freezes the backing's current contents into a shared Image.
// The image aliases the backing's pages, so every page becomes shared:
// a later Store through this backing copies the page it lands on first,
// and the image never changes under its readers.
func (b *Backing) Snapshot() *Image {
	img := &Image{pages: make(map[uint64]*[pageWords]uint64, len(b.pages))}
	//vrlint:allow simdet -- each iteration writes only its own key in each map: the resulting maps are identical under any iteration order
	for k, e := range b.pages {
		img.pages[k] = e.p
		b.pages[k] = pageRef{p: e.p}
	}
	b.recent = [recentPages]recentPage{}
	return img
}

// NewBackingFrom returns a backing initialized to the image's contents,
// copy-on-write: reads are served from the shared pages, and the first
// store to a page copies it privately. Safe to call (and use the results)
// from concurrent goroutines as long as each Backing stays goroutine-local.
func NewBackingFrom(img *Image) *Backing {
	pages := make(map[uint64]pageRef, len(img.pages))
	//vrlint:allow simdet -- each iteration writes only its own key: the resulting map is identical under any iteration order
	for k, p := range img.pages {
		pages[k] = pageRef{p: p}
	}
	return &Backing{pages: pages}
}

// Load returns the 64-bit word at addr (aligned down).
func (b *Backing) Load(addr uint64) uint64 {
	e, ok := b.pages[addr>>pageShift]
	if !ok {
		return 0
	}
	return e.p[(addr>>3)&(pageWords-1)]
}

// Store writes the 64-bit word at addr (aligned down). A write to one of
// the last recentPages private pages reached through the map skips the
// map.
func (b *Backing) Store(addr, val uint64) {
	key := addr >> pageShift
	for _, r := range b.recent {
		if r.p != nil && r.key == key {
			r.p[(addr>>3)&(pageWords-1)] = val
			return
		}
	}
	b.writable(key)[(addr>>3)&(pageWords-1)] = val
}

// StoreSlice writes vals as consecutive 64-bit words starting at addr
// (aligned down), copying one page span at a time.
func (b *Backing) StoreSlice(addr uint64, vals []uint64) {
	for len(vals) > 0 {
		n := copy(b.writable(addr >> pageShift)[(addr>>3)&(pageWords-1):], vals)
		vals = vals[n:]
		addr += uint64(n) * 8
	}
}

// writable returns the private page with the given key, reached through
// the map: a missing page is allocated and a page shared with an image is
// copied first. The page joins the recent cache.
func (b *Backing) writable(key uint64) *[pageWords]uint64 {
	e, ok := b.pages[key]
	if !ok {
		e = pageRef{p: new([pageWords]uint64), priv: true}
		b.pages[key] = e
	} else if !e.priv {
		p := new([pageWords]uint64)
		*p = *e.p
		e = pageRef{p: p, priv: true}
		b.pages[key] = e
	}
	b.recent[b.next%recentPages] = recentPage{key: key, p: e.p}
	b.next++
	return e.p
}

// LoadSlice reads n consecutive 64-bit words starting at addr. A
// negative n reads nothing.
func (b *Backing) LoadSlice(addr uint64, n int) []uint64 {
	if n < 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = b.Load(addr + uint64(i)*8)
	}
	return out
}

// Footprint returns the number of bytes of allocated pages, a proxy for
// the workload's touched data size.
func (b *Backing) Footprint() uint64 {
	return uint64(len(b.pages)) << pageShift
}
