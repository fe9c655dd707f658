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

import (
	"math/bits"
	"sync"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// pageShift sizes backing pages at 4 KiB (512 words); regionShift groups
// them into 2 MiB regions of 512 page refs.
const (
	pageShift   = 12
	pageWords   = 1 << (pageShift - 3)
	regionShift = 21
	regionPages = 1 << (regionShift - pageShift)
)

// regionSlots is the size of Backing's direct-mapped region cache. Regions
// 128 MiB apart share a slot; every workload image lies in the 16-123 MiB
// window, so its regions never do.
const regionSlots = 64

// page is one 4 KiB backing page.
type page = [pageWords]uint64

// region is one 2 MiB span of a backing: a ref per page (nil = never
// written, reads as zero) and a bitmap of the pages this backing owns.
// Pages it does not own are shared with an Image and read-only: Store
// copies one before its first write (copy-on-write). Pages faulted in by
// Store are owned from birth. Release hands the owned pages, and only
// those, back to the image the backing was seeded from.
type region struct {
	pages [regionPages]*page
	owned [regionPages / 64]uint64
}

// regionSlot caches one region lookup: tag is the region key plus one (0
// = empty slot) and r the region, nil when the backing has none there.
type regionSlot struct {
	tag uint64
	r   *region
}

// Backing is a sparse, paged functional memory. The zero value is not
// usable; create with NewBacking or NewBackingFrom. It implements
// isa.Memory.
//
// Accesses are aligned to 64-bit words: the low three address bits are
// ignored, matching the mini-ISA's word-granular loads and stores.
type Backing struct {
	regions map[uint64]*region
	// cache holds the most recent lookup of each slot's regions, absent
	// regions included, so a hit reaches the page without hashing.
	cache  [regionSlots]regionSlot
	npages uint64 // distinct pages held, for Footprint
	// img is the image the backing was seeded from (nil for NewBacking):
	// writable takes pages released to it before allocating, and Release
	// hands the backing's own pages back to it.
	img *Image
}

// NewBacking returns an empty memory; all addresses read as zero.
func NewBacking() *Backing {
	return &Backing{regions: make(map[uint64]*region)}
}

// Image is an immutable memory snapshot. Many Backings can be seeded from
// one Image concurrently (NewBackingFrom): they share its pages until
// first write, so a sweep pays one image build plus only the pages each
// cell actually dirties, instead of re-running the workload initializer —
// and re-allocating its full footprint — per cell. A released backing
// returns the pages it dirtied to its image, and later backings of the
// image take those before allocating, so a sweep allocates only as many
// pages as its concurrently running cells dirty.
type Image struct {
	regions map[uint64]*[regionPages]*page
	npages  uint64

	// free holds the pages released by backings seeded from this image.
	// It is a list under a lock rather than a sync.Pool: which page
	// objects get reused never changes a result, but a pool the garbage
	// collector empties would make allocation counts vary from run to run.
	mu   sync.Mutex
	free []*page // vrlint:guardedby mu
}

// Snapshot freezes the backing's current contents into a shared Image.
// The image aliases the backing's pages, so every page becomes shared:
// a later Store through this backing copies the page it lands on first,
// and the image never changes under its readers.
func (b *Backing) Snapshot() *Image {
	img := &Image{regions: make(map[uint64]*[regionPages]*page, len(b.regions)), npages: b.npages}
	//vrlint:allow simdet -- each iteration writes only its own key: the resulting map and regions are identical under any iteration order
	for k, r := range b.regions {
		pages := r.pages
		img.regions[k] = &pages
		r.owned = [regionPages / 64]uint64{}
	}
	return img
}

// NewBackingFrom returns a backing initialized to the image's contents,
// copy-on-write: reads are served from the shared pages, and the first
// store to a page copies it privately. Only the regions' page refs are
// copied. Safe to call (and use the results) from concurrent goroutines
// as long as each Backing stays goroutine-local.
func NewBackingFrom(img *Image) *Backing {
	b := &Backing{regions: make(map[uint64]*region, len(img.regions)), npages: img.npages, img: img}
	//vrlint:allow simdet -- each iteration writes only its own key: the resulting map is identical under any iteration order
	for k, pages := range img.regions {
		b.regions[k] = &region{pages: *pages}
	}
	return b
}

// lookup returns the region with the given key, nil if the backing has
// none, through the region cache.
func (b *Backing) lookup(key uint64) *region {
	s := &b.cache[key%regionSlots]
	if s.tag != key+1 {
		*s = regionSlot{tag: key + 1, r: b.regions[key]}
	}
	return s.r
}

// Load returns the 64-bit word at addr (aligned down).
func (b *Backing) Load(addr uint64) uint64 {
	r := b.lookup(addr >> regionShift)
	if r == nil {
		return 0
	}
	p := r.pages[(addr>>pageShift)&(regionPages-1)]
	if p == nil {
		return 0
	}
	return p[(addr>>3)&(pageWords-1)]
}

// Store writes the 64-bit word at addr (aligned down).
func (b *Backing) Store(addr, val uint64) {
	b.writable(addr)[(addr>>3)&(pageWords-1)] = val
}

// StoreSlice writes vals as consecutive 64-bit words starting at addr
// (aligned down), copying one page span at a time.
func (b *Backing) StoreSlice(addr uint64, vals []uint64) {
	for len(vals) > 0 {
		n := copy(b.writable(addr)[(addr>>3)&(pageWords-1):], vals)
		vals = vals[n:]
		addr += uint64(n) * 8
	}
}

// writable returns the page holding addr, owned by this backing: a
// missing region or page is allocated, and a page shared with an image
// is copied first.
func (b *Backing) writable(addr uint64) *page {
	key := addr >> regionShift
	r := b.lookup(key)
	if r == nil {
		r = new(region)
		b.regions[key] = r
		b.cache[key%regionSlots].r = r
	}
	i := (addr >> pageShift) & (regionPages - 1)
	word, bit := i/64, uint64(1)<<(i%64)
	if r.owned[word]&bit != 0 {
		return r.pages[i]
	}
	p := b.img.take()
	switch {
	case p == nil:
		p = new(page)
	case r.pages[i] == nil:
		*p = page{} // a reused page must read as zero where nothing was written
	}
	if r.pages[i] != nil {
		*p = *r.pages[i]
	} else {
		b.npages++
	}
	r.pages[i] = p
	r.owned[word] |= bit
	return p
}

// take returns a page released to the image, or nil when there is none
// or no image.
func (img *Image) take() *page {
	if img == nil {
		return nil
	}
	img.mu.Lock()
	defer img.mu.Unlock()
	n := len(img.free)
	if n == 0 {
		return nil
	}
	p := img.free[n-1]
	img.free[n-1] = nil
	img.free = img.free[:n-1]
	return p
}

// Release hands the pages this backing owns back to the image it was
// seeded from, where later backings of that image take them before
// allocating. Pages shared with an image are never handed back, so no
// image changes. A backing made by NewBacking has no image and just
// drops its pages. The backing must not be used afterwards.
func (b *Backing) Release() {
	if img := b.img; img != nil {
		img.mu.Lock()
		//vrlint:allow simdet -- the order decides only which page objects later backings reuse: writable overwrites each reused page before anything reads it
		for _, r := range b.regions {
			for w, owned := range r.owned {
				for ; owned != 0; owned &= owned - 1 {
					img.free = append(img.free, r.pages[w*64+bits.TrailingZeros64(owned)])
				}
			}
		}
		img.mu.Unlock()
	}
	*b = Backing{}
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
	return b.npages << pageShift
}
