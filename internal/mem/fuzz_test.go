package mem

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// fuzzBases are the address neighbourhoods FuzzBacking draws from: each
// op adds a signed offset of up to 1 KiB, so spans cross page and region
// boundaries, and regions 8 and 8+regionSlots share a slot of the region
// cache.
var fuzzBases = []uint64{
	0,
	1 << pageShift,
	8<<regionShift + 1<<pageShift*(regionPages-1),
	9 << regionShift,
	(8 + regionSlots) << regionShift,
	(9 + regionSlots) << regionShift,
	1 << 63,
	1<<63 + 3<<regionShift,
	math.MaxUint64 - 1<<12,
}

// backingModel is FuzzBacking's specification of a Backing: the words
// written (keyed by aligned address) and the pages any write touched.
type backingModel struct {
	words map[uint64]uint64
	pages map[uint64]bool
}

func (m backingModel) store(addr, val uint64) {
	m.words[addr&^7] = val
	m.pages[addr>>pageShift] = true
}

func (m backingModel) clone() backingModel {
	return backingModel{words: maps.Clone(m.words), pages: maps.Clone(m.pages)}
}

// matches reports whether b reads back exactly m's words and holds one
// page per page m touched.
func (m backingModel) matches(t *testing.T, b *Backing, what string) {
	t.Helper()
	for addr, want := range m.words {
		if got := b.Load(addr); got != want {
			t.Fatalf("%s: Load(%#x) = %d, want %d", what, addr, got, want)
		}
	}
	if got, want := b.Footprint(), uint64(len(m.pages))<<pageShift; got != want {
		t.Fatalf("%s: Footprint = %d, want %d", what, got, want)
	}
}

// FuzzBacking applies Store, Adopt, Load, Snapshot, NewBackingFrom and
// Release in the order the input spells, four bytes per op (op, base,
// offset, argument), and checks every Load against a map of words. The
// release op hands the current backing's pages back to its image and
// reseeds it from an image, which must then read as that image; pages
// reused from a release must read as the image or as zero. The adopt op
// hands a slice over, on a fresh backing or on one seeded from an image:
// whole pages the backing lacks become the slice's memory, so no later op
// may write the slice, which the end checks against a copy. Every image
// must keep reading as it did when it was taken, and Footprint must be
// 4 KiB per distinct page written. An input runs at most maxOps ops and
// takes at most maxImages snapshots, which keeps the model's copies and
// full checks cheap.
func FuzzBacking(f *testing.F) {
	const maxOps, maxImages = 32, 4
	f.Add([]byte{
		0, 0, 0, 1, 0, 3, 0x80, 2, 1, 4, 0x7f, 200, // stores around the aliasing regions
		3, 0, 0, 0, 1, 2, 0xe0, 255, 4, 0, 0, 0, // snapshot, a span across a region edge, reseed
		2, 2, 0x10, 0, 0, 4, 1, 5, 2, 3, 0, 0, 5, 0, 0, 0,
	})
	f.Add([]byte{
		0, 0, 0, 1, 1, 1, 0x10, 20, 3, 0, 0, 0, 0, 2, 0, 0, // stores, snapshot, a store past the image
		4, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 6, 0, 0, 0, // reseed, copy one page and fault one in, release them
		0, 1, 0, 0, 0, 6, 1, 0, 2, 6, 0, 0, 5, 0, 0, 0, // reuse both: an image page, and one that must read as zero
		3, 0, 0, 0, 6, 1, 0, 1, 0, 6, 0, 0, 5, 0, 0, 0, // snapshot the reused pages, release, reseed from it
	})
	f.Add([]byte{
		1, 6, 0xc0, 120, 1, 8, 0x40, 200, 3, 0, 0, 0, // spans across 2^63 and across 2^64 to 0
		0, 5, 0x90, 9, 4, 0, 0, 0, 2, 6, 0, 0, 1, 1, 0xf0, 150, 5, 0, 0, 0,
	})
	f.Add([]byte{
		1, 2, 0xc0, 200, 1, 6, 0x80, 90, 5, 0, 0, 0, // slices across a region edge and across 2^63
		3, 0, 0, 0, 4, 0, 0, 0, 1, 2, 0x40, 200, 5, 0, 0, 0, // snapshot, reseed, copy into two shared pages
		0, 1, 0, 0, 1, 1, 0xf0, 30, 2, 2, 0x60, 0, 6, 0, 0, 0, // an owned page and a new one, release, reseed
	})
	f.Add([]byte{
		1, 1, 0, 176, 0, 1, 0x10, 0, 3, 0, 0, 0, // adopt page 1 whole, store into it, snapshot
		6, 0, 0, 0, 1, 3, 0, 248, 0, 1, 0x20, 0, // release, reseed, adopt region 9's first page whole, store into page 1
		6, 0, 0, 0, 0, 1, 0x30, 0, 0, 3, 0x10, 0, 0, 0, 0, 0, // release, reseed, store into three reused pages
		3, 0, 0, 0, 6, 1, 0, 0, 0, 1, 0x40, 0, 5, 0, 0, 0, // snapshot, release, reseed from it, store again
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := NewBacking()
		model := backingModel{words: map[uint64]uint64{}, pages: map[uint64]bool{}}
		var images []*Image
		var imageModels []backingModel
		var adopted, copies [][]uint64
		for i := 0; i+4 <= min(len(ops), 4*maxOps); i += 4 {
			op, base, off, arg := ops[i], ops[i+1], ops[i+2], ops[i+3]
			addr := fuzzBases[int(base)%len(fuzzBases)] + uint64(int64(int8(off))*8) + uint64(arg&7)
			val := uint64(i+1) * 0x9e3779b97f4a7c15
			switch op % 7 {
			case 0:
				b.Store(addr, val)
				model.store(addr, val)
			case 1:
				vals := make([]uint64, int(arg)*3)
				for j := range vals {
					vals[j] = val + uint64(j)
					model.store(addr+uint64(j)*8, vals[j])
				}
				b.Adopt(addr, vals)
				adopted, copies = append(adopted, vals), append(copies, slices.Clone(vals))
			case 2:
				if got, want := b.Load(addr), model.words[addr&^7]; got != want {
					t.Fatalf("op %d: Load(%#x) = %d, want %d", i/4, addr, got, want)
				}
			case 3:
				if len(images) == maxImages {
					continue
				}
				images = append(images, b.Snapshot())
				imageModels = append(imageModels, model.clone())
			case 4:
				if len(images) > 0 {
					k := int(arg) % len(images)
					b, model = NewBackingFrom(images[k]), imageModels[k].clone()
				}
			case 5:
				model.matches(t, b, "backing")
			case 6:
				if len(images) > 0 {
					k := int(arg) % len(images)
					b.Release()
					b, model = NewBackingFrom(images[k]), imageModels[k].clone()
					model.matches(t, b, "reseeded backing")
				}
			}
		}
		model.matches(t, b, "backing at the end")
		for k, img := range images {
			imageModels[k].matches(t, NewBackingFrom(img), "image")
		}
		for k, vals := range adopted {
			if !slices.Equal(vals, copies[k]) {
				t.Fatalf("adopted slice %d was written after Adopt", k)
			}
		}
	})
}
