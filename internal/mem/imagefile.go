package mem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"syscall"
	"unsafe"
)

// An image file holds an Image and its writer's metadata, laid out so
// that MapImage can hand the file's pages to the Image in place. Every
// word is in the host's byte order: a file is read back by the binary
// that wrote it, on the same host.
//
//	word 0        m, the metadata's length in bytes
//	word 1        n, the number of pages
//	words 2..n+1  the page numbers (address >> 12), ascending
//	then          the metadata, zero-padded to a multiple of 4 KiB
//	then          the n pages, 4 KiB each, in page-number order
const imageHeaderWords = 2

// pageBytes is a backing page's size, and the alignment of the pages in
// an image file.
const pageBytes = 1 << pageShift

// pages calls visit on each page the image holds, in address order, with
// the page's number.
func (img *Image) pages(visit func(pn uint64, p *page)) {
	keys := make([]uint64, 0, len(img.regions))
	for k := range img.regions { //vrlint:allow simdet -- collect-then-sort: order is normalized below
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for i, p := range img.regions[k] {
			if p != nil {
				visit(k<<(regionShift-pageShift)|uint64(i), p)
			}
		}
	}
}

// WriteImage writes meta and img to w as an image file, which MapImage
// maps back.
func WriteImage(w io.Writer, meta []byte, img *Image) error {
	var pns []uint64
	var ps []*page
	img.pages(func(pn uint64, p *page) {
		pns = append(pns, pn)
		ps = append(ps, p)
	})
	// A bufio.Writer keeps its first write error and Flush returns it, so
	// the writes below need no checks of their own.
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf []byte
	put := func(words ...uint64) {
		buf = buf[:0]
		for _, v := range words {
			buf = binary.NativeEndian.AppendUint64(buf, v)
		}
		_, _ = bw.Write(buf)
	}
	put(uint64(len(meta)), uint64(len(pns)))
	put(pns...)
	_, _ = bw.Write(meta)
	head := 8*(imageHeaderWords+len(pns)) + len(meta)
	_, _ = bw.Write(make([]byte, alignPage(head)-head))
	for _, p := range ps {
		_, _ = bw.Write(pageView(p))
	}
	return bw.Flush()
}

// alignPage rounds n up to a multiple of the page size.
func alignPage(n int) int { return (n + pageBytes - 1) &^ (pageBytes - 1) }

// errImageFile reports an image file whose layout does not add up.
var errImageFile = errors.New("mem: malformed image file")

// MapImage maps the image file at path (WriteImage) into memory, read-only
// and shared, and returns its metadata and an Image whose pages are the
// mapping's: nothing is copied, every process that maps the file shares
// one copy of it, and a write to one of its pages faults. Backings seeded
// from the Image copy a page before writing it, as they copy any page
// they do not own. The mapping lasts as long as the process.
func MapImage(path string) (meta []byte, img *Image, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size < 8*imageHeaderWords || size%8 != 0 {
		return nil, nil, fmt.Errorf("%w: %s is %d bytes", errImageFile, path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("mem: map %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			_ = syscall.Munmap(data)
		}
	}()
	// The one conversion from the mapping's bytes to words. The mapping
	// starts on a host page, so every word, and every page at its 4 KiB
	// offset, is aligned.
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(data))), len(data)/8)
	m, n := words[0], words[1]
	if n > uint64(len(words)-imageHeaderWords) || m > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: %s claims %d pages and %d bytes of metadata", errImageFile, path, n, m)
	}
	head := 8*(imageHeaderWords+int(n)) + int(m)
	if int64(alignPage(head))+int64(n)*pageBytes != size {
		return nil, nil, fmt.Errorf("%w: %s is %d bytes, its layout %d", errImageFile, path, size, int64(alignPage(head))+int64(n)*pageBytes)
	}
	pns, body := words[imageHeaderWords:imageHeaderWords+n], words[alignPage(head)/8:]
	img = &Image{regions: make(map[uint64]*[regionPages]*page), npages: n}
	for i, pn := range pns {
		if i > 0 && pn <= pns[i-1] {
			return nil, nil, fmt.Errorf("%w: %s: page numbers out of order at %d", errImageFile, path, i)
		}
		r := img.regions[pn>>(regionShift-pageShift)]
		if r == nil {
			r = new([regionPages]*page)
			img.regions[pn>>(regionShift-pageShift)] = r
		}
		r[pn&(regionPages-1)] = (*page)(body[i*PageWords : (i+1)*PageWords])
	}
	return slices.Clone(data[head-int(m) : head]), img, nil
}

// pageView returns p's bytes, its words in host byte order: the one
// conversion from a page to bytes, the way back from MapImage's, so that
// WriteImage writes a page whole.
func pageView(p *page) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(p)), pageBytes)
}
