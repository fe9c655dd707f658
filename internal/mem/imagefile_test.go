package mem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
)

// imageFixture returns an image over pages in three regions that share a
// region-cache slot, some stored word by word and some adopted whole, and
// metadata to publish with it.
func imageFixture() (*Image, []byte) {
	b := NewBacking()
	for r := uint64(0); r < 3; r++ {
		base := (8 + r*regionSlots) << regionShift
		for pg := uint64(0); pg < regionPages; pg += 97 {
			b.Store(base+pg<<pageShift+8*(pg%PageWords), r<<32|pg)
		}
	}
	run := make([]uint64, 3*PageWords)
	for i := range run {
		run[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.Adopt(0x0300_0000, run)
	return b.Snapshot(), []byte(`{"kernel":"fixture"}`)
}

// writeImageFile writes img and meta to a new file in dir and returns its
// path and bytes.
func writeImageFile(t *testing.T, dir string, meta []byte, img *Image) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteImage(&buf, meta, img); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "image")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestImageFileRoundTrip: a mapped image file holds the pages and the
// metadata that were written, and backings seeded from it read what
// backings seeded from the original do. A write that fails anywhere in
// the file fails WriteImage.
func TestImageFileRoundTrip(t *testing.T) {
	img, meta := imageFixture()
	path, _ := writeImageFile(t, t.TempDir(), meta, img)
	gotMeta, mapped, err := MapImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMeta, meta) {
		t.Errorf("metadata %q, want %q", gotMeta, meta)
	}
	if got, want := mapped.Digest(), img.Digest(); got != want {
		t.Errorf("mapped image digests %s, written %s", got, want)
	}
	a, b := NewBackingFrom(img), NewBackingFrom(mapped)
	if a.Footprint() != b.Footprint() {
		t.Errorf("footprint %d, want %d", b.Footprint(), a.Footprint())
	}
	for addr := uint64(0x0100_0000); addr < 0x1000_0000; addr += 0x1_0008 {
		if got, want := b.Load(addr), a.Load(addr); got != want {
			t.Fatalf("%#x reads %d from the mapped image, %d from the original", addr, got, want)
		}
	}

	_, empty := writeImageFile(t, t.TempDir(), nil, NewBacking().Snapshot())
	if len(empty) != pageBytes {
		t.Errorf("an empty image's file is %d bytes, want one page of header", len(empty))
	}
	for _, n := range []int{0, 100, 70_000} {
		if err := WriteImage(&shortWriter{n: n}, meta, img); err == nil {
			t.Errorf("WriteImage to a writer that fails after %d bytes returned no error", n)
		}
	}
}

// shortWriter accepts n bytes, then fails every write.
type shortWriter struct{ n int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("short write")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestMappedImageStaysReadOnly: stores into backings seeded from a mapped
// image, and their release, leave the file's bytes and the image's digest
// as they were, and a write straight to one of the image's pages faults.
func TestMappedImageStaysReadOnly(t *testing.T) {
	img, meta := imageFixture()
	path, written := writeImageFile(t, t.TempDir(), meta, img)
	_, mapped, err := MapImage(path)
	if err != nil {
		t.Fatal(err)
	}
	want := mapped.Digest()
	for round := 0; round < 2; round++ {
		b := NewBackingFrom(mapped)
		for addr := uint64(0x0100_0000); addr < 0x1000_0000; addr += 0x1_0008 {
			b.Store(addr, addr^uint64(round))
		}
		b.Adopt(0x0300_0000, make([]uint64, 2*PageWords))
		b.Release()
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, written) {
		t.Errorf("the image file changed under stores and releases (err %v)", err)
	}
	if got := mapped.Digest(); got != want {
		t.Errorf("mapped image digests %s after stores and releases, %s before", got, want)
	}

	var p *page
	mapped.pages(func(_ uint64, q *page) { p = q })
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	func() {
		defer func() {
			err, _ := recover().(runtime.Error)
			if _, ok := err.(interface{ Addr() uintptr }); !ok {
				t.Errorf("a write to a mapped page recovered %v, want a memory fault", err)
			}
		}()
		p[0] = 1
	}()
}

// TestMapImageRejectsMalformed: a file whose layout does not add up is an
// error, never a panic or a short image.
func TestMapImageRejectsMalformed(t *testing.T) {
	img, meta := imageFixture()
	dir := t.TempDir()
	_, good := writeImageFile(t, dir, meta, img)
	for name, data := range map[string][]byte{
		"short":     good[:4],
		"truncated": good[:len(good)-8],
		"extended":  append(bytes.Clone(good), make([]byte, pageBytes)...),
		"pages":     append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, good[16:]...),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapImage(path); !errors.Is(err, errImageFile) {
			t.Errorf("%s: MapImage returned %v, want %v", name, err, errImageFile)
		}
	}
}
