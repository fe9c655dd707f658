// Package prefetch implements the hardware prefetchers of the paper's
// evaluation: the always-on L1-D stride/stream prefetcher (16 streams) and
// the Indirect Memory Prefetcher (IMP) comparison point, plus the
// Reference-Prediction-Table stride detector shared with Vector Runahead's
// striding-load detection.
package prefetch

import "vrsim/internal/mem"

// StrideEntry is one Reference Prediction Table entry tracking a load PC.
type StrideEntry struct {
	PC       int
	LastAddr uint64
	Stride   int64
	// Conf is a 2-bit saturating confidence counter; >= 2 means the
	// stride is established.
	Conf uint8
	// used orders entries for LRU replacement.
	used uint64
}

// Confident reports whether the entry has an established nonzero stride.
func (e *StrideEntry) Confident() bool { return e.Conf >= 2 && e.Stride != 0 }

// StrideTable is an RPT-style stride detector: a small, LRU-managed table
// of per-PC address deltas with saturating confidence, as in Chen & Baer's
// reference prediction table. Both the stream prefetcher and Vector
// Runahead's striding-load detection are built on it (the paper's stride
// detector is "32-entry, ... 2 bits for the saturating counter").
type StrideTable struct {
	entries []StrideEntry
	clock   uint64
}

// NewStrideTable returns a table with the given number of entries. A
// negative count allocates an empty table.
func NewStrideTable(entries int) *StrideTable {
	if entries < 0 {
		entries = 0
	}
	return &StrideTable{entries: make([]StrideEntry, 0, entries)}
}

// Observe records one access by the load at pc to addr and returns the
// entry after the update. The returned entry is valid until the next call.
func (t *StrideTable) Observe(pc int, addr uint64) *StrideEntry {
	t.clock++
	// Hit?
	for i := range t.entries {
		e := &t.entries[i]
		if e.PC != pc {
			continue
		}
		stride := int64(addr) - int64(e.LastAddr)
		if stride == e.Stride {
			e.Conf = min8(e.Conf+1, 3)
		} else {
			if e.Conf > 0 {
				e.Conf--
			}
			if e.Conf == 0 {
				e.Stride = stride
			}
		}
		e.LastAddr = addr
		e.used = t.clock
		return e
	}
	// Miss: allocate, evicting LRU if full.
	ne := StrideEntry{PC: pc, LastAddr: addr, used: t.clock}
	if len(t.entries) < cap(t.entries) {
		t.entries = append(t.entries, ne)
		return &t.entries[len(t.entries)-1]
	}
	vi := 0
	for i := range t.entries {
		if t.entries[i].used < t.entries[vi].used {
			vi = i
		}
	}
	t.entries[vi] = ne
	return &t.entries[vi]
}

// Lookup returns the entry for pc without modifying it, if present.
func (t *StrideTable) Lookup(pc int) (*StrideEntry, bool) {
	for i := range t.entries {
		if t.entries[i].PC == pc {
			return &t.entries[i], true
		}
	}
	return nil, false
}

// SizeBytes returns the hardware cost of the table using the paper's
// per-entry accounting: 48-bit PC + 48-bit last address + 16-bit stride +
// 2-bit counter + 1 bit of flags, rounded up per entry.
func (t *StrideTable) SizeBytes() int {
	bits := cap(t.entries) * (48 + 48 + 16 + 2 + 1)
	return (bits + 7) / 8
}

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

// StreamPrefetcher is the always-on L1-D stride prefetcher from Table 1:
// it trains an RPT on demand accesses and, once a stream is confident,
// issues prefetches `Degree` strides ahead.
type StreamPrefetcher struct {
	table  *StrideTable
	Degree int // how many strides ahead to cover (default 4)

	// Issued counts prefetch attempts (including ones the hierarchy
	// dropped as duplicates).
	Issued uint64
}

// NewStreamPrefetcher returns a prefetcher with `streams` concurrent
// streams (table entries) and the given lookahead degree.
func NewStreamPrefetcher(streams, degree int) *StreamPrefetcher {
	return &StreamPrefetcher{table: NewStrideTable(streams), Degree: degree}
}

// OnAccess implements mem.Prefetcher.
func (p *StreamPrefetcher) OnAccess(h *mem.Hierarchy, ev mem.AccessEvent) {
	if ev.IsWrite {
		return
	}
	e := p.table.Observe(ev.PC, ev.Addr)
	if !e.Confident() {
		return
	}
	for d := 1; d <= p.Degree; d++ {
		target := uint64(int64(ev.Addr) + int64(d)*e.Stride)
		// Only issue for new lines; same-line strides collapse.
		if mem.Line(target) == mem.Line(ev.Addr) {
			continue
		}
		p.Issued++
		h.Prefetch(ev.Cycle, target, mem.SrcStride)
	}
}
