// Package workloads contains the paper's 13 evaluation benchmarks,
// hand-compiled to the vrsim mini-ISA: the GAP kernels (bc, bfs, cc, pr,
// sssp) over synthetic Kronecker and uniform-random graphs, and the
// HPC/database set (camel, graph500, hj2, hj8, kangaroo, nas-cg, nas-is,
// randomaccess) the paper groups as hpc-db.
//
// Each workload couples a program with a memory-image initializer and a
// validator: the initializer lays the data structures out in the simulated
// backing store; the validator recomputes the kernel natively in Go and
// compares, so a timing model can never silently execute the wrong
// computation. Working sets default to several times the 8 MB LLC so the
// indirect loads miss, matching the paper's region-of-interest conditions.
package workloads

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/rng"
)

// Workload is one runnable benchmark.
type Workload struct {
	// Name identifies the workload in reports ("bfs", "camel", ...).
	Name string
	// Prog is the kernel.
	Prog *isa.Program
	// Init writes the initial memory image. The arrays it hands over
	// (mem.Backing.Adopt) become the image's pages, so nothing may write
	// them afterwards, the validator included.
	Init func(d *mem.Backing) `json:"-"`
	// Validate recomputes the kernel natively and checks the final memory
	// image and registers; it returns an error describing any mismatch.
	Validate func(d *mem.Backing, regs [isa.NumRegs]uint64) error `json:"-"`
	// SuggestedBudget is an instruction budget that covers the kernel's
	// steady state at default scale (0 = run to Halt).
	SuggestedBudget uint64
	// Nodes and Edges are the vertex and directed-edge counts of a graph
	// kernel's input; both are 0 for the kernels that run on no graph.
	Nodes, Edges int
	// SkipInstrs is the initialization-phase length: the harness runs this
	// many instructions, resets all statistics (keeping microarchitectural
	// state), and measures from there — the paper's region-of-interest
	// convention.
	SkipInstrs uint64

	// imageOnce/image cache the initialized memory image: Init runs once
	// per workload and every Fresh call after the first is a copy-on-write
	// view of the shared snapshot (see mem.Image). Sweeps share one
	// Workload across cells and attempts, so this turns tens of MB of
	// per-cell initialization into a page-table copy.
	imageOnce sync.Once
	image     *mem.Image
}

// Fresh returns an initialized backing store for the workload. Each call
// returns an independent store: cells never observe each other's writes.
// A store's dirtied pages go back to the workload's image when it is
// released (the harness releases the stores of every cell that succeeds),
// and later stores take them before allocating. Safe for concurrent use.
func (w *Workload) Fresh() *mem.Backing {
	return mem.NewBackingFrom(w.snapshot())
}

// snapshot returns the workload's memory image, running Init the first
// time.
func (w *Workload) snapshot() *mem.Image {
	w.imageOnce.Do(func() {
		d := mem.NewBacking()
		w.Init(d)
		w.image = d.Snapshot()
	})
	return w.image
}

// Publish writes w's program, metadata and initial memory image to a new
// file at path (mem.WriteImage), running Init if w has no image yet: the
// workload's exported fields but Init and Validate, JSON-encoded, as the
// image's metadata. Open maps the file back.
func Publish(path string, w *Workload) error {
	meta, err := json.Marshal(w)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mem.WriteImage(f, meta, w.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Open returns the workload Publish wrote to path. Its image is the
// file's pages, mapped read-only (mem.MapImage), so every process that
// opens the file shares one copy. It has no Init or Validate: Fresh
// seeds backings from the mapped image.
func Open(path string) (*Workload, error) {
	meta, img, err := mem.MapImage(path)
	if err != nil {
		return nil, err
	}
	w := new(Workload)
	if err := json.Unmarshal(meta, w); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", path, err)
	}
	w.imageOnce.Do(func() { w.image = img })
	return w, nil
}

// layout hands out disjoint, widely separated array base addresses so
// distinct structures never share cache sets by accident and prefetcher
// streams stay distinguishable.
type layout struct{ next uint64 }

func newLayout() *layout { return &layout{next: 0x0100_0000} }

// array reserves space for n 64-bit words and returns the base address.
func (l *layout) array(n int) uint64 {
	base := l.next
	bytes := uint64(n) * 8
	// Round the next base past this array plus a 1 MiB guard, keeping
	// 4 KiB alignment.
	l.next = (base + bytes + (1 << 20) + 0xfff) &^ 0xfff
	return base
}

// drawPages writes n-element arrays from seed's xorshift stream and
// hands them to d: element i of the arrays at bases takes the len(bases)
// draws after draw skip+len(bases)·i, one per array in order. It hands
// contiguous runs of page indices to GOMAXPROCS goroutines. Each
// allocates its run of every array as one slice, jumps its stream once,
// to its run's first draw, and then calls fill on each page index of its
// run: fill writes page[j], that page of the array at bases[j], drawing
// after state s, and returns the state it leaves. Once they return, the
// runs are handed over (mem.Backing.Adopt). Page k of every array holds
// elements k·mem.PageWords on, since the layout aligns arrays to pages,
// so the image is the same at every GOMAXPROCS.
func drawPages(d *mem.Backing, seed, skip uint64, n int, bases []uint64, fill func(s uint64, page [][]uint64) uint64) {
	pages := (n + mem.PageWords - 1) / mem.PageWords
	// runs[j][k] is the run of array j that starts at page k, if one does.
	runs := make([][][]uint64, len(bases))
	for j := range runs {
		runs[j] = make([][]uint64, pages)
	}
	rng.Chunks(pages, func(lo, hi int) {
		if lo == hi {
			return
		}
		first, last := lo*mem.PageWords, min(hi*mem.PageWords, n)
		for j := range runs {
			runs[j][lo] = make([]uint64, last-first)
		}
		s := rng.Jump(rng.Seed(seed), skip+uint64(len(bases)*first))
		page := make([][]uint64, len(bases))
		for w := 0; w < last-first; w += mem.PageWords {
			for j := range runs {
				page[j] = runs[j][lo][w:min(w+mem.PageWords, last-first)]
			}
			s = fill(s, page)
		}
	})
	for j, base := range bases {
		for k, run := range runs[j] {
			if run != nil {
				d.Adopt(base+uint64(k*mem.PageWords*8), run)
			}
		}
	}
}

// checkRange compares a memory range against expected values.
func checkRange(d *mem.Backing, base uint64, want []uint64, what string) error {
	for i, w := range want {
		if got := d.Load(base + uint64(i)*8); got != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}

// A BuilderEntry lazily constructs one default-scale workload. Graph
// workloads synthesize multi-million-edge inputs at construction, so the
// registry hands out builders rather than eagerly building all 18.
type BuilderEntry struct {
	Name  string
	Build func() *Workload
}

// Builders returns the default registry, in the paper's reporting order:
// the GAP kernels once per graph input (KR and UR), then the hpc-db set.
func Builders() []BuilderEntry {
	var bs []BuilderEntry
	for _, g := range []struct {
		tag  string
		kind GraphKind
	}{{"kr", GraphKron}, {"ur", GraphUniform}} {
		g := g
		bs = append(bs,
			BuilderEntry{"bc_" + g.tag, func() *Workload { return BC(DefaultGraphScale, g.kind, g.tag) }},
			BuilderEntry{"bfs_" + g.tag, func() *Workload { return BFS(DefaultGraphScale, g.kind, g.tag) }},
			BuilderEntry{"cc_" + g.tag, func() *Workload { return CC(DefaultGraphScale, g.kind, g.tag) }},
			BuilderEntry{"pr_" + g.tag, func() *Workload { return PR(DefaultGraphScale, g.kind, g.tag) }},
			BuilderEntry{"sssp_" + g.tag, func() *Workload { return SSSP(DefaultGraphScale, g.kind, g.tag) }},
		)
	}
	bs = append(bs,
		BuilderEntry{"camel", func() *Workload { return Camel(DefaultTableLog, DefaultIters) }},
		BuilderEntry{"graph500", func() *Workload { return Graph500(DefaultGraphScale) }},
		BuilderEntry{"hj2", func() *Workload { return HashJoin(2, DefaultTableLog, DefaultIters) }},
		BuilderEntry{"hj8", func() *Workload { return HashJoin(8, DefaultTableLog, DefaultIters) }},
		BuilderEntry{"kangaroo", func() *Workload { return Kangaroo(DefaultTableLog, DefaultIters) }},
		BuilderEntry{"nas-cg", func() *Workload { return NASCG(DefaultCGRows, DefaultCGNnzPerRow) }},
		BuilderEntry{"nas-is", func() *Workload { return NASIS(DefaultTableLog, DefaultIters) }},
		BuilderEntry{"randomaccess", func() *Workload { return RandomAccess(DefaultTableLog, DefaultIters) }},
	)
	return bs
}

// Names lists the registry's workload names without building anything.
func Names() []string {
	bs := Builders()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// byNameCache memoizes default-scale workload construction: graph
// synthesis and validator precomputation dominate campaign startup, and
// every sweep in a process asks for the same deterministic inputs.
// Entries are built once under a per-name once, so concurrent sweeps
// neither duplicate the work nor race.
var (
	//vrlint:allow simdet -- memoization lock for deterministic construction: cached and freshly built workloads are identical
	byNameMu sync.Mutex
	//vrlint:allow simdet -- pure memoization: builders are deterministic functions of the name, so a cache hit returns exactly what a rebuild would
	byNameCache = map[string]*byNameEntry{}
)

type byNameEntry struct {
	once sync.Once
	w    *Workload
	err  error
}

// ByName returns the named workload at its default scale. The result is
// cached and shared process-wide: callers must treat the Workload as
// immutable (Fresh hands each caller an independent memory image).
func ByName(name string) (*Workload, error) {
	byNameMu.Lock()
	e, ok := byNameCache[name]
	if !ok {
		e = &byNameEntry{}
		byNameCache[name] = e
	}
	byNameMu.Unlock()
	e.once.Do(func() {
		var build func() *Workload
		if build, e.err = Builder(name); e.err == nil {
			e.w = build()
		}
	})
	return e.w, e.err
}

// Builder returns the named default-scale workload's builder, which
// builds it afresh on every call: unlike ByName, it memoizes nothing, so
// the caller decides how long a build lives.
func Builder(name string) (func() *Workload, error) {
	for _, b := range Builders() {
		if b.Name == name {
			return b.Build, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Default scales: working sets of tens of MB (≫ 8 MB LLC) while keeping
// laptop-scale runtimes.
const (
	// DefaultGraphScale gives 2^20 vertices, so the per-vertex arrays the
	// GAP kernels access indirectly (visited, dist, comp, contrib) are
	// 8 MB each — at or beyond LLC capacity, as with the paper's inputs.
	DefaultGraphScale = 20
	// csrEdgeFactor is the average degree for CSR-traversal kernels;
	// edge-list kernels (cc, sssp) use edgeListFactor to bound their
	// three m-sized arrays.
	csrEdgeFactor  = 8
	edgeListFactor = 4

	DefaultTableLog    = 21 // 2^21-entry tables (16 MB)
	DefaultIters       = 30000
	DefaultCGRows      = 1 << 19
	DefaultCGNnzPerRow = 8
)

// Common register conventions for the kernels in this package.
const (
	rZero isa.Reg = 0 // always zero
	// r1..r27 are kernel-specific; see each builder.
)

// f64bits and f64frombits convert between float64 values and the register
// bit patterns the ISA's FP opcodes operate on.
func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(u uint64) float64 { return math.Float64frombits(u) }

// Disasm renders a workload's kernel as annotated assembly.
func Disasm(w *Workload) string {
	return isa.DisasmProgram(w.Prog)
}
