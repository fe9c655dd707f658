package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"vrsim/internal/rng"
)

func TestUniformBasics(t *testing.T) {
	g := Uniform(1024, 8, 1, false)
	if g.NumNodes() != 1024 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 1024*8 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	ds := g.Degrees()
	if ds.Avg != 8 {
		t.Errorf("avg degree = %f", ds.Avg)
	}
	// Uniform degrees concentrate: the max should stay near the mean.
	if ds.Max > 40 {
		t.Errorf("uniform max degree = %d, suspiciously heavy tail", ds.Max)
	}
}

func TestKroneckerPowerLaw(t *testing.T) {
	g := Kronecker(12, 16, 1, false)
	if g.NumNodes() != 1<<12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != (1<<12)*16 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	ds := g.Degrees()
	// Power-law: the max degree dwarfs the average; many zero-degree nodes.
	if float64(ds.Max) < 10*ds.Avg {
		t.Errorf("kron max degree %d not heavy-tailed (avg %f)", ds.Max, ds.Avg)
	}
	if ds.Zeroes == 0 {
		t.Error("kron graphs should have isolated vertices")
	}
	u := Uniform(1<<12, 16, 1, false)
	if g.MaxDegree() <= 2*u.MaxDegree() {
		t.Errorf("kron max (%d) should far exceed uniform max (%d)", g.MaxDegree(), u.MaxDegree())
	}
}

func TestCSRConsistency(t *testing.T) {
	check := func(g *CSR) {
		t.Helper()
		n := g.NumNodes()
		if int(g.RowPtr[n]) != len(g.ColIdx) {
			t.Fatal("rowptr does not cover colidx")
		}
		total := 0
		for u := 0; u < n; u++ {
			nb := g.Neighbors(u)
			total += len(nb)
			for i := 1; i < len(nb); i++ {
				if nb[i-1] > nb[i] {
					t.Fatalf("neighbors of %d not sorted", u)
				}
			}
			for _, v := range nb {
				if int(v) >= n {
					t.Fatalf("edge target %d out of range", v)
				}
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("degree sum %d != edges %d", total, g.NumEdges())
		}
	}
	check(Uniform(500, 4, 7, false))
	check(Kronecker(9, 8, 7, false))
}

func TestWeightsRange(t *testing.T) {
	g := Uniform(256, 4, 3, true)
	if len(g.Weights) != g.NumEdges() {
		t.Fatal("weights length mismatch")
	}
	for _, w := range g.Weights {
		if w < 1 || w > 255 {
			t.Fatalf("weight %d out of [1,255]", w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Kronecker(10, 8, 42, true)
	b := Kronecker(10, 8, 42, true)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("nondeterministic generation")
		}
	}
	c := Kronecker(10, 8, 43, true)
	same := true
	for i := range a.ColIdx {
		if i >= len(c.ColIdx) || a.ColIdx[i] != c.ColIdx[i] {
			same = false
			break
		}
	}
	if same && a.NumEdges() == c.NumEdges() {
		t.Fatal("different seeds produced identical graphs")
	}
}

// Property: every generated graph is structurally valid CSR.
func TestGeneratorProperty(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		scale := 6 + int(scaleRaw%4)
		g := Kronecker(scale, 4, seed, false)
		n := g.NumNodes()
		if len(g.RowPtr) != n+1 || int(g.RowPtr[n]) != len(g.ColIdx) {
			return false
		}
		for u := 0; u < n; u++ {
			if g.RowPtr[u] > g.RowPtr[u+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// csrDigest hashes RowPtr‖ColIdx‖Weights as little-endian words.
func csrDigest(g *CSR) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range [][]uint64{g.RowPtr, g.ColIdx, g.Weights} {
		for _, w := range a {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins the generators' exact output: every memory
// image a graph workload builds derives from these bytes, so a rewrite of
// a generator must reproduce them bit for bit. The generators split their
// draws into one chunk per goroutine, so the chunk boundaries move with
// GOMAXPROCS; the digests must not. The first graph has 97 adjacency
// lists longer than 256 entries, the longest 2,818.
func TestGeneratorDigests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		kr := Kronecker(14, 8, 11, true)
		if kr.MaxDegree() < radixMin {
			t.Errorf("max degree %d: no adjacency list takes the radix sort", kr.MaxDegree())
		}
		for _, c := range []struct {
			name string
			g    *CSR
			want string
		}{
			{"Kronecker(14,8,11,true)", kr, "de3869ea41f9a577007e4ca9842a040d17a82696abe7558bdbd995a2f11035e8"},
			{"Kronecker(10,8,33,false)", Kronecker(10, 8, 33, false), "a0b959fbefa8ed9903c41ead0da048c06eea3df022d7c8ff935d3bbc92bfc998"},
			{"Uniform(1<<14,4,55,true)", Uniform(1<<14, 4, 55, true), "b4c57d0c4e01a90fdad1405efc995e4db7a7dcb652ba37da4de463a6374e5c92"},
		} {
			if got := csrDigest(c.g); got != c.want {
				t.Errorf("GOMAXPROCS %d: %s: digest %s, want %s", procs, c.name, got, c.want)
			}
		}
	}
}

// TestRadixSortMatchesSort checks radixSort against slices.Sort at widths
// needing one, two and three byte passes, reusing one scratch buffer.
func TestRadixSortMatchesSort(t *testing.T) {
	r := rng.New(9)
	var tmp []uint64
	for _, c := range []struct{ n, bits int }{{300, 8}, {2000, 16}, {700, 20}, {5000, 20}} {
		a := make([]uint64, c.n)
		for i := range a {
			a[i] = r.Next() & (1<<c.bits - 1)
		}
		want := slices.Clone(a)
		slices.Sort(want)
		tmp = radixSort(a, tmp, c.bits)
		if !slices.Equal(a, want) {
			t.Errorf("%d values below 2^%d: radixSort disagrees with slices.Sort", c.n, c.bits)
		}
	}
}
