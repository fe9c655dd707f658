// Package rng is the deterministic generator every synthetic input draws
// from: the graph generators, the workload initializers and their
// validators. It is a 64-bit xorshift, independent of math/rand so that
// inputs stay the same across Go versions, and it jumps ahead: a stream
// split into chunks that start anywhere in it can be drawn on several
// goroutines at once and still yield the draws one goroutine would.
package rng

import (
	"math/bits"
	"runtime"
	"sync"
)

// Seed returns the state a seed's stream starts from: the seed itself,
// or a fixed nonzero state for 0, which xorshift never leaves.
func Seed(seed uint64) uint64 {
	if seed == 0 {
		return 0x9e3779b97f4a7c15
	}
	return seed
}

// Step advances a generator state by one draw; the new state is the draw.
func Step(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// Jump advances a generator state by k draws at once. A step is linear
// over GF(2): it maps the state through a fixed 64×64 bit matrix whose
// column j is the step applied to bit j alone. k steps apply that matrix's
// k-th power, built by repeated squaring.
func Jump(s, k uint64) uint64 {
	var t bitMatrix
	for j := range t {
		t[j] = Step(1 << j)
	}
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			s = t.apply(s)
		}
		t = t.times(&t)
	}
	return s
}

// bitMatrix is a 64×64 matrix over GF(2), stored by column: column j is
// the image of bit j.
type bitMatrix [64]uint64

// apply returns the product of m and the bit vector v.
func (m *bitMatrix) apply(v uint64) uint64 {
	var r uint64
	for ; v != 0; v &= v - 1 {
		r ^= m[bits.TrailingZeros64(v)]
	}
	return r
}

// times returns the product m·o.
func (m *bitMatrix) times(o *bitMatrix) bitMatrix {
	var r bitMatrix
	for j, c := range o {
		r[j] = m.apply(c)
	}
	return r
}

// Stream draws one value after another from a state.
type Stream struct{ s uint64 }

// New returns the stream a seed starts.
func New(seed uint64) Stream { return Stream{Seed(seed)} }

// At returns the stream that continues from state s.
func At(s uint64) Stream { return Stream{s} }

// Next returns the next draw.
func (r *Stream) Next() uint64 {
	r.s = Step(r.s)
	return r.s
}

// Intn returns the next draw reduced to [0, n).
func (r *Stream) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Chunks splits [0, n) into GOMAXPROCS contiguous ranges and runs body on
// each on its own goroutine, returning when all have returned. The ranges
// move with GOMAXPROCS, so what body computes for an index must not
// depend on where its range starts: a body that draws starts its stream
// with one Jump to its range's first draw.
func Chunks(n int, body func(lo, hi int)) {
	p := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	wg.Add(p)
	for c := range p {
		go func() {
			defer wg.Done()
			body(n*c/p, n*(c+1)/p)
		}()
	}
	wg.Wait()
}
