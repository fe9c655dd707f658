package rng

import (
	"slices"
	"testing"
)

// TestJumpMatchesSteps checks Jump against single steps, walking one
// stream to each checked distance: the edges of the first squarings, a
// million, and random distances below 2^26. Distances up to 2^40, too far
// to walk, are checked by splitting them: k steps must be one step after
// k-1, and j steps after k-j.
func TestJumpMatchesSteps(t *testing.T) {
	r := New(3)
	ks := []uint64{0, 1, 63, 64, 65, 1_000_000}
	for range 8 {
		ks = append(ks, r.Next()%(1<<26))
	}
	slices.Sort(ks)
	for _, seed := range []uint64{1, 0xdeadbeef, Seed(0)} {
		s, at := seed, uint64(0)
		for _, k := range ks {
			for ; at < k; at++ {
				s = Step(s)
			}
			if got := Jump(seed, k); got != s {
				t.Errorf("Jump(%#x, %d) = %#x, %d single steps give %#x", seed, k, got, k, s)
			}
		}
		for range 16 {
			k := 1 + r.Next()%(1<<40-1)
			j := r.Next() % k
			want := Jump(seed, k)
			if got := Step(Jump(seed, k-1)); got != want {
				t.Errorf("seed %#x: one step after Jump %d = %#x, Jump %d = %#x", seed, k-1, got, k, want)
			}
			if got := Jump(Jump(seed, k-j), j); got != want {
				t.Errorf("seed %#x: Jump %d after Jump %d = %#x, Jump %d = %#x", seed, j, k-j, got, k, want)
			}
		}
	}
}
