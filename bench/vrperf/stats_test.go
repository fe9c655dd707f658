package main

import (
	"slices"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.25, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4}, 0, 1},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if median(xs); xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestMedianSpans(t *testing.T) {
	reps := [][]time.Duration{{5, 10}, {1, 40}, {3, 20}}
	meds, sum := medianSpans(reps)
	if !slices.Equal(meds, []time.Duration{3, 20}) || sum != 23 {
		t.Errorf("medianSpans = %v, %v; want [3 20], 23", meds, sum)
	}
}

func TestSlowdown(t *testing.T) {
	var none *hostProbe
	none.sample()
	if got := none.slowdown(0); got != 1 {
		t.Errorf("nil probe's slowdown = %v, want 1", got)
	}
	q := time.Duration(probeQuiet)
	p := &hostProbe{samples: []time.Duration{9 * q, q, 2 * q, 3 * q}}
	if got := p.slowdown(1); got != 2 {
		t.Errorf("slowdown(1) = %v, want the later probes' mean over the quiet time, 2", got)
	}
	if got := p.slowdown(4); got != 1 {
		t.Errorf("slowdown past the last probe = %v, want 1", got)
	}
}

func TestQuietMedian(t *testing.T) {
	reps := [][]time.Duration{{1e9, 1e9}, {3e9, 1e9}, {2e9, 4e9}}
	// Pass times 2, 4 and 6 s over slowdowns 1, 2 and 2: 2, 2 and 3 s.
	if got := quietMedian(reps, []float64{1, 2, 2}); got != 2 {
		t.Errorf("quietMedian = %v, want 2", got)
	}
}
