package main

import (
	"slices"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method), 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// usage is one getrusage reading: CPU time and peak resident set size.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // KiB, as Linux reports ru_maxrss
}

// rusage reads getrusage for who (syscall.RUSAGE_SELF or RUSAGE_CHILDREN;
// the latter covers only children already waited for).
func rusage(who int) usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: int64(ru.Maxrss),
	}
}

// peakRSSMiB is the larger of this process's and its largest reaped
// child's peak resident set size.
func peakRSSMiB() float64 {
	return float64(max(rusage(syscall.RUSAGE_SELF).maxRSS, rusage(syscall.RUSAGE_CHILDREN).maxRSS)) / 1024
}
