package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct returns the p-th percentile of xs by the nearest-rank rule (the
// smallest sample with at least p% of the samples at or below it). xs is
// sorted in place; an empty sample yields 0.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// midMean returns the interquartile mean of xs: the mean of the samples
// ranked from the 25th to the 75th percentile. It drops the few samples a
// stall or a garbage collection inflates, as a median does, but where the
// samples fall into two modes (a shared machine runs the same work at two
// speeds, depending on what its other tenants run), it moves smoothly with
// the share of each mode instead of jumping from one mode to the other as
// the median does. xs is sorted in place; an empty sample yields 0.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo, hi := rank(len(xs), 25), rank(len(xs), 75)
	sum := 0.0
	for _, x := range xs[lo-1 : hi] {
		sum += x
	}
	return sum / float64(hi-lo+1)
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// supports reports whether a sample of n leaves at least ten samples beyond
// its p-th percentile — the rule every reported percentile obeys.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= 10
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
