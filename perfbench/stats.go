package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile. With fewer, a single outlier moves the figure, so it is not
// reported at all.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minTail samples lie beyond it. xs is sorted in place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minTail {
		return xs[idx], false
	}
	return xs[idx], true
}

// median is the middle sample (mean of the middle two for even counts); 0
// for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
