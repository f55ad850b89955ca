package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie above a percentile before
// it is reported: a p90 needs at least 100 samples.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. ok is
// false when fewer than minTail samples lie above it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], n-1-k >= minTail
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
