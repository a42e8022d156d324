package main

import (
	"math"
	"slices"
)

// median returns the middle of xs, averaging the two middle values of
// an even count; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank p-quantile of xs: the smallest
// sample with at least a share p of the samples at or below it.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail returns the 99th percentile when at least ten samples lie beyond
// it (1,000 or more samples); otherwise the highest percentile with ten
// samples beyond it, or the maximum when there are ten or fewer. It
// also returns the percentile it read, as a share.
func tail(xs []float64) (v, p float64) {
	n := len(xs)
	switch {
	case n == 0:
		return 0, 0
	case n >= 1000:
		return quantile(xs, 0.99), 0.99
	case n > 10:
		s := slices.Clone(xs)
		slices.Sort(s)
		return s[n-11], float64(n-10) / float64(n)
	default:
		return slices.Max(xs), 1
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
