package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "type 7" definition of R and NumPy): q=0 is the
// minimum, q=1 the maximum, q=0.5 the median. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// above counts the samples strictly greater than v.
func above(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// minTail is the number of samples a reported percentile must have above
// it: a percentile resting on fewer is one or two outliers, not a tail.
const minTail = 10

// tailOK reports whether the q-quantile of xs has at least minTail
// samples strictly above it.
func tailOK(xs []float64, q float64) bool {
	return above(xs, quantile(xs, q)) >= minTail
}

// mean returns the arithmetic mean of xs; NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// windowRate is a throughput robust to short host stalls: the events at
// offsets at (seconds from the start) are counted in consecutive windows
// of width seconds over [0, span), each count is divided by the seconds
// the hypervisor left the VM in its window (width·(1−stolen[i]); a window
// past the end of stolen counts as whole), and the interquartile mean of
// those rates is returned. Events at or past the last whole window are
// not counted.
func windowRate(at []float64, span, width float64, stolen []float64) float64 {
	n := int(span / width)
	if n < 1 {
		return math.NaN()
	}
	rates := make([]float64, n)
	for _, t := range at {
		if i := int(t / width); t >= 0 && i < n {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= width * availAt(stolen, width, float64(i)*width)
	}
	return interquartileMean(rates)
}

// interquartileMean averages xs without its lowest and highest quarter
// (⌊n/4⌋ samples off each end): as robust to outliers as the median, but
// not confined to the sample values. NaN for an empty sample.
func interquartileMean(xs []float64) float64 {
	s := sorted(xs)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}
