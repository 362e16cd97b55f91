package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// candidatePercentiles are the tail percentiles the benchmark may report,
// highest first.
var candidatePercentiles = []float64{99, 95, 90, 75, 50}

// percentile returns the p-th percentile of xs (nearest rank on the
// sorted copy) and whether at least minBeyond samples lie above it.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// highestSupported returns the highest candidate percentile of xs with
// at least minBeyond samples beyond it, its value and the sample count;
// ok is false when not even the median is supported.
func highestSupported(xs []float64) (p, v float64, n int, ok bool) {
	for _, c := range candidatePercentiles {
		if v, sup := percentile(xs, c); sup {
			return c, v, len(xs), true
		}
	}
	return 0, 0, len(xs), false
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
