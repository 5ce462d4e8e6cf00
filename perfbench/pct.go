package main

import (
	"math"
	"sort"
)

// summary is a timing distribution as the benchmark reports it: the median,
// the highest percentile that still has at least ten samples beyond it, and
// the sample count.
type summary struct {
	N    int
	P50  float64
	Tail float64
	// TailPct is the percentile Tail reports (99 for p99); zero when there
	// are fewer than twenty samples, so not even the median has ten beyond
	// it.
	TailPct float64
}

// tailPerMille is the percentile ladder, highest first, in tenths of a
// percent so the "ten samples beyond" test is exact integer arithmetic.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// summarize computes the summary of xs without modifying it.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: n, P50: median(s)}
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			// Nearest-rank percentile: the smallest sample with at least
			// pm/1000 of the samples at or below it.
			idx := int(math.Ceil(float64(pm)*float64(n)/1000)) - 1
			out.Tail, out.TailPct = s[idx], float64(pm)/10
			break
		}
	}
	return out
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs need not be sorted and is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := xs
	if !sort.Float64sAreSorted(s) {
		s = append([]float64(nil), xs...)
		sort.Float64s(s)
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
