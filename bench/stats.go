package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile; with fewer the value is set by a handful of outliers and
// is refused (choosing-metrics guide, section 1).
const minBeyond = 10

// percentile picks the p-th percentile (0 < p < 1) of xs by nearest
// rank. It refuses when fewer than minBeyond samples lie beyond the
// picked rank, so a tail is never reported off a sample too small to
// carry it. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || rank < 1 {
		return 0, fmt.Errorf("p%g of n=%d: no samples", p*100, n)
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of n=%d has %d samples beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median is the middle value (mean of the two middle values for even
// n); it carries no sample-count floor because it is also applied to
// the handful of per-repetition values of one run.
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

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// computed here match the ones the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary is one metric over the repetitions of a run: the median is
// the reported value, quartiles and n are printed beside it.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"` // one per repetition, in run order
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Values: xs}
}

// iqrShare is the interquartile distance as a share of the median, the
// spread the regression bounds are compared against.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
