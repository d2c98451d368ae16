package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before the
// benchmark will print it: a p99 of 300 requests is three numbers, not a
// percentile.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted sample
// by linear interpolation between the closest ranks — the one percentile
// implementation every median, quartile and tail in the benchmark goes
// through. An empty sample yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// supports reports whether n samples leave at least minBeyond of them beyond
// the q-quantile.
func supports(n int, q float64) bool {
	beyond := math.Round(float64(n)*(1-q)*1e6) / 1e6 // 100 × (1 − 0.9) is 9.999… in floating point
	return beyond >= minBeyond
}

// tail returns the q-quantile of an ascending-sorted sample, and refuses when
// the sample does not support it: a metric named p99 is a p99 or the run
// fails, never a lower percentile under the same name.
func tail(sorted []float64, q float64) (float64, error) {
	if !supports(len(sorted), q) {
		return math.NaN(), fmt.Errorf("%d samples do not support p%g (%d must lie beyond it)", len(sorted), 100*q, minBeyond)
	}
	return quantile(sorted, q), nil
}

// summary is a median with its quartiles and sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize sorts a copy of xs and reports its median and quartiles.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
