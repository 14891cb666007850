package stats

import (
	"fmt"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a set of
// response-time samples. It is the sample-set representation used by
// the paper's data-driven optimizer (the sets RX and RY of primary and
// reissue response times).
//
// The zero value is an empty ECDF. Samples are kept sorted.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the given samples. The input slice is
// copied, so the caller may reuse it.
func NewECDF(samples []float64) *ECDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	SortFloat64s(s)
	return &ECDF{sorted: s}
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.sorted) }

// PLE returns the empirical Pr(X <= t): the fraction of samples less
// than or equal to t.
//
//lint:allow deadexports the empirical CDF the distribution, online-adapter and Theorem 3.1 tests compare analytic values against
func (e *ECDF) PLE(t float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return float64(e.CountLessEq(t)) / float64(len(e.sorted))
}

// CountLessEq returns |{x : x <= t}|.
func (e *ECDF) CountLessEq(t float64) int {
	return sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > t })
}

// Quantile returns the empirical p-th quantile using the nearest-rank
// (ceil) definition: the smallest sample x such that at least a
// fraction p of samples are <= x. Quantile(0) is the minimum and
// Quantile(1) the maximum. It panics on an empty ECDF or p outside
// [0, 1].
func (e *ECDF) Quantile(p float64) float64 {
	e.mustNonEmpty("Quantile")
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) outside [0, 1]", p))
	}
	n := len(e.sorted)
	rank := int(p*float64(n)+0.9999999999) - 1 // ceil(p*n) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return e.sorted[rank]
}

// Percentile is shorthand for Quantile(k/100), e.g. Percentile(99)
// returns the P99 latency.
func (e *ECDF) Percentile(k float64) float64 { return e.Quantile(k / 100) }

func (e *ECDF) mustNonEmpty(op string) {
	if len(e.sorted) == 0 {
		panic("stats: " + op + " on empty ECDF")
	}
}

// Percentile computes the nearest-rank k-th percentile of unsorted
// samples without building an ECDF. It copies the input.
func Percentile(samples []float64, k float64) float64 {
	return NewECDF(samples).Percentile(k)
}
