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
// The zero value is an empty ECDF; use NewECDF or Add followed by
// queries. Samples are kept sorted.
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

// FromSorted builds an ECDF that takes ownership of an already-sorted
// slice without copying. A silently unsorted ECDF produces wrong
// probabilities everywhere, so debug builds (-tags statsdebug) verify
// sortedness and panic; release builds skip the O(n) check, matching
// the contract of the other zero-copy entry points below
// (SortedQuantile, NewECDFInPlace) — a full scan per construction
// defeats the point of a zero-copy constructor.
func FromSorted(sorted []float64) *ECDF {
	if debugChecks && !sort.Float64sAreSorted(sorted) {
		panic("stats: FromSorted called with unsorted samples")
	}
	return &ECDF{sorted: sorted}
}

// NewECDFInPlace builds an ECDF that takes ownership of samples,
// sorting it in place — the zero-copy counterpart of NewECDF for
// callers that do not need their slice back.
func NewECDFInPlace(samples []float64) *ECDF {
	SortFloat64s(samples)
	return &ECDF{sorted: samples}
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.sorted) }

// Sorted returns the underlying sorted sample slice. The caller must
// not modify it.
func (e *ECDF) Sorted() []float64 { return e.sorted }

// P returns the empirical Pr(X < t), the paper's DiscreteCDF: the
// fraction of samples strictly less than t. On an empty ECDF it
// returns 0.
func (e *ECDF) P(t float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return float64(e.CountLess(t)) / float64(len(e.sorted))
}

// PLE returns the empirical Pr(X <= t): the fraction of samples less
// than or equal to t.
func (e *ECDF) PLE(t float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return float64(e.CountLessEq(t)) / float64(len(e.sorted))
}

// CountLess returns |{x : x < t}|.
func (e *ECDF) CountLess(t float64) int {
	return sort.SearchFloat64s(e.sorted, t)
}

// CountLessEq returns |{x : x <= t}|.
func (e *ECDF) CountLessEq(t float64) int {
	return sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > t })
}

// Min returns the smallest sample. It panics on an empty ECDF.
func (e *ECDF) Min() float64 {
	e.mustNonEmpty("Min")
	return e.sorted[0]
}

// Max returns the largest sample. It panics on an empty ECDF.
func (e *ECDF) Max() float64 {
	e.mustNonEmpty("Max")
	return e.sorted[len(e.sorted)-1]
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

// Quantile computes the nearest-rank p-th quantile of unsorted
// samples without building an ECDF. It copies the input.
func Quantile(samples []float64, p float64) float64 {
	return NewECDF(samples).Quantile(p)
}

// PercentileInPlace computes the nearest-rank k-th percentile,
// sorting samples in place instead of copying. The caller gives up
// its ordering; nothing else is allocated.
func PercentileInPlace(samples []float64, k float64) float64 {
	SortFloat64s(samples)
	return SortedPercentile(samples, k)
}

// QuantileInPlace computes the nearest-rank p-th quantile, sorting
// samples in place instead of copying.
func QuantileInPlace(samples []float64, p float64) float64 {
	SortFloat64s(samples)
	return SortedQuantile(samples, p)
}

// SortedQuantile computes the nearest-rank p-th quantile of samples
// already sorted ascending, with ECDF.Quantile's exact semantics and
// no allocation. Sortedness is the caller's contract (verified under
// -tags statsdebug).
func SortedQuantile(sorted []float64, p float64) float64 {
	if debugChecks && !sort.Float64sAreSorted(sorted) {
		panic("stats: SortedQuantile called with unsorted samples")
	}
	e := ECDF{sorted: sorted}
	return e.Quantile(p)
}

// SortedPercentile is shorthand for SortedQuantile(sorted, k/100).
func SortedPercentile(sorted []float64, k float64) float64 {
	return SortedQuantile(sorted, k/100)
}
