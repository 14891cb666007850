package rangequery

import (
	"slices"
	"sort"
)

// Point is a 2-D point. In the optimizer's use, X is a primary-request
// response time and Y is its paired reissue response time.
type Point struct {
	X, Y float64
}

// MergeTree is a static merge-sort tree over a set of 2-D points
// supporting orthogonal range counting in O(log^2 n) per query and
// O(n log n) construction. It answers the counting queries needed to
// estimate the conditional CDF Pr(Y <= y | X > x):
//
//	CountXGreater(x)            = |{(px, py) : px > x}|
//	CountXGreaterYLE(x, y)      = |{(px, py) : px > x, py <= y}|
//
// The structure is immutable after construction, matching the
// optimizer's read-only access pattern over a fixed response-time log.
type MergeTree struct {
	xs []float64 // x-coordinates sorted ascending
	// ys holds one level of the segment tree per height h, in one
	// backing slice: ys[h*n:(h+1)*n] are the points' Y values in X
	// order, sorted within each aligned run of 2^h points — run j is
	// the sorted Y multiset of the node covering points [j<<h,
	// (j+1)<<h).
	ys   []float64
	n    int
	size int // leaf count, the smallest power of two >= n
}

// NewMergeTree builds a merge tree from the given points. The input
// is copied.
//
// Points with equal X may land in any relative order. Counts do not
// depend on it: equal-X points fall on the same side of every X > x
// boundary, so each query covers the same multiset of points.
func NewMergeTree(points []Point) *MergeTree {
	n := len(points)
	pts := make([]Point, n)
	copy(pts, points)
	slices.SortFunc(pts, func(a, b Point) int {
		switch {
		case a.X < b.X:
			return -1
		case a.X > b.X:
			return 1
		}
		return 0
	})

	t := &MergeTree{n: n}
	t.xs = make([]float64, n)
	for i, p := range pts {
		t.xs[i] = p.X
	}
	if n == 0 {
		return t
	}
	levels := 1
	for t.size = 1; t.size < n; t.size *= 2 {
		levels++
	}
	t.ys = make([]float64, levels*n)
	for i, p := range pts {
		t.ys[i] = p.Y
	}
	// Each level merges adjacent runs of the level below.
	for h := 1; h < levels; h++ {
		src, dst := t.ys[(h-1)*n:h*n], t.ys[h*n:(h+1)*n]
		w := 1 << (h - 1)
		for a := 0; a < n; a += 2 * w {
			mid, end := min(a+w, n), min(a+2*w, n)
			mergeInto(dst[a:end], src[a:mid], src[mid:end])
		}
	}
	return t
}

// mergeInto merges the sorted slices a and b into dst, which has
// room for exactly both.
func mergeInto(dst, a, b []float64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Len returns the number of points.
func (t *MergeTree) Len() int { return t.n }

// CountXGreater returns the number of points with X strictly greater
// than x.
func (t *MergeTree) CountXGreater(x float64) int {
	return t.n - sort.Search(t.n, func(i int) bool { return t.xs[i] > x })
}

// CountXGreaterYLE returns the number of points with X > x and Y <= y.
func (t *MergeTree) CountXGreaterYLE(x, y float64) int {
	if t.n == 0 {
		return 0
	}
	lo := sort.Search(t.n, func(i int) bool { return t.xs[i] > x })
	return t.countYLEInRange(lo, t.n, y)
}

// countYLEInRange counts points with index in [lo, hi) whose Y <= y,
// walking the segment tree bottom-up; h is the height of the level
// the walk is on.
func (t *MergeTree) countYLEInRange(lo, hi int, y float64) int {
	count := 0
	lo += t.size
	hi += t.size
	for h := 0; lo < hi; h++ {
		if lo&1 == 1 {
			count += countLE(t.node(h, lo), y)
			lo++
		}
		if hi&1 == 1 {
			hi--
			count += countLE(t.node(h, hi), y)
		}
		lo /= 2
		hi /= 2
	}
	return count
}

// node returns the sorted Y values of segment-tree node i, which sits
// at height h and lies wholly inside [0, n).
func (t *MergeTree) node(h, i int) []float64 {
	a := (i - t.size>>h) << h
	return t.ys[h*t.n+a : h*t.n+a+1<<h]
}

func countLE(sorted []float64, y float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > y })
}

// CondYLEGivenXGreater estimates the conditional probability
// Pr(Y <= y | X > x). When no points satisfy X > x the conditional is
// undefined; we return fallback so the caller (the optimizer) can
// substitute the unconditional estimate.
func (t *MergeTree) CondYLEGivenXGreater(y, x, fallback float64) float64 {
	denom := t.CountXGreater(x)
	if denom == 0 {
		return fallback
	}
	return float64(t.CountXGreaterYLE(x, y)) / float64(denom)
}
