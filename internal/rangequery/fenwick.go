// Package rangequery provides the search-structure substrate the
// paper's optimizer relies on: the Point pairs of the response-time
// log, a Fenwick tree for dynamic prefix counting (the correlated
// optimizer's sweep keeps the pairs with X > t in one, indexed by Y
// rank, to estimate Pr(Y <= t-d | X > t) of Section 4.2 in
// O(log N) per query), and monotone "finger" cursors over sorted
// samples that realize the amortized-O(1) DiscreteCDF evaluation the
// paper attributes to finger search trees.
package rangequery

import "fmt"

// Fenwick is a binary indexed tree over n integer-indexed slots
// supporting point updates and prefix-sum queries in O(log n).
type Fenwick struct {
	tree []int
}

// NewFenwick creates a Fenwick tree with n zero slots.
func NewFenwick(n int) *Fenwick {
	if n < 0 {
		panic(fmt.Sprintf("rangequery: NewFenwick(%d)", n))
	}
	return &Fenwick{tree: make([]int, n+1)}
}

// Len returns the number of slots.
func (f *Fenwick) Len() int { return len(f.tree) - 1 }

// Add adds delta to slot i (0-based). It panics if i is out of range.
func (f *Fenwick) Add(i, delta int) {
	if i < 0 || i >= f.Len() {
		panic(fmt.Sprintf("rangequery: Fenwick.Add(%d) with len %d", i, f.Len()))
	}
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// PrefixSum returns the sum of slots [0, i]. PrefixSum(-1) is 0.
func (f *Fenwick) PrefixSum(i int) int {
	if i >= f.Len() {
		i = f.Len() - 1
	}
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}
