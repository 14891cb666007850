package reissue

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rangequery"
	"repro/internal/stats"
)

// Prediction reports what the optimizer expects the chosen policy to
// achieve on the response-time log it was trained on.
type Prediction struct {
	// TailLatency is the predicted kth-percentile response time.
	TailLatency float64
	// SuccessRate is the predicted Pr(query <= TailLatency).
	SuccessRate float64
	// Budget is the predicted reissue rate q * Pr(X > d).
	Budget float64
}

// ComputeOptimalSingleR computes the SingleR policy minimizing the
// kth-percentile tail latency with reissue budget at most B, from a
// log of primary response times rx and reissue response times ry,
// assuming the two are independent. It implements the pseudocode of
// the paper's Figure 1 in Θ(N + Sort(N)) time using monotone finger
// cursors over the sorted samples.
//
// k is a fraction (0.95 for P95), B a fraction of requests (0.05 for
// a 5% budget). If ry is empty, rx is used for the reissue
// distribution too (the common case where replicas are identical).
//
// Note: Figure 1's line 13 sets q = 1 - DiscreteCDF(RX, d*), which
// contradicts line 18 and Equation (4); we implement the budget-
// binding q = min(1, B / Pr(X > d*)). See DESIGN.md.
func ComputeOptimalSingleR(rx, ry []float64, k, B float64) (SingleR, Prediction, error) {
	if err := checkOptimizerArgs(len(rx), k, B); err != nil {
		return SingleR{}, Prediction{}, err
	}
	sx := sortedCopy(rx)
	sy := sx
	if len(ry) > 0 {
		sy = sortedCopy(ry)
	}
	return ComputeOptimalSingleRSorted(sx, sy, k, B)
}

// ComputeOptimalSingleRSorted is ComputeOptimalSingleR for callers
// that already hold sorted response-time logs: sx and sy must be
// sorted ascending and are read but never modified or retained, so a
// caller can reuse its buffers across evaluations — the adaptive loop
// sorts each trial's measurements once and runs every optimizer and
// quantile query on the same sorted slices. Passing an empty sy uses
// sx for the reissue distribution too.
func ComputeOptimalSingleRSorted(sx, sy []float64, k, B float64) (SingleR, Prediction, error) {
	if err := checkOptimizerArgs(len(sx), k, B); err != nil {
		return SingleR{}, Prediction{}, err
	}
	if len(sy) == 0 {
		sy = sx
	}

	// Monotone CDF cursors. Throughout the search t only decreases,
	// d only increases, and hence t-d only decreases — so each cursor
	// moves monotonically and the whole search costs O(N) after the
	// sorts (the amortized-O(1) DiscreteCDF the paper obtains from
	// finger search trees).
	fxT := rangequery.NewFinger(sx)  // Pr(X <= t) via descending t
	fxD := rangequery.NewFinger(sx)  // Pr(X > d) via ascending d
	fyTD := rangequery.NewFinger(sy) // Pr(Y <= t-d) via descending t-d
	nx, ny := float64(len(sx)), float64(len(sy))

	// Equation (3) evaluated on empirical CDFs. Pr(X <= t) and
	// Pr(Y <= t-d) use inclusive counts, matching Equations (1)-(4);
	// the paper's DiscreteCDF pseudocode uses a strict count, which
	// differs by at most one sample and disagrees with nearest-rank
	// percentile measurement.
	success := func(t, d float64) float64 {
		pxLE := float64(fxT.CountLessEq(t)) / nx
		pxGT := 1 - float64(fxD.CountLessEq(d))/nx
		q := 1.0
		if pxGT > 0 {
			q = math.Min(1, B/pxGT)
		}
		pyLE := 0.0
		if t >= d {
			pyLE = float64(fyTD.CountLessEq(t-d)) / ny
		}
		return pxLE + q*(1-pxLE)*pyLE
	}

	// Figure 1: Q <- RX; d* <- min Q; t <- max Q; walk d up from the
	// bottom of Q, and whenever the policy reissuing at d achieves
	// success rate > k at the current t, pop t down — preserving the
	// invariant that reissuing at d* achieves kth-percentile <= t.
	dStar := sx[0]
	hi := len(sx) - 1
	t := sx[hi]
	for lo := 0; lo <= hi; lo++ {
		d := sx[lo]
		alpha := success(t, d)
		for alpha > k && t > d && hi > lo {
			hi--
			t = sx[hi]
			dStar = d
			alpha = success(t, d)
		}
	}

	pxGT := 1 - float64(countLE(sx, dStar))/nx
	q := 1.0
	if pxGT > 0 {
		q = math.Min(1, B/pxGT)
	}
	pol := SingleR{D: dStar, Q: q}
	pred := predictOnLog(sx, sy, pol, k)
	return pol, pred, nil
}

// countLE returns |{x in sorted : x <= t}|.
func countLE(sorted []float64, t float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > t })
}

// ComputeOptimalSingleRCorrelated computes the optimal SingleR policy
// taking the correlation between primary and reissue response times
// into account (Section 4.2): the success-rate computation replaces
// the unconditional Pr(Y <= t-d) with the conditional
// Pr(Y <= t-d | X > t), estimated by a sweep over the paired samples
// that keeps the pairs with X > t in a Fenwick tree over Y ranks.
// Runs in O(N log N), the bound the paper claims.
//
// rx is the full primary response-time log (one sample per query).
// pairs holds (primary, reissue) response times for the queries that
// were actually reissued; when the reissue decision is a coin flip
// independent of the query (as in SingleR), the pairs are an unbiased
// subsample of the queries outstanding at the previous reissue time,
// so the conditional estimate is sound for t at or beyond it. The
// pair set must not be used for Pr(X <= t) — it is conditioned on
// slow primaries — which is why rx is a separate argument.
func ComputeOptimalSingleRCorrelated(rx []float64, pairs []rangequery.Point, k, B float64) (SingleR, Prediction, error) {
	return ComputeOptimalSingleRCorrelatedSorted(sortedCopy(rx), pairs, k, B)
}

// ComputeOptimalSingleRCorrelatedSorted is ComputeOptimalSingleRCorrelated
// for callers that already hold the primary log sorted: sx must be
// sorted ascending and is read but never modified or retained, as in
// ComputeOptimalSingleRSorted. The adaptive loop hands it the sorted
// view it measures with, so each trial sorts its primary log once.
func ComputeOptimalSingleRCorrelatedSorted(sx []float64, pairs []rangequery.Point, k, B float64) (SingleR, Prediction, error) {
	if err := checkOptimizerArgs(len(sx), k, B); err != nil {
		return SingleR{}, Prediction{}, err
	}
	if len(pairs) == 0 {
		return SingleR{}, Prediction{}, fmt.Errorf("reissue: no response-time pairs")
	}
	sy := make([]float64, len(pairs))
	for i, p := range pairs {
		sy[i] = p.Y
	}
	stats.SortFloat64s(sy)
	byX := pairsByXDesc(pairs)
	// t only falls during the search, so the pairs with X > t only
	// grow: insert them by descending X as t drops, each at the rank
	// of its Y, and count those with Y <= t-d by a prefix sum.
	above := rangequery.NewFenwick(len(sy))
	inserted := 0
	nx := float64(len(sx))
	ny := float64(len(sy))

	success := func(t, d float64) float64 {
		for inserted < len(byX) && byX[inserted].X > t {
			above.Add(countLE(sy, byX[inserted].Y)-1, 1)
			inserted++
		}
		pxLE := float64(countLE(sx, t)) / nx
		pxGT := 1 - float64(countLE(sx, d))/nx
		q := 1.0
		if pxGT > 0 {
			q = math.Min(1, B/pxGT)
		}
		pyLE := 0.0
		if t >= d {
			// Conditional CDF; falls back to the unconditional
			// estimate when no pair has X > t.
			c := countLE(sy, t-d)
			pyLE = float64(c) / ny
			if inserted > 0 {
				pyLE = float64(above.PrefixSum(c-1)) / float64(inserted)
			}
		}
		return pxLE + q*(1-pxLE)*pyLE
	}

	dStar := sx[0]
	hi := len(sx) - 1
	t := sx[hi]
	for lo := 0; lo <= hi; lo++ {
		d := sx[lo]
		alpha := success(t, d)
		for alpha > k && t > d && hi > lo {
			hi--
			t = sx[hi]
			dStar = d
			alpha = success(t, d)
		}
	}

	pxGT := 1 - float64(countLE(sx, dStar))/nx
	q := 1.0
	if pxGT > 0 {
		q = math.Min(1, B/pxGT)
	}
	pol := SingleR{D: dStar, Q: q}
	pred := Prediction{
		TailLatency: t,
		SuccessRate: success(t, dStar),
		Budget:      q * pxGT,
	}
	return pol, pred, nil
}

// pairRadixCutoff is the pair count below which pairsByXDesc uses a
// comparison sort, as stats.SortFloat64s does below its own cutoff.
const pairRadixCutoff = 384

// pairsByXDesc returns a copy of pairs ordered by descending X, for
// the correlated sweep. Pairs with equal X may come in any order:
// the sweep inserts every pair with X > t in one step, so equal X
// always enter the tree together and the counts are the same.
//
// It is a least-significant-digit radix sort on the complemented
// order-preserving key of X, one byte per pass, skipping every pass
// whose byte is the same for all pairs — the scheme of
// stats.SortFloat64s, moving whole pairs between two halves of one
// buffer. Short inputs and any NaN X take the comparison sort, which
// puts NaNs last, where the sweep never reaches them.
func pairsByXDesc(pairs []rangequery.Point) []rangequery.Point {
	n := len(pairs)
	if n < pairRadixCutoff || n > math.MaxUint32 {
		return pairsByXDescCmp(pairs)
	}
	var hist [8][256]uint32
	for _, p := range pairs {
		if p.X != p.X {
			return pairsByXDescCmp(pairs)
		}
		k := descKey(p.X)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	buf := make([]rangequery.Point, 2*n)
	halves := [2][]rangequery.Point{buf[:n], buf[n:]}
	src, next := pairs, 0
	first := descKey(pairs[0].X)
	for b := range hist {
		h := &hist[b]
		shift := 8 * uint(b)
		if int(h[byte(first>>shift)]) == n {
			continue // every key shares this byte: the pass is the identity
		}
		var offs [256]uint32
		var sum uint32
		for d, c := range h {
			offs[d] = sum
			sum += c
		}
		dst := halves[next]
		for _, p := range src {
			d := byte(descKey(p.X) >> shift)
			dst[offs[d]] = p
			offs[d]++
		}
		src, next = dst, 1-next
	}
	if &src[0] == &pairs[0] {
		// Every X is equal: no pass ran.
		copy(halves[0], pairs)
		return halves[0]
	}
	return src
}

// descKey maps x (not NaN) to a uint64 whose unsigned order is x's
// descending numeric order: the complement of the order-preserving
// key that flips every bit of a negative value and only the sign bit
// of the rest.
func descKey(x float64) uint64 {
	u := math.Float64bits(x)
	if u>>63 != 0 {
		return u
	}
	return ^(u | 1<<63)
}

// pairsByXDescCmp is pairsByXDesc by comparison sort.
func pairsByXDescCmp(pairs []rangequery.Point) []rangequery.Point {
	byX := slices.Clone(pairs)
	slices.SortFunc(byX, func(a, b rangequery.Point) int { return cmp.Compare(b.X, a.X) })
	return byX
}

// PredictSingleR evaluates what tail latency a given SingleR policy
// achieves on a response-time log under the independence assumption:
// the smallest sample t with predicted success rate >= k.
func PredictSingleR(rx, ry []float64, pol SingleR, k float64) Prediction {
	if len(ry) == 0 {
		ry = rx
	}
	return predictOnLog(sortedCopy(rx), sortedCopy(ry), pol, k)
}

func predictOnLog(sx, sy []float64, pol SingleR, k float64) Prediction {
	nx, ny := float64(len(sx)), float64(len(sy))
	success := func(t float64) float64 {
		pxLE := float64(countLE(sx, t)) / nx
		pyLE := 0.0
		if t >= pol.D {
			pyLE = float64(countLE(sy, t-pol.D)) / ny
		}
		return pxLE + pol.Q*(1-pxLE)*pyLE
	}
	// success is monotone in t, so binary search over the sorted
	// candidate latencies.
	i := sort.Search(len(sx), func(i int) bool { return success(sx[i]) >= k })
	t := sx[len(sx)-1]
	if i < len(sx) {
		t = sx[i]
	}
	pxGTd := 1 - float64(countLE(sx, pol.D))/nx
	return Prediction{
		TailLatency: t,
		SuccessRate: success(t),
		Budget:      pol.Q * pxGTd,
	}
}

// BindBudget returns the SingleR policy at delay d whose probability
// spends budget B on the measured response-time log:
// q = min(1, B / Pr(X > d)). This is the re-binding step the
// adaptive loop applies every trial (Section 4.3); deployments apply
// it after measuring a tuned policy live, because the reissues
// themselves shift the response-time distribution the rate depends
// on.
func BindBudget(rx []float64, d, B float64) (SingleR, error) {
	if err := checkOptimizerArgs(len(rx), 0.5, B); err != nil {
		return SingleR{}, err
	}
	if d < 0 || math.IsNaN(d) {
		return SingleR{}, fmt.Errorf("reissue: negative or NaN delay %v", d)
	}
	sx := sortedCopy(rx)
	pxGT := 1 - float64(countLE(sx, d))/float64(len(sx))
	q := 1.0
	if pxGT > 0 {
		q = math.Min(1, B/pxGT)
	}
	return SingleR{D: d, Q: q}, nil
}

// OptimalSingleD returns the SingleD policy for budget B given
// primary response times rx — Equation (2): the delay d with
// Pr(X > d) = B, i.e. the (1-B)-th empirical quantile of rx.
func OptimalSingleD(rx []float64, B float64) (SingleD, error) {
	if len(rx) == 0 {
		return SingleD{}, fmt.Errorf("reissue: no samples")
	}
	if B <= 0 || B >= 1 {
		return SingleD{}, fmt.Errorf("reissue: SingleD budget %v outside (0, 1)", B)
	}
	return singleDOnLog(sortedCopy(rx), B), nil
}

// singleDOnLog is OptimalSingleD's delay on an already-sorted
// non-empty log: the smallest sample d with the fraction of samples
// above d at most B.
func singleDOnLog(sx []float64, B float64) SingleD {
	n := len(sx)
	idx := int(math.Ceil(float64(n)*(1-B))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return SingleD{D: sx[idx]}
}

func checkOptimizerArgs(n int, k, B float64) error {
	if n == 0 {
		return fmt.Errorf("reissue: no response-time samples")
	}
	if k <= 0 || k >= 1 || math.IsNaN(k) {
		return fmt.Errorf("reissue: percentile k=%v outside (0, 1)", k)
	}
	if B < 0 || B > 1 || math.IsNaN(B) {
		return fmt.Errorf("reissue: budget B=%v outside [0, 1]", B)
	}
	return nil
}

func sortedCopy(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	stats.SortFloat64s(s)
	return s
}
