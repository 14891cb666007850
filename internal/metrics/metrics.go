// Package metrics computes the evaluation metrics reported in the
// paper: percentile tail latencies, latency-reduction ratios relative
// to a no-reissue baseline, the remediation rate of reissue requests
// (Section 5.1), and reissue-rate accounting.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// TailLatency returns the nearest-rank kth-percentile (k in (0, 100])
// of the samples. It returns NaN on empty input.
func TailLatency(samples []float64, k float64) float64 {
	s := make([]float64, len(samples))
	copy(s, samples)
	stats.SortFloat64s(s)
	return SortedTailLatency(s, k)
}

// SortedTailLatency is TailLatency on samples already sorted
// ascending, with the same nearest-rank semantics and no copy: a
// caller that reads several percentiles of one log sorts it once.
func SortedTailLatency(sorted []float64, k float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if k <= 0 || k > 100 {
		panic(fmt.Sprintf("metrics: percentile %v outside (0, 100]", k))
	}
	idx := int(math.Ceil(float64(len(sorted))*k/100)) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// ReductionRatio returns baseline/achieved — the paper's "latency
// reduction ratio" (Figure 3a's y-axis). Values above 1 mean the
// policy improved the tail; below 1 it made it worse (as SingleD does
// on the Queueing workload at small budgets).
func ReductionRatio(baseline, achieved float64) float64 {
	if achieved <= 0 || math.IsNaN(achieved) || math.IsNaN(baseline) {
		return math.NaN()
	}
	return baseline / achieved
}

// QueryOutcome describes one query for remediation accounting.
type QueryOutcome struct {
	// Primary is the response time of the primary request.
	Primary float64
	// Reissued reports whether a reissue request was actually sent.
	Reissued bool
	// ReissueDelay is the delay d at which the reissue was sent
	// (valid only when Reissued).
	ReissueDelay float64
	// Reissue is the reissue's own response time measured from its
	// dispatch (valid only when Reissued and ReissueCompleted).
	Reissue float64
	// ReissueCompleted reports whether the reissue ran to completion;
	// false when the cluster cancelled it after the primary's
	// response. A cancelled reissue cannot have remediated anything.
	ReissueCompleted bool
}

// RemediationRate returns the fraction of *issued* reissue requests
// that were necessary and sufficient for their query to meet the
// tail-latency target t: the primary missed t but the reissue
// responded by t - d (Section 5.1's Pr(X > t AND Y < t-d), conditioned
// on the reissue actually being sent). Returns 0 when nothing was
// reissued.
func RemediationRate(outcomes []QueryOutcome, t float64) float64 {
	issued, remediated := 0, 0
	for _, o := range outcomes {
		if !o.Reissued {
			continue
		}
		issued++
		if o.ReissueCompleted && o.Primary > t && o.ReissueDelay+o.Reissue < t {
			remediated++
		}
	}
	if issued == 0 {
		return 0
	}
	return float64(remediated) / float64(issued)
}

// AgreementBand is the sim-vs-live rate agreement band: the largest
// |live - sim| difference between the rates (reissue, failure, tier
// dispatch) a live runtime and its simulator twin measure for the
// same fixed policy at matched load before the two worlds are said
// to disagree. Every agreement test and every cross-validating
// binary holds its rates to this one value — 2.5 percentage points.
const AgreementBand = 0.025

// InverseCDFSeries samples the inverse CDF of the data at the given
// cumulative probabilities — the series plotted in the paper's
// Figure 2a. The returned slice parallels ps.
func InverseCDFSeries(samples []float64, ps []float64) []float64 {
	s := make([]float64, len(samples))
	copy(s, samples)
	stats.SortFloat64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if len(s) == 0 {
			out[i] = math.NaN()
			continue
		}
		idx := int(math.Ceil(float64(len(s))*p)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}
