package reissue

import (
	"fmt"
	"math"

	"repro/internal/rangequery"
	"repro/internal/stats"
)

// RunResult is the measured outcome of executing a workload under a
// reissue policy. Systems (real or simulated) hand this back to the
// adaptive optimizer, which never needs to know anything else about
// the system — the data-driven decoupling that gives the paper's
// approach its wide applicability.
type RunResult struct {
	// Primary holds the response time of every primary request,
	// measured from its own dispatch.
	Primary []float64
	// Reissue holds the response time of every reissue request that
	// was actually sent, measured from the reissue dispatch.
	Reissue []float64
	// Pairs holds (primary, reissue) response-time pairs for queries
	// that were reissued, used by the correlation-aware optimizer.
	Pairs []rangequery.Point
	// Query holds the end-to-end response time of every query: time
	// from primary dispatch to the first response from any copy.
	Query []float64
	// ReissueRate is the measured reissues/queries ratio.
	ReissueRate float64
}

// TailLatency returns the measured kth-percentile (k in (0,1)) query
// response time.
func (r RunResult) TailLatency(k float64) float64 {
	if len(r.Query) == 0 {
		return math.NaN()
	}
	return sortedTail(sortedCopy(r.Query), k)
}

// sortedTail is TailLatency's nearest-rank lookup on an
// already-sorted non-empty log, shared with the adaptive loop so the
// scratch-buffer path measures with bit-identical semantics.
func sortedTail(s []float64, k float64) float64 {
	idx := int(math.Ceil(float64(len(s))*k)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// System abstracts anything that can execute its workload under a
// reissue policy and report measured response times: the cluster
// simulator, the kvstore and searchengine harnesses, or (in a real
// deployment) a live service.
type System interface {
	Run(p Policy) RunResult
}

// SystemFunc adapts a function to the System interface.
type SystemFunc func(p Policy) RunResult

// Run invokes the function.
func (f SystemFunc) Run(p Policy) RunResult { return f(p) }

// AdaptiveConfig parametrizes the iterative adaptation loop of
// Section 4.3.
type AdaptiveConfig struct {
	K          float64 // target percentile, e.g. 0.99
	B          float64 // reissue budget, e.g. 0.02
	Lambda     float64 // learning rate; the paper uses 0.2-0.5
	Trials     int     // number of adaptation iterations
	Correlated bool    // use the correlation-aware optimizer
}

// AdaptiveTrial records one iteration of the adaptive loop, the data
// behind the paper's Figure 2b (Predicted vs Actual curves).
type AdaptiveTrial struct {
	Trial       int
	Policy      SingleR // policy executed in this trial
	Predicted   float64 // optimizer-predicted tail latency for the next policy
	Actual      float64 // measured tail latency under Policy
	ReissueRate float64 // measured reissue rate under Policy
}

// AdaptiveResult is the outcome of the adaptive optimization.
type AdaptiveResult struct {
	Policy SingleR         // final refined policy
	Trials []AdaptiveTrial // per-iteration trace
	Final  RunResult       // measurements from the last trial
}

// FinalTail returns the measured tail latency of the last trial at
// the loop's own percentile: Final.TailLatency(K) for the K the loop
// ran with, bit for bit, read from the trial record instead of
// sorting Final.Query again. It returns NaN when no trial ran.
func (r AdaptiveResult) FinalTail() float64 {
	if len(r.Trials) == 0 {
		return math.NaN()
	}
	return r.Trials[len(r.Trials)-1].Actual
}

// AdaptiveOptimize iteratively refines a SingleR policy on a system
// whose response-time distributions shift under reissue load
// (Section 4.3). It starts from the immediate-reissue policy
// SingleR(d=0, q=B), runs the system, re-solves the optimization on
// the measured distributions, and moves the reissue delay a fraction
// Lambda of the way toward the new solution; the probability is reset
// each round so the budget binds on the freshly measured primary
// distribution.
func AdaptiveOptimize(sys System, cfg AdaptiveConfig) (AdaptiveResult, error) {
	if cfg.Trials <= 0 {
		return AdaptiveResult{}, fmt.Errorf("reissue: Trials=%d must be positive", cfg.Trials)
	}
	if cfg.Lambda <= 0 || cfg.Lambda > 1 {
		return AdaptiveResult{}, fmt.Errorf("reissue: Lambda=%v outside (0, 1]", cfg.Lambda)
	}
	if err := checkOptimizerArgs(1, cfg.K, cfg.B); err != nil {
		return AdaptiveResult{}, err
	}

	pol := SingleR{D: 0, Q: cfg.B}
	res := AdaptiveResult{}
	// Sorted-log scratch buffers, reused across trials: each trial's
	// primary, reissue, and end-to-end logs are sorted exactly once
	// into these, and every optimizer call, tail measurement, and
	// budget re-binding below reads the sorted views — no per-
	// evaluation sortedCopy.
	var sx, sy, sq []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		run := sys.Run(pol)
		if len(run.Primary) == 0 || len(run.Query) == 0 {
			return res, fmt.Errorf("reissue: system returned empty measurements on trial %d", trial)
		}
		sx = sortInto(sx, run.Primary)
		sq = sortInto(sq, run.Query)

		// Correlated solving needs paired samples; queries that were
		// never reissued contribute no pair, so require a minimum.
		// The correlated optimizer reads the pairs, not the reissue
		// log, so sy is only sorted on the independent path.
		var local SingleR
		var pred Prediction
		var err error
		if cfg.Correlated && len(run.Pairs) >= 100 {
			local, pred, err = ComputeOptimalSingleRCorrelatedSorted(sx, run.Pairs, cfg.K, cfg.B)
		} else {
			sy = sortInto(sy, run.Reissue)
			local, pred, err = ComputeOptimalSingleRSorted(sx, sy, cfg.K, cfg.B)
		}
		if err != nil {
			return res, fmt.Errorf("reissue: trial %d: %w", trial, err)
		}

		res.Trials = append(res.Trials, AdaptiveTrial{
			Trial:       trial,
			Policy:      pol,
			Predicted:   pred.TailLatency,
			Actual:      sortedTail(sq, cfg.K),
			ReissueRate: run.ReissueRate,
		})
		res.Final = run

		// d' = d + lambda * (d_local - d); q re-bound to the budget on
		// the measured primary distribution at the new delay.
		newD := pol.D + cfg.Lambda*(local.D-pol.D)
		pxGT := 1 - float64(countLE(sx, newD))/float64(len(sx))
		newQ := 1.0
		if pxGT > 0 {
			newQ = math.Min(1, cfg.B/pxGT)
		}
		pol = SingleR{D: newD, Q: newQ}
	}
	res.Policy = pol
	return res, nil
}

// sortInto refills buf with xs sorted ascending, reusing buf's
// capacity.
func sortInto(buf, xs []float64) []float64 {
	buf = append(buf[:0], xs...)
	stats.SortFloat64s(buf)
	return buf
}

// Converged reports whether the last two trials' measured tail
// latencies agree within tol (relative) and the measured reissue rate
// is within tol of the budget — the convergence criterion sketched in
// Section 4.3.
func (r AdaptiveResult) Converged(B, tol float64) bool {
	n := len(r.Trials)
	if n < 2 {
		return false
	}
	a, b := r.Trials[n-2].Actual, r.Trials[n-1].Actual
	if a <= 0 || b <= 0 {
		return false
	}
	if math.Abs(a-b)/math.Max(a, b) > tol {
		return false
	}
	return math.Abs(r.Trials[n-1].ReissueRate-B) <= tol*math.Max(B, 1e-9)+1e-3
}
