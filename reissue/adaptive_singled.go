package reissue

import "fmt"

// AdaptiveOptimizeSingleD iteratively tunes a SingleD policy's delay
// so that its measured reissue rate meets the budget B even when the
// reissue load perturbs the response-time distribution. The paper
// applies the same adaptive refinement to SingleD as to SingleR when
// evaluating the Queueing workload (Section 5.1): without it, a delay
// chosen from the unloaded distribution reissues more than B once
// queueing delays grow.
//
// Each trial measures the primary response-time distribution under
// the current policy, recomputes the budget-binding delay (the
// (1-B)-quantile, Equation 2), and moves the delay a fraction Lambda
// of the way there.
func AdaptiveOptimizeSingleD(sys System, cfg AdaptiveConfig) (AdaptiveResult, error) {
	if cfg.Trials <= 0 {
		return AdaptiveResult{}, fmt.Errorf("reissue: Trials=%d must be positive", cfg.Trials)
	}
	if cfg.Lambda <= 0 || cfg.Lambda > 1 {
		return AdaptiveResult{}, fmt.Errorf("reissue: Lambda=%v outside (0, 1]", cfg.Lambda)
	}
	if err := checkOptimizerArgs(1, cfg.K, cfg.B); err != nil {
		return AdaptiveResult{}, err
	}

	// Seed the delay from the unloaded distribution rather than 0:
	// SingleD(0) reissues every request, which at high utilization
	// would overload the system on the very first trial.
	base := sys.Run(None{})
	if len(base.Primary) == 0 {
		return AdaptiveResult{}, fmt.Errorf("reissue: system returned empty baseline measurements")
	}
	seed, err := OptimalSingleD(base.Primary, cfg.B)
	if err != nil {
		return AdaptiveResult{}, err
	}
	d := seed.D
	res := AdaptiveResult{}
	// As in AdaptiveOptimize, each trial sorts each of its logs once
	// into these reused buffers; the delay, the prediction and the
	// measured tail all read the sorted views. OptimalSingleD above
	// has already validated B.
	var sx, sy, sq []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		pol := SingleD{D: d}
		run := sys.Run(pol)
		if len(run.Primary) == 0 || len(run.Query) == 0 {
			return res, fmt.Errorf("reissue: system returned empty measurements on trial %d", trial)
		}
		sx = sortInto(sx, run.Primary)
		sq = sortInto(sq, run.Query)
		ry := sx
		if len(run.Reissue) > 0 {
			sy = sortInto(sy, run.Reissue)
			ry = sy
		}
		local := singleDOnLog(sx, cfg.B)
		res.Trials = append(res.Trials, AdaptiveTrial{
			Trial:       trial,
			Policy:      SingleR{D: d, Q: 1},
			Predicted:   predictOnLog(sx, ry, SingleR{D: local.D, Q: 1}, cfg.K).TailLatency,
			Actual:      sortedTail(sq, cfg.K),
			ReissueRate: run.ReissueRate,
		})
		res.Final = run
		d += cfg.Lambda * (local.D - d)
	}
	res.Policy = SingleR{D: d, Q: 1}
	return res, nil
}
