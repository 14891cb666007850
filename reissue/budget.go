package reissue

import (
	"fmt"
	"math"
)

// This file implements the budget-selection procedures of Section 4.4:
// the expanding/contracting binary search for the tail-latency-optimal
// reissue budget (illustrated by the paper's Figure 8), and budget
// minimization subject to a tail-latency SLA.

// BudgetTrial records one step of the budget search — the data behind
// Figure 8 (Trial Budget / Best Budget, Trial Latency / Best Latency).
type BudgetTrial struct {
	Trial       int
	Budget      float64 // budget tried this step
	Latency     float64 // measured tail latency at that budget
	BestBudget  float64 // best budget found so far (after this step)
	BestLatency float64 // latency of the best budget so far
}

// BudgetSearchConfig parametrizes the budget search.
type BudgetSearchConfig struct {
	K             float64 // target percentile, e.g. 0.99
	Lambda        float64 // learning rate for the inner adaptive loop
	AdaptiveSteps int     // adaptive trials per budget probe (paper: 5)
	Trials        int     // number of budget probes
	InitialDelta  float64 // initial step, paper: 0.01
	MaxBudget     float64 // cap on candidate budgets, e.g. 0.5
	Correlated    bool    // forwarded to the adaptive optimizer
}

// BudgetSearchResult is the outcome of the budget search.
type BudgetSearchResult struct {
	BestBudget  float64
	BestLatency float64
	Policy      SingleR // policy tuned at the best budget
	Trials      []BudgetTrial
}

// BudgetSearch finds the reissue budget minimizing the measured
// kth-percentile tail latency, following Section 4.4: starting from
// best-budget = 0 and step delta, each probe tunes a SingleR policy at
// budget best+delta with the adaptive optimizer and measures its tail
// latency; improvement grows the step (delta <- 3*delta/2) and moves
// best, regression flips and halves it (delta <- -delta/2).
func BudgetSearch(sys System, cfg BudgetSearchConfig) (BudgetSearchResult, error) {
	if cfg.Trials <= 0 {
		return BudgetSearchResult{}, fmt.Errorf("reissue: Trials=%d must be positive", cfg.Trials)
	}
	if cfg.InitialDelta <= 0 {
		return BudgetSearchResult{}, fmt.Errorf("reissue: InitialDelta=%v must be positive", cfg.InitialDelta)
	}
	if cfg.MaxBudget <= 0 || cfg.MaxBudget > 1 {
		return BudgetSearchResult{}, fmt.Errorf("reissue: MaxBudget=%v outside (0, 1]", cfg.MaxBudget)
	}

	// Baseline: no reissue at all is "budget 0".
	base := sys.Run(None{})
	res := BudgetSearchResult{
		BestBudget:  0,
		BestLatency: base.TailLatency(cfg.K),
		Policy:      SingleR{D: 0, Q: 0},
	}

	delta := cfg.InitialDelta
	for trial := 0; trial < cfg.Trials; trial++ {
		cand := clamp(res.BestBudget+delta, 0, cfg.MaxBudget)
		if cand <= 0 {
			// A negative step walked below zero; probe upward again
			// with a smaller step.
			delta = math.Abs(delta) / 2
			cand = clamp(res.BestBudget+delta, 0, cfg.MaxBudget)
		}

		lat, pol, err := probeBudget(sys, cand, cfg)
		if err != nil {
			return res, fmt.Errorf("reissue: budget trial %d: %w", trial, err)
		}

		if lat < res.BestLatency {
			res.BestBudget, res.BestLatency, res.Policy = cand, lat, pol
			delta = 3 * delta / 2
		} else if res.BestBudget == 0 {
			// No improving budget found yet. The paper's rule
			// (delta <- -delta/2) would trap the search below the
			// first probe when very small budgets hurt (their reissues
			// add load without rescuing the tail); sweep upward until
			// some budget improves, then oscillate as the paper does.
			delta = 3 * delta / 2
		} else {
			delta = -delta / 2
		}
		res.Trials = append(res.Trials, BudgetTrial{
			Trial:       trial,
			Budget:      cand,
			Latency:     lat,
			BestBudget:  res.BestBudget,
			BestLatency: res.BestLatency,
		})
		// Keep a minimum probing step so the search keeps exploring
		// around the optimum for the full trial count, as in the
		// paper's Figure 8, instead of freezing once delta collapses.
		if math.Abs(delta) < 1e-3 {
			if delta < 0 {
				delta = -1e-3
			} else {
				delta = 1e-3
			}
		}
	}
	return res, nil
}

func probeBudget(sys System, budget float64, cfg BudgetSearchConfig) (float64, SingleR, error) {
	if budget <= 0 {
		base := sys.Run(None{})
		return base.TailLatency(cfg.K), SingleR{D: 0, Q: 0}, nil
	}
	ar, err := AdaptiveOptimize(sys, AdaptiveConfig{
		K: cfg.K, B: budget, Lambda: cfg.Lambda,
		Trials: cfg.AdaptiveSteps, Correlated: cfg.Correlated,
	})
	if err != nil {
		return 0, SingleR{}, err
	}
	return ar.FinalTail(), ar.Policy, nil
}

// SLAConfig parametrizes budget minimization under a tail-latency SLA.
type SLAConfig struct {
	K             float64 // SLA percentile, e.g. 0.99
	Target        float64 // SLA latency bound T
	Lambda        float64
	AdaptiveSteps int
	MaxBudget     float64 // largest budget worth considering
	Tolerance     float64 // budget resolution of the bisection
	Correlated    bool
}

// SLAResult is the outcome of MinimizeBudgetForSLA.
type SLAResult struct {
	// Feasible reports whether any probed budget met the SLA.
	Feasible bool
	// Budget is the smallest probed budget meeting the SLA (valid
	// only when Feasible).
	Budget float64
	// Latency is the measured tail latency at Budget.
	Latency float64
	// Policy is the tuned policy at Budget.
	Policy SingleR
}

// MinimizeBudgetForSLA finds (approximately) the smallest reissue
// budget whose tuned SingleR policy meets the SLA "kth percentile
// <= Target" (Section 4.4, "Meeting tail-latency with minimal
// resources"). It expands the budget geometrically from a small seed
// until the SLA is met — the brute-force phase the paper describes —
// then bisects between the last failing and first passing budgets.
// Latencies are compared through f(L) = min(T, L) as in the paper, so
// over-achieving the SLA does not attract extra budget.
func MinimizeBudgetForSLA(sys System, cfg SLAConfig) (SLAResult, error) {
	if cfg.Target <= 0 {
		return SLAResult{}, fmt.Errorf("reissue: SLA target %v must be positive", cfg.Target)
	}
	if cfg.MaxBudget <= 0 || cfg.MaxBudget > 1 {
		return SLAResult{}, fmt.Errorf("reissue: MaxBudget=%v outside (0, 1]", cfg.MaxBudget)
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 0.005
	}

	// Budget 0 might already meet the SLA.
	base := sys.Run(None{})
	if lat := base.TailLatency(cfg.K); lat <= cfg.Target {
		return SLAResult{Feasible: true, Budget: 0, Latency: lat, Policy: SingleR{}}, nil
	}

	bcfg := BudgetSearchConfig{
		K: cfg.K, Lambda: cfg.Lambda, AdaptiveSteps: cfg.AdaptiveSteps,
		Correlated: cfg.Correlated,
	}
	// Expansion phase.
	lo := 0.0
	b := 0.005
	var hi float64
	var hiLat float64
	var hiPol SingleR
	found := false
	for b <= cfg.MaxBudget {
		lat, pol, err := probeBudget(sys, b, bcfg)
		if err != nil {
			return SLAResult{}, err
		}
		if lat <= cfg.Target {
			hi, hiLat, hiPol, found = b, lat, pol, true
			break
		}
		lo = b
		b *= 1.5
	}
	if !found {
		// Try the cap itself before giving up.
		lat, pol, err := probeBudget(sys, cfg.MaxBudget, bcfg)
		if err != nil {
			return SLAResult{}, err
		}
		if lat > cfg.Target {
			return SLAResult{Feasible: false, Latency: lat}, nil
		}
		hi, hiLat, hiPol = cfg.MaxBudget, lat, pol
	}

	// Bisection phase between the failing lo and the passing hi.
	for hi-lo > tol {
		mid := (lo + hi) / 2
		lat, pol, err := probeBudget(sys, mid, bcfg)
		if err != nil {
			return SLAResult{}, err
		}
		// Compare through f(L) = min(T, L): every passing budget is
		// equivalent, so bisection keeps shrinking toward the
		// smallest one.
		if math.Min(cfg.Target, lat) >= lat {
			hi, hiLat, hiPol = mid, lat, pol
		} else {
			lo = mid
		}
	}
	return SLAResult{Feasible: true, Budget: hi, Latency: hiLat, Policy: hiPol}, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
