package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
	"repro/reissue"
)

// Figure3Budgets is the reissue-budget sweep of the paper's Figure 3.
var Figure3Budgets = []float64{0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}

// WorkloadKind identifies one of the paper's three simulation
// workload models.
type WorkloadKind int

const (
	// Independent: no queueing, independent service times.
	Independent WorkloadKind = iota
	// CorrelatedWL: no queueing, Y = 0.5X + Z.
	CorrelatedWL
	// Queueing: 10 servers at 30% utilization, correlated service
	// times.
	Queueing
)

func (k WorkloadKind) String() string {
	switch k {
	case Independent:
		return "Independent"
	case CorrelatedWL:
		return "Correlated"
	default:
		return "Queueing"
	}
}

func buildWorkload(k WorkloadKind, sc Scale) (*cluster.Cluster, error) {
	o := workload.Options{Queries: sc.Queries, Seed: sc.Seed}
	switch k {
	case Independent:
		return workload.Independent(o)
	case CorrelatedWL:
		return workload.Correlated(o)
	case Queueing:
		return workload.Queueing(o)
	default:
		return nil, fmt.Errorf("experiments: unknown workload kind %d", k)
	}
}

// Figure3Result bundles the three panels of Figure 3 for one
// workload: tail-latency reduction ratios (3a), remediation rates
// (3b), and the optimal policy's shape (3c).
type Figure3Result struct {
	Reduction   *Table // Figure 3a
	Remediation *Table // Figure 3b
	PolicyShape *Table // Figure 3c
}

// Figure3Job decomposes Figure 3 for one workload model into one
// baseline point plus one point per reissue budget. Every point
// rebuilds the workload from the Scale, so each budget's policy
// tuning and measurement runs reproduce the sequential harness
// exactly; only the reduction ratio needs the baseline, and it is
// computed at merge time.
func Figure3Job(kind WorkloadKind, sc Scale) *Job {
	sc = sc.withDefaults()
	const k = 0.95
	name := kind.String()

	var baseP95 float64
	type budgetOut struct {
		rateR, p95R, remR   float64
		rateD, p95D, remD   float64
		outstanding, reissQ float64
	}
	outs := make([]budgetOut, len(Figure3Budgets))

	j := &Job{Name: "figure3/" + name}
	j.Points = []sweep.Point{{
		Label: "3/" + name + "/base",
		Run: func(env *sweep.Env) error {
			wl, err := env.WarmCluster(buildWorkload(kind, sc))
			if err != nil {
				return err
			}
			base := wl.RunDetailed(reissue.None{})
			baseP95 = metrics.TailLatency(base.Log.ResponseTimes(), 95)
			return nil
		},
	}}
	for bi, B := range Figure3Budgets {
		bi, B := bi, B
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("3/%s/B=%v", name, B),
			Run: func(env *sweep.Env) error {
				// The probe's cluster, when it is this point's to run,
				// takes the worker's engine before wl does.
				var probe probeLogs
				if kind != Queueing {
					var err error
					if probe, err = sharedProbe(env, kind, sc); err != nil {
						return err
					}
				}
				wl, err := env.WarmCluster(buildWorkload(kind, sc))
				if err != nil {
					return err
				}
				polR, polD, err := tunePolicies(wl, probe, kind, k, B, sc)
				if err != nil {
					return fmt.Errorf("budget %v: %w", B, err)
				}
				runR := wl.RunDetailed(polR)
				runD := wl.RunDetailed(polD)
				o := &outs[bi]
				o.p95R = metrics.TailLatency(runR.Log.ResponseTimes(), 95)
				o.p95D = metrics.TailLatency(runD.Log.ResponseTimes(), 95)
				o.rateR, o.rateD = runR.ReissueRate, runD.ReissueRate
				o.remR = metrics.RemediationRate(runR.Outcomes, o.p95R)
				o.remD = metrics.RemediationRate(runD.Outcomes, o.p95D)
				// Fraction of requests still outstanding at the
				// reissue time, evaluated against the policy run's
				// primary distribution.
				o.outstanding = 1 - fracLE(runR.Log.PrimaryTimes(), polR.D)
				o.reissQ = polR.Q
				return nil
			},
		})
	}
	j.Tables = func() ([]*Table, error) {
		res := &Figure3Result{
			Reduction: &Table{
				ID:      "3a/" + name,
				Title:   fmt.Sprintf("P95 reduction ratio vs reissue rate (%s workload)", name),
				Columns: []string{"budget", "rate_singler", "ratio_singler", "rate_singled", "ratio_singled"},
				Notes:   []string{fmt.Sprintf("baseline P95 = %.2f", baseP95)},
			},
			Remediation: &Table{
				ID:      "3b/" + name,
				Title:   fmt.Sprintf("Remediation rate vs reissue rate (%s workload)", name),
				Columns: []string{"budget", "singler_remediation", "singled_remediation"},
			},
			PolicyShape: &Table{
				ID:      "3c/" + name,
				Title:   fmt.Sprintf("Optimal SingleR reissue time and probability (%s workload)", name),
				Columns: []string{"budget", "outstanding_at_d", "reissue_prob"},
			},
		}
		for bi, B := range Figure3Budgets {
			o := &outs[bi]
			res.Reduction.AddRow(B,
				o.rateR, metrics.ReductionRatio(baseP95, o.p95R),
				o.rateD, metrics.ReductionRatio(baseP95, o.p95D))
			res.Remediation.AddRow(B, o.remR, o.remD)
			res.PolicyShape.AddRow(B, o.outstanding, o.reissQ)
		}
		return []*Table{res.Reduction, res.Remediation, res.PolicyShape}, nil
	}
	return j
}

// Figure3 reproduces the paper's Figure 3 for one workload model:
// for each reissue budget it tunes the optimal SingleR and SingleD
// policies (adaptively on the Queueing workload, where reissue load
// perturbs the distribution) and reports the P95 reduction ratio, the
// remediation rate, and the SingleR policy's reissue time (as the
// fraction of requests outstanding at d) and probability.
func Figure3(kind WorkloadKind, sc Scale) (*Figure3Result, error) {
	ts, err := runJobTables(sc, Figure3Job(kind, sc))
	if err != nil {
		return nil, err
	}
	return &Figure3Result{Reduction: ts[0], Remediation: ts[1], PolicyShape: ts[2]}, nil
}

// tunePolicies finds the SingleR and SingleD policies for one budget.
// On the no-queueing workloads the optimizer runs once on the
// logged response times of the SingleD(0) probe (reissue load cannot
// perturb an infinite-server system); the Queueing workload uses
// adaptive refinement for both families on wl, as in the paper.
func tunePolicies(wl *cluster.Cluster, probe probeLogs, kind WorkloadKind, k, B float64, sc Scale) (reissue.SingleR, reissue.SingleD, error) {
	if kind == Queueing {
		ar, err := reissue.AdaptiveOptimize(wl, adaptiveCfg(k, B, sc, true))
		if err != nil {
			return reissue.SingleR{}, reissue.SingleD{}, err
		}
		ad, err := reissue.AdaptiveOptimizeSingleD(wl, adaptiveCfg(k, B, sc, false))
		if err != nil {
			return reissue.SingleR{}, reissue.SingleD{}, err
		}
		return ar.Policy, reissue.SingleD{D: ad.Policy.D}, nil
	}

	polR, _, err := reissue.ComputeOptimalSingleRCorrelated(probe.primary, probe.pairs, k, B)
	if err != nil {
		return reissue.SingleR{}, reissue.SingleD{}, err
	}
	polD, err := reissue.OptimalSingleD(probe.primary, B)
	if err != nil {
		return reissue.SingleR{}, reissue.SingleD{}, err
	}
	return polR, polD, nil
}

func fracLE(xs []float64, t float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x <= t {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
