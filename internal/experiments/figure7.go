package experiments

import (
	"fmt"

	"repro/internal/sweep"
	"repro/reissue"
)

// figure7aBudgets is the small-budget sweep of Figure 7a.
var figure7aBudgets = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}

// Figure7aJob decomposes Figure 7a for one system workload: a
// baseline point plus one point per budget, each tuning SingleR and
// SingleD on its own rebuilt system cluster.
func Figure7aJob(kind SystemKind, sc Scale) *Job {
	sc = sc.withDefaults()
	const k, util = 0.99, 0.40

	var baseP99 float64
	type out struct{ rateR, p99R, rateD, p99D float64 }
	outs := make([]out, len(figure7aBudgets))

	j := &Job{Name: "figure7a/" + kind.String()}
	j.Points = []sweep.Point{{
		Label: "7a/" + kind.String() + "/base",
		Run: func(env *sweep.Env) error {
			sys, err := env.WarmCluster(NewSystemCluster(kind, util, sc))
			if err != nil {
				return err
			}
			baseP99 = sys.Run(reissue.None{}).TailLatency(k)
			return nil
		},
	}}
	for bi, B := range figure7aBudgets {
		bi, B := bi, B
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("7a/%s/B=%v", kind, B),
			Run: func(env *sweep.Env) error {
				sys, err := env.WarmCluster(NewSystemCluster(kind, util, sc))
				if err != nil {
					return err
				}
				ar, err := reissue.AdaptiveOptimize(sys, adaptiveCfg(k, B, sc, true))
				if err != nil {
					return fmt.Errorf("SingleR budget %v: %w", B, err)
				}
				ad, err := reissue.AdaptiveOptimizeSingleD(sys, adaptiveCfg(k, B, sc, false))
				if err != nil {
					return fmt.Errorf("SingleD budget %v: %w", B, err)
				}
				outs[bi] = out{
					rateR: ar.Trials[len(ar.Trials)-1].ReissueRate, p99R: ar.FinalTail(),
					rateD: ad.Trials[len(ad.Trials)-1].ReissueRate, p99D: ad.FinalTail(),
				}
				return nil
			},
		})
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "7a/" + kind.String(),
			Title:   fmt.Sprintf("%s: P99 vs reissue rate, SingleR vs SingleD (40%% util)", kind),
			Columns: []string{"budget", "rate_singler", "p99_singler", "rate_singled", "p99_singled"},
			Notes:   []string{fmt.Sprintf("no-reissue P99 = %.1f ms", baseP99)},
		}
		for bi, B := range figure7aBudgets {
			o := outs[bi]
			t.AddRow(B, o.rateR, o.p99R, o.rateD, o.p99D)
		}
		return []*Table{t}, nil
	}
	return j
}

// Figure7a reproduces the paper's Figure 7a for one system workload:
// P99 latency of SingleR vs SingleD across small reissue rates
// (0-6%) at 40% utilization. The paper's headline system result —
// SingleR strictly dominates SingleD at small budgets because
// randomization lets it reissue earlier.
func Figure7a(kind SystemKind, sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure7aJob(kind, sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// Figure7bRates returns the reissue-rate sweep the paper uses for
// each system in Figure 7b (Redis sweeps to 50%, Lucene to 8%).
func Figure7bRates(kind SystemKind) []float64 {
	if kind == Redis {
		return []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50}
	}
	return []float64{0.01, 0.02, 0.03, 0.04, 0.06, 0.08}
}

// figure7bUtils is the utilization sweep of Figure 7b.
var figure7bUtils = []float64{0.20, 0.40, 0.60}

// Figure7bJob decomposes Figure 7b for one system workload into a
// baseline point per utilization plus one point per (utilization,
// rate) cell.
func Figure7bJob(kind SystemKind, sc Scale) *Job {
	sc = sc.withDefaults()
	const k = 0.99
	rates := Figure7bRates(kind)

	rows := map[float64][]float64{0: make([]float64, len(figure7bUtils))}
	for _, B := range rates {
		rows[B] = make([]float64, len(figure7bUtils))
	}

	j := &Job{Name: "figure7b/" + kind.String()}
	for ui, util := range figure7bUtils {
		ui, util := ui, util
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("7b/%s/util=%v/base", kind, util),
			Run: func(env *sweep.Env) error {
				sys, err := env.WarmCluster(NewSystemCluster(kind, util, sc))
				if err != nil {
					return err
				}
				rows[0][ui] = sys.Run(reissue.None{}).TailLatency(k)
				return nil
			},
		})
		for _, B := range rates {
			B := B
			j.Points = append(j.Points, sweep.Point{
				Label: fmt.Sprintf("7b/%s/util=%v/B=%v", kind, util, B),
				Run: func(env *sweep.Env) error {
					sys, err := env.WarmCluster(NewSystemCluster(kind, util, sc))
					if err != nil {
						return err
					}
					ar, err := reissue.AdaptiveOptimize(sys, adaptiveCfg(k, B, sc, true))
					if err != nil {
						return fmt.Errorf("util %v budget %v: %w", util, B, err)
					}
					rows[B][ui] = ar.FinalTail()
					return nil
				},
			})
		}
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "7b/" + kind.String(),
			Title:   fmt.Sprintf("%s: P99 vs reissue rate at varied utilization", kind),
			Columns: []string{"rate", "util20", "util40", "util60"},
		}
		t.AddRow(append([]float64{0}, rows[0]...)...)
		for _, B := range rates {
			t.AddRow(append([]float64{B}, rows[B]...)...)
		}
		return []*Table{t}, nil
	}
	return j
}

// Figure7b reproduces the paper's Figure 7b for one system workload:
// P99 latency of SingleR across reissue rates at 20%, 40%, and 60%
// utilization. Rate 0 rows carry the no-reissue baselines.
func Figure7b(kind SystemKind, sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure7bJob(kind, sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// figure7cUtils is the utilization sweep of Figure 7c.
var figure7cUtils = []float64{0.20, 0.30, 0.40, 0.50, 0.60}

// Figure7cJob decomposes Figure 7c for one system workload: per
// utilization, one baseline point and one budget-search point.
func Figure7cJob(kind SystemKind, sc Scale) *Job {
	sc = sc.withDefaults()
	const k = 0.99

	type out struct{ baseP99, bestBudget, bestP99 float64 }
	outs := make([]out, len(figure7cUtils))

	j := &Job{Name: "figure7c/" + kind.String()}
	for ui, util := range figure7cUtils {
		ui, util := ui, util
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("7c/%s/util=%v/base", kind, util),
			Run: func(env *sweep.Env) error {
				sys, err := env.WarmCluster(NewSystemCluster(kind, util, sc))
				if err != nil {
					return err
				}
				outs[ui].baseP99 = sys.Run(reissue.None{}).TailLatency(k)
				return nil
			},
		}, sweep.Point{
			Label: fmt.Sprintf("7c/%s/util=%v/search", kind, util),
			Run: func(env *sweep.Env) error {
				sys, err := env.WarmCluster(NewSystemCluster(kind, util, sc))
				if err != nil {
					return err
				}
				bs, err := reissue.BudgetSearch(sys, reissue.BudgetSearchConfig{
					K: k, Lambda: 0.5,
					AdaptiveSteps: min(sc.AdaptiveTrials, 5),
					Trials:        8,
					InitialDelta:  0.01,
					MaxBudget:     0.5,
					Correlated:    true,
				})
				if err != nil {
					return fmt.Errorf("util %v: %w", util, err)
				}
				outs[ui].bestBudget, outs[ui].bestP99 = bs.BestBudget, bs.BestLatency
				return nil
			},
		})
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "7c/" + kind.String(),
			Title:   fmt.Sprintf("%s: best-budget P99 vs utilization", kind),
			Columns: []string{"util", "best_budget", "p99_best", "p99_noreissue"},
		}
		for ui, util := range figure7cUtils {
			o := outs[ui]
			t.AddRow(util, o.bestBudget, o.bestP99, o.baseP99)
		}
		return []*Table{t}, nil
	}
	return j
}

// Figure7c reproduces the paper's Figure 7c for one system workload:
// the P99 achieved with the best reissue budget (found by the budget
// binary search of Section 4.4) against the no-reissue baseline, for
// utilizations from 20% to 60%.
func Figure7c(kind SystemKind, sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure7cJob(kind, sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}
