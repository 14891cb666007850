package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
	"repro/reissue"
)

// Figure6Rates is the reissue-rate sweep of the paper's Figure 6.
var Figure6Rates = []float64{0.05, 0.10, 0.20, 0.30, 0.50}

// Figure6Utils is the utilization sweep of the paper's Figure 6.
var Figure6Utils = []float64{0.20, 0.30, 0.50}

// Figure6Job decomposes one Figure 6 panel row into a baseline point
// per utilization plus one point per (utilization, rate) cell; each
// cell tunes separately for P95 and P99. Reduction ratios are
// computed at merge time from the per-utilization baselines.
func Figure6Job(dist stats.Dist, label string, sc Scale) *Job {
	sc = sc.withDefaults()

	base95 := make([]float64, len(Figure6Utils))
	base99 := make([]float64, len(Figure6Utils))
	tail95 := make(map[float64][]float64, len(Figure6Rates))
	tail99 := make(map[float64][]float64, len(Figure6Rates))
	for _, B := range Figure6Rates {
		tail95[B] = make([]float64, len(Figure6Utils))
		tail99[B] = make([]float64, len(Figure6Utils))
	}

	j := &Job{Name: "figure6/" + label}
	for ui, util := range Figure6Utils {
		ui, util := ui, util
		opts := workload.Options{
			Queries: sc.Queries, Seed: sc.Seed, Dist: dist, Utilization: util,
		}.WithCorr(0)
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("6/%s/util=%v/base", label, util),
			Run: func(env *sweep.Env) error {
				wl, err := env.WarmCluster(workload.Queueing(opts))
				if err != nil {
					return err
				}
				// One log, sorted once, serves both percentiles.
				rts := wl.RunDetailed(reissue.None{}).Log.ResponseTimes()
				stats.SortFloat64s(rts)
				base95[ui] = metrics.SortedTailLatency(rts, 95)
				base99[ui] = metrics.SortedTailLatency(rts, 99)
				return nil
			},
		})
		for _, B := range Figure6Rates {
			B := B
			j.Points = append(j.Points, sweep.Point{
				Label: fmt.Sprintf("6/%s/util=%v/B=%v", label, util, B),
				Run: func(env *sweep.Env) error {
					wl, err := env.WarmCluster(workload.Queueing(opts))
					if err != nil {
						return err
					}
					// The optimal policy depends on the target
					// percentile, so tune separately for P95 and P99 as
					// the paper does.
					ar95, err := reissue.AdaptiveOptimize(wl, adaptiveCfg(0.95, B, sc, false))
					if err != nil {
						return fmt.Errorf("util %v budget %v (P95): %w", util, B, err)
					}
					ar99, err := reissue.AdaptiveOptimize(wl, adaptiveCfg(0.99, B, sc, false))
					if err != nil {
						return fmt.Errorf("util %v budget %v (P99): %w", util, B, err)
					}
					tail95[B][ui] = ar95.FinalTail()
					tail99[B][ui] = ar99.FinalTail()
					return nil
				},
			})
		}
	}
	j.Tables = func() ([]*Table, error) {
		p95 := &Table{
			ID:      "6/" + label + "/p95",
			Title:   fmt.Sprintf("P95 reduction ratio vs reissue rate, %s service times", label),
			Columns: []string{"rate", "util20", "util30", "util50"},
		}
		p99 := &Table{
			ID:      "6/" + label + "/p99",
			Title:   fmt.Sprintf("P99 reduction ratio vs reissue rate, %s service times", label),
			Columns: []string{"rate", "util20", "util30", "util50"},
		}
		for _, B := range Figure6Rates {
			row95 := []float64{B}
			row99 := []float64{B}
			for ui := range Figure6Utils {
				row95 = append(row95, metrics.ReductionRatio(base95[ui], tail95[B][ui]))
				row99 = append(row99, metrics.ReductionRatio(base99[ui], tail99[B][ui]))
			}
			p95.AddRow(row95...)
			p99.AddRow(row99...)
		}
		return []*Table{p95, p99}, nil
	}
	return j
}

// Figure6 reproduces one panel row of the paper's Figure 6: for a
// service-time distribution (the paper uses LogNormal(1,1) and
// Exponential(0.1)), it reports the P95 and P99 reduction ratios of
// adaptively tuned SingleR policies across reissue rates at 20%, 30%,
// and 50% utilization, on the uncorrelated Queueing workload.
//
// The returned tables are the P95 panel and the P99 panel; each row
// is a reissue rate and each column a utilization level.
func Figure6(dist stats.Dist, label string, sc Scale) (p95, p99 *Table, err error) {
	ts, err := runJobTables(sc, Figure6Job(dist, label, sc))
	if err != nil {
		return nil, nil, err
	}
	return ts[0], ts[1], nil
}
