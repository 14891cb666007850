package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
	"repro/reissue"
)

// This file holds experiments beyond the paper's figures, exercising
// the extension scenarios its Section 4.4 sketches. They are labelled
// X1, X2, ... in cmd/reissue-figures.

// ExtensionOnlineTrackingJob decomposes X1 into two points: the
// online-adapter run and the no-reissue/frozen-policy reference runs
// on the identical sample path.
func ExtensionOnlineTrackingJob(sc Scale) *Job {
	sc = sc.withDefaults()
	dist := stats.NewLogNormal(1, 1)
	const servers = 10
	baseRate := cluster.ArrivalRateForUtilization(0.25, servers, dist.Mean())
	stepTime := float64(sc.Queries) / 2 / baseRate

	baseCfg := func() cluster.Config {
		return cluster.Config{
			Servers:     servers,
			ArrivalRate: baseRate,
			Queries:     sc.Queries,
			Warmup:      sc.Queries / 10,
			Source:      cluster.DistSource{Dist: dist},
			Seed:        sc.Seed*7 + 1,
			RateMultiplier: func(t float64) float64 {
				if t > stepTime {
					return 2
				}
				return 1
			},
		}
	}

	type epochRow struct{ epoch, d, q float64 }
	var epochs []epochRow
	var onlineP99, baseP99, frozenP99 float64
	var finalPolicy reissue.SingleR
	var onlineRate float64

	j := &Job{Name: "extensionX1"}
	j.Points = []sweep.Point{
		{
			Label: "X1/online",
			Run: func(env *sweep.Env) error {
				adapter, err := reissue.NewOnlineAdapter(reissue.OnlineConfig{
					K: 0.99, B: 0.10, Lambda: 0.5, Window: min(sc.Queries/8, 2000),
				})
				if err != nil {
					return err
				}
				lastEpoch := 0
				cfg := baseCfg()
				cfg.OnRequestComplete = func(reissue bool, rt, now float64) {
					if reissue {
						adapter.ObserveReissue(rt)
					} else {
						adapter.ObservePrimary(rt)
					}
					if e := adapter.Epochs(); e > lastEpoch {
						lastEpoch = e
						pol := adapter.Policy()
						epochs = append(epochs, epochRow{float64(e), pol.D, pol.Q})
					}
				}
				c, err := env.WarmCluster(cluster.New(cfg))
				if err != nil {
					return err
				}
				onlineRes := c.RunDetailed(adapter)
				onlineP99 = metrics.TailLatency(onlineRes.Log.ResponseTimes(), 99)
				finalPolicy = adapter.Policy()
				onlineRate = onlineRes.ReissueRate
				return nil
			},
		},
		{
			Label: "X1/reference",
			Run: func(env *sweep.Env) error {
				bc, err := env.WarmCluster(cluster.New(baseCfg()))
				if err != nil {
					return err
				}
				base := bc.RunDetailed(reissue.None{})
				frozen := bc.RunDetailed(reissue.SingleR{D: 0, Q: 0.10})
				baseP99 = metrics.TailLatency(base.Log.ResponseTimes(), 99)
				frozenP99 = metrics.TailLatency(frozen.Log.ResponseTimes(), 99)
				return nil
			},
		},
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "X1",
			Title:   "Online adaptation under a mid-run load step (25% -> 50% utilization)",
			Columns: []string{"epoch", "delay", "prob"},
			Notes: []string{
				fmt.Sprintf("P99 no-reissue=%.1f frozen-seed=%.1f online=%.1f",
					baseP99, frozenP99, onlineP99),
				fmt.Sprintf("final policy %v, measured reissue rate %.3f",
					finalPolicy, onlineRate),
			},
		}
		for _, e := range epochs {
			t.AddRow(e.epoch, e.d, e.q)
		}
		return []*Table{t}, nil
	}
	return j
}

// ExtensionOnlineTracking (X1) runs the online adapter against a load
// step (utilization doubling mid-run) and reports the P99 of three
// systems on the identical sample path: no reissue, the frozen
// immediate-reissue seed policy, and the online adapter. It also
// traces the adapter's reissue delay across epochs, showing the
// policy following the distribution shift.
func ExtensionOnlineTracking(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, ExtensionOnlineTrackingJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// extensionX2Utils is the utilization sweep of X2.
var extensionX2Utils = []float64{0.30, 0.40, 0.50}

// ExtensionCancellationJob decomposes X2 into one point per
// (utilization, cancellation) cell.
func ExtensionCancellationJob(sc Scale) *Job {
	sc = sc.withDefaults()
	dist := stats.NewExponential(0.1)

	type out struct{ p99, util float64 }
	outs := make([][2]out, len(extensionX2Utils)) // [rho][keep, cancel]

	j := &Job{Name: "extensionX2"}
	for ri, rho := range extensionX2Utils {
		for ci, cancel := range []bool{false, true} {
			ri, rho, ci, cancel := ri, rho, ci, cancel
			j.Points = append(j.Points, sweep.Point{
				Label: fmt.Sprintf("X2/util=%v/cancel=%v", rho, cancel),
				Run: func(env *sweep.Env) error {
					c, err := env.WarmCluster(cluster.New(cluster.Config{
						Servers:          10,
						ArrivalRate:      cluster.ArrivalRateForUtilization(rho, 10, dist.Mean()),
						Queries:          sc.Queries,
						Warmup:           sc.Queries / 10,
						Source:           cluster.DistSource{Dist: dist},
						Seed:             sc.Seed*11 + 3,
						CancelOnComplete: cancel,
					}))
					if err != nil {
						return err
					}
					res := c.RunDetailed(reissue.Immediate{N: 1})
					outs[ri][ci] = out{
						p99:  metrics.TailLatency(res.Log.ResponseTimes(), 99),
						util: res.Utilization,
					}
					return nil
				},
			})
		}
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "X2",
			Title:   "Tied requests: immediate reissue with and without cancellation",
			Columns: []string{"util", "p99_keep", "util_keep", "p99_cancel", "util_cancel"},
		}
		for ri, rho := range extensionX2Utils {
			t.AddRow(rho,
				outs[ri][0].p99, outs[ri][0].util,
				outs[ri][1].p99, outs[ri][1].util)
		}
		t.Notes = append(t.Notes,
			"cancellation reclaims the loser copy's service time, keeping immediate reissue viable at utilizations where it otherwise melts down")
		return []*Table{t}, nil
	}
	return j
}

// ExtensionCancellation (X2) quantifies the tied-requests extension:
// P99 and utilization of immediate reissue with and without
// cancel-on-complete at several utilization levels.
func ExtensionCancellation(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, ExtensionCancellationJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// extensionX4FanOuts is the fan-out sweep of X4.
var extensionX4FanOuts = []int{1, 5, 10, 20}

// ExtensionFanOutJob decomposes X4 into one point per fan-out level.
func ExtensionFanOutJob(sc Scale) *Job {
	sc = sc.withDefaults()
	dist := stats.NewExponential(0.1)

	rows := make([][]float64, len(extensionX4FanOuts))
	j := &Job{Name: "extensionX4"}
	for fi, fan := range extensionX4FanOuts {
		fi, fan := fi, fan
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("X4/fanout=%d", fan),
			Run: func(env *sweep.Env) error {
				queries := sc.Queries - sc.Queries%max(fan, 1)
				warmup := queries / 10
				warmup -= warmup % max(fan, 1)
				c, err := env.WarmCluster(cluster.New(cluster.Config{
					Servers:     10,
					ArrivalRate: cluster.ArrivalRateForUtilization(0.30, 10, dist.Mean()),
					Queries:     queries,
					Warmup:      warmup,
					Source:      cluster.DistSource{Dist: dist},
					Seed:        sc.Seed*17 + 7,
					FanOut:      fan,
				}))
				if err != nil {
					return err
				}
				base := c.RunDetailed(reissue.None{})
				batch := base.FanOutResponses
				if fan <= 1 {
					batch = base.Log.ResponseTimes()
				}
				// A batch meets its P99 only if every sub-request meets
				// the amplified per-request percentile 0.99^(1/fan) —
				// tune the sub-request policy for that target, not for
				// P99.
				kEff := math.Pow(0.99, 1/float64(max(fan, 1)))
				pol, _, err := reissue.ComputeOptimalSingleR(base.Log.PrimaryTimes(), nil, kEff, 0.10)
				if err != nil {
					return err
				}
				hedged := c.RunDetailed(pol)
				hbatch := hedged.FanOutResponses
				if fan <= 1 {
					hbatch = hedged.Log.ResponseTimes()
				}
				rows[fi] = []float64{float64(fan),
					metrics.TailLatency(base.Log.ResponseTimes(), 99),
					metrics.TailLatency(batch, 99),
					metrics.TailLatency(hbatch, 99),
					hedged.ReissueRate}
				return nil
			},
		})
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "X4",
			Title:   "Fan-out tail amplification and per-sub-request hedging (P99)",
			Columns: []string{"fanout", "request_p99", "batch_p99", "batch_p99_singler", "rate"},
		}
		for _, row := range rows {
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes,
			"hedging recovers the amplified tail while fan-out < servers; once every batch loads every replica (fan-out 20 vs 10 servers) there is no idle server to dodge to and the added reissue load dominates")
		return []*Table{t}, nil
	}
	return j
}

// ExtensionFanOut (X4) reproduces the paper's motivating aggregation
// scenario: a query fans out to k sub-requests and completes when the
// slowest responds. It reports the per-request and per-batch P99 for
// fan-outs 1/5/10/20 at 30% utilization, without hedging and with a
// 10%-budget SingleR policy tuned on the sub-request distribution.
func ExtensionFanOut(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, ExtensionFanOutJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// extensionX3Utils is the utilization sweep of X3.
var extensionX3Utils = []float64{0.30, 0.40}

// ExtensionBurstinessJob decomposes X3 into one point per
// utilization; the MMPP-2 rate-multiplier chain is built once in the
// constructor and shared read-only across points.
func ExtensionBurstinessJob(sc Scale) *Job {
	sc = sc.withDefaults()
	dist := stats.NewExponential(0.1)
	const servers = 10
	bcfg := workload.BurstyConfig{
		MeanCalm: 4000, MeanBurst: 1000, BurstFactor: 3,
		Horizon: 5e6, Seed: sc.Seed,
	}
	mult, multErr := workload.NewBurstyMultiplier(bcfg)
	avg := workload.BurstyMeanMultiplier(bcfg)

	rows := make([][]float64, len(extensionX3Utils))
	j := &Job{Name: "extensionX3"}
	for ri, rho := range extensionX3Utils {
		ri, rho := ri, rho
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("X3/util=%v", rho),
			Run: func(env *sweep.Env) error {
				if multErr != nil {
					return multErr
				}
				poisson, err := env.WarmCluster(cluster.New(cluster.Config{
					Servers:     servers,
					ArrivalRate: cluster.ArrivalRateForUtilization(rho, servers, dist.Mean()),
					Queries:     sc.Queries, Warmup: sc.Queries / 10,
					Source: cluster.DistSource{Dist: dist},
					Seed:   sc.Seed*13 + 5,
				}))
				if err != nil {
					return err
				}
				pBase := metrics.TailLatency(poisson.RunDetailed(reissue.None{}).Log.ResponseTimes(), 99)
				bursty, err := env.WarmCluster(cluster.New(cluster.Config{
					Servers:     servers,
					ArrivalRate: cluster.ArrivalRateForUtilization(rho, servers, dist.Mean()) / avg,
					Queries:     sc.Queries, Warmup: sc.Queries / 10,
					Source:         cluster.DistSource{Dist: dist},
					Seed:           sc.Seed*13 + 5,
					RateMultiplier: mult,
				}))
				if err != nil {
					return err
				}
				bBase := metrics.TailLatency(bursty.RunDetailed(reissue.None{}).Log.ResponseTimes(), 99)
				ar, err := reissue.AdaptiveOptimize(bursty, adaptiveCfg(0.99, 0.05, sc, false))
				if err != nil {
					return err
				}
				rows[ri] = []float64{rho, pBase, bBase, ar.FinalTail()}
				return nil
			},
		})
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "X3",
			Title:   "Bursty (MMPP-2) vs Poisson arrivals at equal average utilization",
			Columns: []string{"util", "p99_poisson", "p99_bursty", "p99_bursty_singler"},
		}
		for _, row := range rows {
			t.AddRow(row...)
		}
		return []*Table{t}, nil
	}
	return j
}

// ExtensionBurstiness (X3) contrasts Poisson and MMPP-2 bursty
// arrivals at equal average load: burstiness deepens the baseline
// tail, and hedging — which cannot dodge a global burst — recovers
// little of it, unlike the server-local interference of the system
// experiments.
func ExtensionBurstiness(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, ExtensionBurstinessJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}
