package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
	"repro/reissue"
)

// figure2Budget is the reissue budget of Figures 2a and 2b.
const figure2Budget = 0.30

// figure2Adaptive runs the adaptive SingleR loop Figures 2a and 2b
// both plot — P95, a 30% budget, lambda = 0.2, correlated — once per
// sweep pass. The paper plots 10 trials and lambda = 0.2 needs ~6-10
// to converge, so smaller scales are rounded up to 10 trials.
func figure2Adaptive(env *sweep.Env, sc Scale) (reissue.AdaptiveResult, error) {
	return sharedAdaptive(env, workload.Options{Queries: sc.Queries, Seed: sc.Seed},
		reissue.AdaptiveConfig{
			K: 0.95, B: figure2Budget, Lambda: 0.2, Trials: max(sc.AdaptiveTrials, 10), Correlated: true,
		})
}

// Figure2aJob decomposes Figure 2a into two independent points: the
// no-reissue baseline run and the adaptive-policy run. Both rebuild
// the same Queueing workload from the Scale, so the split reproduces
// the sequential harness exactly; the adaptive run is Figure 2b's,
// computed once when both figures run in one pass.
func Figure2aJob(sc Scale) *Job {
	sc = sc.withDefaults()

	var baseResp []float64
	var ar reissue.AdaptiveResult
	j := &Job{Name: "figure2a"}
	j.Points = []sweep.Point{
		{
			Label: "2a/base",
			Run: func(env *sweep.Env) error {
				wl, err := env.WarmCluster(workload.Queueing(workload.Options{
					Queries: sc.Queries, Seed: sc.Seed,
				}))
				if err != nil {
					return err
				}
				baseResp = wl.RunDetailed(reissue.None{}).Log.ResponseTimes()
				return nil
			},
		},
		{
			Label: "2a/adaptive",
			Run: func(env *sweep.Env) error {
				var err error
				ar, err = figure2Adaptive(env, sc)
				return err
			},
		},
	}
	j.Tables = func() ([]*Table, error) {
		run := ar.Final
		ps := make([]float64, 0, 38)
		for p := 0.60; p <= 0.975; p += 0.01 {
			ps = append(ps, p)
		}
		orig := metrics.InverseCDFSeries(baseResp, ps)
		pol := metrics.InverseCDFSeries(run.Query, ps)
		reis := metrics.InverseCDFSeries(run.Reissue, ps)
		prim := metrics.InverseCDFSeries(run.Primary, ps)

		t := &Table{
			ID:      "2a",
			Title:   "Inverse CDF of the Queueing workload under SingleR with a 30% budget",
			Columns: []string{"cdf", "original", "singler", "reissue", "primary"},
			Notes: []string{
				fmt.Sprintf("final policy %v, measured reissue rate %.3f",
					ar.Policy, ar.Trials[len(ar.Trials)-1].ReissueRate),
			},
		}
		for i, p := range ps {
			t.AddRow(p, orig[i], pol[i], reis[i], prim[i])
		}
		return []*Table{t}, nil
	}
	return j
}

// Figure2a reproduces the paper's Figure 2a: inverse CDFs of the
// Queueing workload's response times with and without a SingleR
// policy using a 30% reissue budget — Original (no reissue), SingleR
// (end-to-end under the policy), Reissue (reissue requests' own
// response times), and Primary (primary requests under the policy,
// showing how dramatically the added load shifts the distribution).
func Figure2a(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure2aJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// Figure2bJob decomposes Figure 2b: a single point running the
// adaptive optimizer and a merge rendering its per-trial trace.
func Figure2bJob(sc Scale) *Job {
	sc = sc.withDefaults()

	var ar reissue.AdaptiveResult
	j := &Job{Name: "figure2b"}
	j.Points = []sweep.Point{{
		Label: "2b/adaptive",
		Run: func(env *sweep.Env) error {
			var err error
			ar, err = figure2Adaptive(env, sc)
			return err
		},
	}}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "2b",
			Title:   "Adaptive SingleR convergence (lambda=0.2, B=30%, P95)",
			Columns: []string{"trial", "predicted", "actual"},
		}
		for _, tr := range ar.Trials {
			t.AddRow(float64(tr.Trial), tr.Predicted, tr.Actual)
		}
		converged := ar.Converged(figure2Budget, 0.15)
		t.Notes = append(t.Notes, fmt.Sprintf("converged(15%% tolerance)=%v, final policy %v",
			converged, ar.Policy))
		return []*Table{t}, nil
	}
	return j
}

// Figure2b reproduces the paper's Figure 2b: the predicted and actual
// 95th-percentile latency on each trial of the adaptive SingleR
// optimizer (learning rate 0.2, 30% budget) on the Queueing workload.
func Figure2b(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure2bJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}
