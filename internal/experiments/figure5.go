package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sweep"
	"repro/internal/workload"
	"repro/reissue"
)

// Figure5Rates is the reissue-rate sweep used by Figures 5b and 5c.
var Figure5Rates = []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50}

// figure5aCorrs is the correlation-ratio sweep of Figure 5a.
var figure5aCorrs = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// Figure5aJob decomposes Figure 5a: one point per correlation ratio,
// each computing its own baseline and adaptive policy. The corr-0
// baseline is 5b's Random and 5c's FIFO baseline, computed once when
// they run in one pass.
func Figure5aJob(sc Scale) *Job {
	sc = sc.withDefaults()
	const k, B = 0.95, 0.25

	type out struct{ p95, base float64 }
	outs := make([]out, len(figure5aCorrs))
	j := &Job{Name: "figure5a"}
	for ri, r := range figure5aCorrs {
		ri, r := ri, r
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("5a/corr=%v", r),
			Run: func(env *sweep.Env) error {
				o := workload.Options{Queries: sc.Queries, Seed: sc.Seed}.WithCorr(r)
				var err error
				if outs[ri].base, err = sharedBaselineP95(env, o); err != nil {
					return err
				}
				wl, err := env.WarmCluster(workload.Queueing(o))
				if err != nil {
					return err
				}
				ar, err := reissue.AdaptiveOptimize(wl, adaptiveCfg(k, B, sc, true))
				if err != nil {
					return fmt.Errorf("corr %v: %w", r, err)
				}
				outs[ri].p95 = ar.FinalTail()
				return nil
			},
		})
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{
			ID:      "5a",
			Title:   "P95 vs service-time correlation ratio (B=25%, Queueing workload)",
			Columns: []string{"corr", "p95_singler", "p95_noreissue"},
		}
		for ri, r := range figure5aCorrs {
			t.AddRow(r, outs[ri].p95, outs[ri].base)
		}
		return []*Table{t}, nil
	}
	return j
}

// Figure5a reproduces the paper's Figure 5a: the P95 latency of a
// SingleR policy with a fixed 25% reissue budget on the Queueing
// workload, as the service-time correlation ratio r sweeps from 0 to
// 1. The "No Reissue" baseline is independent of r by construction
// (the correlation only shapes reissue service times).
func Figure5a(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure5aJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// figure5Grid builds the shared Job shape of Figures 5b and 5c: a
// grid of variants (load balancers or disciplines) of the
// uncorrelated Queueing workload crossed with Figure5Rates,
// decomposed into one baseline point per variant plus one point per
// (variant, rate) cell. 5b's Random column and 5c's FIFO column are
// one workload, so a pass that runs both computes its cells once.
func figure5Grid(name, id, title string, columns []string, sc Scale,
	opts func(variant int) workload.Options, variants int,
	variantLabel func(int) string) *Job {

	const k = 0.95
	rows := map[float64][]float64{0: make([]float64, variants)}
	for _, B := range Figure5Rates {
		rows[B] = make([]float64, variants)
	}

	j := &Job{Name: name}
	for vi := 0; vi < variants; vi++ {
		vi := vi
		j.Points = append(j.Points, sweep.Point{
			Label: fmt.Sprintf("%s/%s/base", id, variantLabel(vi)),
			Run: func(env *sweep.Env) error {
				var err error
				rows[0][vi], err = sharedBaselineP95(env, opts(vi))
				return err
			},
		})
		for _, B := range Figure5Rates {
			B := B
			j.Points = append(j.Points, sweep.Point{
				Label: fmt.Sprintf("%s/%s/B=%v", id, variantLabel(vi), B),
				Run: func(env *sweep.Env) error {
					ar, err := sharedAdaptive(env, opts(vi), adaptiveCfg(k, B, sc, false))
					if err != nil {
						return fmt.Errorf("%s budget %v: %w", variantLabel(vi), B, err)
					}
					rows[B][vi] = ar.FinalTail()
					return nil
				},
			})
		}
	}
	j.Tables = func() ([]*Table, error) {
		t := &Table{ID: id, Title: title, Columns: columns}
		t.AddRow(append([]float64{0}, rows[0]...)...)
		for _, B := range Figure5Rates {
			t.AddRow(append([]float64{B}, rows[B]...)...)
		}
		return []*Table{t}, nil
	}
	return j
}

// Figure5bJob decomposes Figure 5b over its three load balancers.
func Figure5bJob(sc Scale) *Job {
	sc = sc.withDefaults()
	lbs := []cluster.LoadBalancer{cluster.RandomLB{}, cluster.MinOfTwoLB{}, cluster.MinOfAllLB{}}
	return figure5Grid("figure5b", "5b",
		"P95 vs reissue rate under different load balancers (Queueing, uncorrelated)",
		[]string{"rate", "random", "min_of_two", "min_of_all"}, sc,
		func(vi int) workload.Options {
			return workload.Options{Queries: sc.Queries, Seed: sc.Seed, LB: lbs[vi]}.WithCorr(0)
		}, len(lbs),
		func(vi int) string { return fmt.Sprintf("%v", lbs[vi]) })
}

// Figure5b reproduces the paper's Figure 5b: the P95 latency of
// SingleR on the (uncorrelated) Queueing workload under three
// load-balancing strategies — Random, Min-of-Two, Min-of-All — for
// reissue rates up to 50%. Rate 0 is the no-reissue baseline.
func Figure5b(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure5bJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// Figure5cJob decomposes Figure 5c over its three queue disciplines.
func Figure5cJob(sc Scale) *Job {
	sc = sc.withDefaults()
	discs := []cluster.Discipline{cluster.FIFO, cluster.PrioFIFO, cluster.PrioLIFO}
	return figure5Grid("figure5c", "5c",
		"P95 vs reissue rate under different queue disciplines (Queueing, uncorrelated)",
		[]string{"rate", "baseline_fifo", "prio_fifo", "prio_lifo"}, sc,
		func(vi int) workload.Options {
			return workload.Options{Queries: sc.Queries, Seed: sc.Seed, Discipline: discs[vi]}.WithCorr(0)
		}, len(discs),
		func(vi int) string { return discs[vi].String() })
}

// Figure5c reproduces the paper's Figure 5c: the P95 latency of
// SingleR on the (uncorrelated) Queueing workload under three queue
// disciplines — Baseline FIFO, Prioritized FIFO, Prioritized LIFO.
func Figure5c(sc Scale) (*Table, error) {
	ts, err := runJobTables(sc, Figure5cJob(sc))
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}
