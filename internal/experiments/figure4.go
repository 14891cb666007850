package experiments

import (
	"fmt"

	"repro/internal/rangequery"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
	"repro/reissue"
)

// Figure4Job decomposes Figure 4 into its two independent panels:
// the Correlated-workload scatter (4a) and the Queueing-workload
// scatter (4b).
func Figure4Job(sc Scale) *Job {
	sc = sc.withDefaults()
	const maxPoints = 2000

	var a, b *Table
	j := &Job{Name: "figure4"}
	j.Points = []sweep.Point{
		{
			Label: "4a/correlated",
			Run: func(env *sweep.Env) error {
				// Figure 3's SingleD(0) probe of the Correlated workload.
				probe, err := sharedProbe(env, CorrelatedWL, sc)
				if err != nil {
					return err
				}
				a = scatterTable("4a", "Correlated workload: primary vs reissue response times",
					probe.pairs, maxPoints)
				return nil
			},
		},
		{
			Label: "4b/queueing",
			Run: func(env *sweep.Env) error {
				queueWL, err := env.WarmCluster(workload.Queueing(workload.Options{
					Queries: sc.Queries, Seed: sc.Seed,
				}))
				if err != nil {
					return err
				}
				// On the finite-server workload reissue only a fraction
				// of queries, immediately, to sample pairs while
				// bounding added load.
				queueRun := queueWL.RunDetailed(reissue.SingleR{D: 0, Q: 0.3})
				b = scatterTable("4b", "Queueing workload: primary vs reissue response times",
					queueRun.Pairs, maxPoints)
				return nil
			},
		},
	}
	j.Tables = func() ([]*Table, error) { return []*Table{a, b}, nil }
	return j
}

// Figure4 reproduces the paper's Figure 4: the joint distribution of
// primary and reissue response times on the Correlated workload (4a)
// and the Queueing workload (4b), demonstrating that queueing delays
// dampen the service-time correlation. Each table is a scatter sample
// of up to maxPoints (primary, reissue) pairs, with the measured
// Pearson correlation in the notes.
func Figure4(sc Scale) (a, b *Table, err error) {
	ts, err := runJobTables(sc, Figure4Job(sc))
	if err != nil {
		return nil, nil, err
	}
	return ts[0], ts[1], nil
}

func scatterTable(id, title string, pairs []rangequery.Point, maxPoints int) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"primary", "reissue"},
	}
	stride := 1
	if len(pairs) > maxPoints {
		stride = len(pairs) / maxPoints
	}
	var xs, ys []float64
	for i, p := range pairs {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
		if i%stride == 0 {
			t.AddRow(p.X, p.Y)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("pairs=%d, pearson=%.3f",
		len(pairs), stats.PearsonCorrelation(xs, ys)))
	return t
}
