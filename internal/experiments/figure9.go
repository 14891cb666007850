package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// Figure9Job reproduces the paper's Figure 9: the service-time
// histograms of the Redis set-intersection and Lucene search
// workloads in 20 ms bins (the paper plots counts on a log scale; the
// table reports raw counts per bin). Two points generate the
// workloads (warming the package caches) in parallel; the merge bins
// the cached service times.
func Figure9Job() *Job {
	var redis, lucene []float64
	j := &Job{Name: "figure9"}
	j.Points = []sweep.Point{
		{
			Label: "9/redis",
			Run: func(*sweep.Env) error {
				var err error
				redis, err = RedisServiceTimes()
				return err
			},
		},
		{
			Label: "9/lucene",
			Run: func(*sweep.Env) error {
				var err error
				lucene, err = LuceneServiceTimes()
				return err
			},
		},
	}
	j.Tables = func() ([]*Table, error) {
		const binWidth, bins = 20.0, 12 // 0..240 ms, as in the paper
		hr := stats.NewHistogram(binWidth, bins)
		hr.AddAll(redis)
		hl := stats.NewHistogram(binWidth, bins)
		hl.AddAll(lucene)

		t := &Table{
			ID:      "9",
			Title:   "Service-time histograms (20 ms bins)",
			Columns: []string{"bin_center_ms", "redis_count", "lucene_count"},
		}
		for i := 0; i < bins; i++ {
			t.AddRow(hr.BinCenter(i), float64(hr.Counts[i]), float64(hl.Counts[i]))
		}
		t.AddRow(binWidth*bins+binWidth/2, float64(hr.Overflow), float64(hl.Overflow))

		sr := stats.Summarize(redis)
		sl := stats.Summarize(lucene)
		t.Notes = append(t.Notes,
			fmt.Sprintf("redis: %v (paper: mean 2.366, sd 8.64)", sr),
			fmt.Sprintf("lucene: %v (paper: mean 39.73, sd 21.88)", sl),
			"last row aggregates everything above the final bin",
		)
		return []*Table{t}, nil
	}
	return j
}
