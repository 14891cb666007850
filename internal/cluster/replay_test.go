package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

// identicalRun fails unless two results agree in every field, bit for
// bit up to float equality (a NaN utilization matches NaN).
func identicalRun(t *testing.T, label string, want, got *Result) {
	t.Helper()
	w, g := *want, *got
	if math.IsNaN(w.Utilization) && math.IsNaN(g.Utilization) {
		w.Utilization, g.Utilization = 0, 0
	}
	if !reflect.DeepEqual(w, g) {
		sameRun(t, label, want, got) // names the first differing response, if any
		t.Fatalf("%s: results differ outside the response log", label)
	}
}

// replayPolicies is a run sequence that changes the policy every run,
// so a replayed workload meets dispatch patterns it was not drawn
// under.
var replayPolicies = []reissue.Policy{
	reissue.None{},
	reissue.SingleR{D: 5, Q: 0.3},
	reissue.SingleD{D: 12},
	reissue.None{},
	reissue.SingleR{D: 0, Q: 0.1},
}

// TestRunReplaysDrawnWorkload pins common random numbers across the
// replay: every run of one Cluster equals the same policy's run on a
// fresh Cluster, in every configuration the draw depends on. It also
// pins which configurations replay.
func TestRunReplaysDrawnWorkload(t *testing.T) {
	schedule := make([]float64, 880)
	for i := range schedule {
		schedule[i] = 2.5*float64(i) + 2*math.Sin(float64(i))
		if i > 0 && schedule[i] < schedule[i-1] {
			schedule[i] = schedule[i-1]
		}
	}
	with := func(edit func(*Config)) Config {
		cfg := queueingCfg(5)
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name   string
		cfg    Config
		replay bool
	}{
		{"queueing", queueingCfg(5), true},
		{"fan-out", with(func(c *Config) { c.FanOut = 4 }), true},
		{"rate-multiplier", with(func(c *Config) {
			c.RateMultiplier = func(t float64) float64 { return 1 + 0.5*math.Sin(t/200) }
		}), true},
		{"interference", with(func(c *Config) {
			c.Interference = &Interference{Rate: 0.01, MeanDuration: 20, Factor: 4}
		}), true},
		{"faults", with(func(c *Config) {
			c.LB = HashedLB{}
			c.Faults = &FaultPlan{
				Profiles: []fault.Profile{
					{Replica: 1, Kind: fault.ErrorRate, Rate: 0.3, Seed: 9},
					{Replica: 2, Kind: fault.Slow, Factor: 3, From: 200},
				},
				BreakerThreshold: 4,
				BreakerCooldown:  50,
			}
		}), true},
		{"arrival-times", with(func(c *Config) { c.ArrivalTimes = schedule }), true},
		{"infinite-servers", Config{Queries: 500, Source: DistSource{Dist: stats.NewPareto(1, 1.1), Corr: 0.5}, Seed: 3}, true},
		{"cancel-on-complete", with(func(c *Config) { c.CancelOnComplete = true }), true},
		{"trace-source", with(func(c *Config) {
			c.Source = &TraceSource{Times: []float64{3, 14, 1, 5, 9, 2, 6}}
		}), false},
		{"fresh-per-run", with(func(c *Config) { c.FreshPerRun = true }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCluster(t, tc.cfg)
			for k, p := range replayPolicies {
				got := c.RunDetailed(p)
				ref := tc.cfg
				if ref.FreshPerRun {
					// Run k+1 of c reseeds to Seed+(k+1)·step; the first
					// run of a fresh Cluster seeded k steps later does
					// the same without any earlier run.
					ref.Seed += uint64(k) * 0x9e3779b9
				}
				want := mustCluster(t, ref).RunDetailed(p)
				identicalRun(t, fmt.Sprintf("run %d (%v)", k, p), want, got)
				if c.rs.drawn != tc.replay {
					t.Fatalf("run %d: drawn = %v, want %v", k, c.rs.drawn, tc.replay)
				}
			}
		})
	}

	t.Run("after-adopt", func(t *testing.T) {
		// The donor's draw sits in the adopted query records; the
		// adopter must draw its own workload before it replays.
		donor := mustCluster(t, queueingCfg(7))
		donor.RunDetailed(reissue.None{})
		c := mustCluster(t, queueingCfg(9))
		c.AdoptState(donor)
		if c.rs.drawn {
			t.Fatal("adopted state still marked drawn")
		}
		for k, p := range replayPolicies {
			want := mustCluster(t, queueingCfg(9)).RunDetailed(p)
			identicalRun(t, fmt.Sprintf("run %d (%v)", k, p), want, c.RunDetailed(p))
		}
		// The donor lost its engine, so it draws again too.
		identicalRun(t, "donor", mustCluster(t, queueingCfg(7)).RunDetailed(reissue.None{}), donor.RunDetailed(reissue.None{}))
	})

	t.Run("graph-leaf-after-mask", func(t *testing.T) {
		// A tier's store leaf samples through its shield mask, which
		// each run rewrites from the cache's answers: the leaf's
		// source is no DistSource, so it draws every run.
		base := Config{
			Servers: 3, ArrivalRate: ArrivalRateForUtilization(0.4, 3, 10),
			Queries: 600, Warmup: 60, Seed: 13,
		}
		hits := make([]bool, base.Queries+base.Warmup)
		r := stats.NewRNG(4)
		for i := range hits {
			hits[i] = r.Bool(0.6)
		}
		build := func() *Graph {
			g, err := buildTierGraph(base,
				DistSource{Dist: stats.NewExponential(0.5)},
				DistSource{Dist: stats.NewExponential(0.1)}, hits, 4)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		g := build()
		for k, p := range replayPolicies {
			pols := tierPols(replayPolicies[len(replayPolicies)-1-k], p)
			want := build().Run(pols)
			if got := g.Run(pols); !reflect.DeepEqual(want, got) {
				t.Fatalf("run %d: graph result differs from a fresh graph's", k)
			}
		}
		tier := g.root.(*GraphTier)
		for _, leaf := range []GraphNode{tier.cache, tier.store} {
			if l := leaf.(*GraphLeaf); l.cluster.rs.drawn {
				t.Fatalf("%s leaf replays through its mask", l.path)
			}
		}
	})
}

// TestReplayedRunAllocs pins that replay costs no allocation: a
// replayed run allocates no more than a run that draws its workload
// on an equally warm engine.
func TestReplayedRunAllocs(t *testing.T) {
	pol := reissue.SingleR{D: 5, Q: 0.3}
	fresh := queueingCfg(7)
	fresh.FreshPerRun = true
	drawing := mustCluster(t, fresh)
	drawing.RunDetailed(pol)
	drawn := testing.AllocsPerRun(5, func() { drawing.RunDetailed(pol) })

	replaying := mustCluster(t, queueingCfg(7))
	replaying.RunDetailed(pol)
	if !replaying.rs.drawn {
		t.Fatal("common-random-numbers cluster does not replay")
	}
	replayed := testing.AllocsPerRun(5, func() { replaying.RunDetailed(pol) })
	if replayed > drawn {
		t.Fatalf("replayed run allocates %.0f/run, drawn run %.0f/run", replayed, drawn)
	}
}
