// Command reissue-shard demonstrates hedging on the canonical
// production topology of "The Tail at Scale": a partitioned fleet.
// It splits a workload over S shards (each shard a replicated live
// backend serving its slice of the data), fans every query out to
// all shards through reissue/hedge/shard.Router, hedges each shard's
// sub-query independently, and sweeps the shard count — showing how
// the end-to-end (max-over-shards) tail degrades with S under no
// hedging and how a small per-shard reissue budget wins it back
// super-linearly. Each swept topology is cross-validated against its
// simulator twin — a shard node of internal/cluster.Graph — on the
// per-shard effective service-time traces at the same load.
//
// Examples:
//
//	# kv workload, S in {1, 2, 4}, 3 replicas per shard, 5% budget
//	reissue-shard
//
//	# the search workload, one sweep point, no simulator pass
//	reissue-shard -workload search -shards 2 -sim=false
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/searchengine"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/reissue"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/shard"
)

type options struct {
	workload string
	shards   string // comma-separated sweep, e.g. "1,2,4"
	queries  int
	warmup   int
	replicas int
	slow     float64
	util     float64
	k        float64
	budget   float64 // per-shard reissue budget
	unitMS   float64
	minMS    float64
	seed     uint64
	sim      bool
	workers  int
	progress bool
}

// fixedPol is the rate-anchor policy for live-vs-sim agreement: a
// moderate delay in the dense region of the per-shard response-time
// distribution.
var fixedPol = reissue.SingleR{D: 3, Q: 0.25}

// sweepPoint carries one shard count's headline measurements out of
// run for the tests to assert on.
type sweepPoint struct {
	shards                  int
	baseP99, hedgeP99       float64
	meanRate                float64
	fixedLiveRate, simRate  float64
	simBaseP99, simHedgeP99 float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "kv", "sharded workload: kv, search")
	flag.StringVar(&o.shards, "shards", "1,2,4", "comma-separated shard counts to sweep")
	flag.IntVar(&o.queries, "queries", 1500, "queries per run")
	flag.IntVar(&o.warmup, "warmup", 250, "lead-in queries excluded from statistics")
	flag.IntVar(&o.replicas, "replicas", 3, "replicas per shard")
	flag.Float64Var(&o.slow, "slow", 2.5, "speed factor of each shard's last replica (<=1 for homogeneous)")
	flag.Float64Var(&o.util, "util", 0.28, "target nominal utilization per shard")
	flag.Float64Var(&o.k, "k", 0.99, "target percentile")
	flag.Float64Var(&o.budget, "budget", 0.05, "per-shard reissue budget (fraction of sub-queries)")
	flag.Float64Var(&o.unitMS, "unit", 2.0, "wall-clock milliseconds per model millisecond")
	flag.Float64Var(&o.minMS, "min-service", 0, "clamp per-shard model service times to at least this (0 = auto)")
	flag.Uint64Var(&o.seed, "seed", 7, "random seed")
	flag.BoolVar(&o.sim, "sim", true, "cross-validate each sweep point against the sharded simulator")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "sweep worker-pool size (live wall-clock points contend for CPU; use 1 for the most faithful timings)")
	flag.BoolVar(&o.progress, "progress", false, "report sweep progress/ETA on stderr")
	flag.Parse()
	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reissue-shard:", err)
		os.Exit(1)
	}
}

func pctl(xs []float64, k float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return metrics.TailLatency(xs, k*100)
}

func parseShards(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || s <= 0 {
			return nil, fmt.Errorf("bad shard count %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, s)
	}
	return out, nil
}

// partitioned returns the per-shard workload Times and a constructor
// for shard s's live backend — one partition per sweep point.
func partitioned(o options, S int) (mk func(s int, cfg backend.Config) (*backend.Cluster, error), err error) {
	switch o.workload {
	case "kv":
		w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
			NumSets: 300, NumQueries: o.queries, Seed: o.seed,
		})
		if err != nil {
			return nil, err
		}
		parts, err := w.Partition(S)
		if err != nil {
			return nil, err
		}
		return func(s int, cfg backend.Config) (*backend.Cluster, error) {
			return backend.NewKV(parts[s], cfg)
		}, nil
	case "search":
		parts, err := searchengine.GenerateShardedWorkload(searchengine.WorkloadConfig{
			Corpus:     searchengine.CorpusConfig{NumDocs: 4000, VocabSize: 4000, Seed: o.seed},
			NumQueries: o.queries, Seed: o.seed,
		}, S)
		if err != nil {
			return nil, err
		}
		return func(s int, cfg backend.Config) (*backend.Cluster, error) {
			return backend.NewSearch(parts[s], cfg)
		}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want kv or search)", o.workload)
	}
}

func run(o options, out io.Writer) ([]sweepPoint, error) {
	if o.queries <= o.warmup {
		return nil, fmt.Errorf("queries=%d must exceed warmup=%d", o.queries, o.warmup)
	}
	if o.replicas <= 0 {
		return nil, fmt.Errorf("replicas=%d must be positive", o.replicas)
	}
	counts, err := parseShards(o.shards)
	if err != nil {
		return nil, err
	}
	unit := time.Duration(o.unitMS * float64(time.Millisecond))
	minMS := o.minMS
	if minMS == 0 {
		sr := backend.MeasureSleepResponse()
		minMS = 1.5 * float64(sr.Floor) / float64(unit)
	}
	speeds := make([]float64, o.replicas)
	for i := range speeds {
		speeds[i] = 1
	}
	if o.slow > 1 && o.replicas > 1 {
		speeds[o.replicas-1] = o.slow
	}
	fmt.Fprintf(out, "sharded fan-out demo: %s workload, %d replicas/shard (slow factor %.2g), unit %.2g ms\n",
		o.workload, o.replicas, o.slow, o.unitMS)
	fmt.Fprintf(out, "per-shard budget %.3f at P%.0f, nominal utilization %.2f, %d queries + %d warmup\n\n",
		o.budget, o.k*100, o.util, o.queries-o.warmup, o.warmup)

	// Each shard count is an independent sweep point writing into its
	// own buffer and result slot; after the pool drains, buffers are
	// emitted in sweep order, so the report is byte-identical at any
	// worker count. Points run live wall-clock backends, so parallel
	// evaluation trades per-point timing fidelity for throughput.
	points := make([]sweepPoint, len(counts))
	bufs := make([]bytes.Buffer, len(counts))
	pts := make([]sweep.Point, len(counts))
	for i, S := range counts {
		pts[i] = sweep.Point{
			Label: fmt.Sprintf("shard/S=%d", S),
			Run: func(*sweep.Env) error {
				pt, err := runPoint(o, &bufs[i], S, unit, minMS, speeds)
				if err != nil {
					return err
				}
				points[i] = *pt
				return nil
			},
		}
	}
	opt := sweep.Options{Workers: o.workers, Name: "shards"}
	if o.progress {
		opt.Progress = os.Stderr
	}
	if err := sweep.Run(pts, opt); err != nil {
		return nil, err
	}
	for i := range bufs {
		if _, err := bufs[i].WriteTo(out); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(out, "\nsweep summary (end-to-end max-over-shards, model-ms):\n")
	fmt.Fprintf(out, "%8s %14s %14s %12s %14s\n", "shards", "baseline P99", "hedged P99", "change", "mean rate")
	for _, pt := range points {
		fmt.Fprintf(out, "%8d %14.1f %14.1f %11.1f%% %14.4f\n",
			pt.shards, pt.baseP99, pt.hedgeP99, 100*(pt.hedgeP99-pt.baseP99)/pt.baseP99, pt.meanRate)
	}
	return points, nil
}

// runPoint measures one shard count: live baseline, fixed rate
// anchor, tuned per-shard policy, and (optionally) the sharded
// simulator replaying the same topology.
func runPoint(o options, out io.Writer, S int, unit time.Duration, minMS float64, speeds []float64) (*sweepPoint, error) {
	mk, err := partitioned(o, S)
	if err != nil {
		return nil, err
	}
	srcs := make([]backend.Source, S)
	simTraces := make([][]float64, S)
	var lambda float64
	for s := 0; s < S; s++ {
		back, err := mk(s, backend.Config{
			Replicas:     o.replicas,
			Unit:         unit,
			SpeedFactors: speeds,
			MinServiceMS: minMS,
		})
		if err != nil {
			return nil, err
		}
		srcs[s] = back
		simTraces[s] = back.EffectiveModelTimes()
		if s == 0 {
			lambda = back.ArrivalRate(o.util)
		}
	}
	fmt.Fprintf(out, "--- S=%d: fan-out over %d shards × %d replicas at %.3f queries/model-ms\n",
		S, S, o.replicas, lambda)

	sys := &shard.LiveSystem{Shards: srcs, N: o.queries, Warmup: o.warmup, Lambda: lambda, Seed: o.seed}
	base := sys.Run(reissue.None{})
	fixed := sys.Run(fixedPol)
	var pooled []float64
	for s := 0; s < S; s++ {
		pooled = append(pooled, base.PerShard[s].Primary...)
	}
	pol, _, err := reissue.ComputeOptimalSingleR(pooled, nil, o.k, o.budget)
	if err != nil {
		return nil, err
	}
	hedged := sys.Run(pol)

	pt := &sweepPoint{
		shards:        S,
		baseP99:       pctl(base.Query, o.k),
		hedgeP99:      pctl(hedged.Query, o.k),
		meanRate:      hedged.MeanRate,
		fixedLiveRate: fixed.MeanRate,
		simRate:       math.NaN(),
	}
	fmt.Fprintf(out, "live: baseline P%.0f=%6.1f -> hedged P%.0f=%6.1f model-ms under %v\n",
		o.k*100, pt.baseP99, o.k*100, pt.hedgeP99, pol)
	fmt.Fprintf(out, "live: mean per-shard reissue rate %.4f (budget %.3f), fixed-anchor rate %.4f\n",
		hedged.MeanRate, o.budget, fixed.MeanRate)

	if o.sim {
		// The sharded deployment's twin: one leaf fleet per shard
		// under a shard node, every leaf replaying the shared
		// arrivals, with shard s > 0's streams salted as shard.New
		// salts its coins.
		children := make([]cluster.GraphNode, S)
		for s := range simTraces {
			cfg := cluster.Config{
				Servers:      o.replicas,
				ArrivalRate:  lambda,
				Queries:      o.queries,
				SpeedFactors: speeds,
				LB:           cluster.HashedLB{},
				Seed:         o.seed ^ 0xbeef,
				Source:       &cluster.TraceSource{Times: simTraces[s]},
			}
			if s > 0 {
				cfg.PolicySeed = stats.ShardSalt(s)
				cfg.ServiceSeed = stats.ShardSalt(s)
			}
			if children[s], err = cluster.NewGraphLeaf(shardPath(s), cfg); err != nil {
				return nil, err
			}
		}
		root, err := cluster.NewGraphShard("", o.queries, children...)
		if err != nil {
			return nil, err
		}
		sim, err := cluster.NewGraph(root, o.queries-o.warmup, o.warmup)
		if err != nil {
			return nil, err
		}
		run := func(p reissue.Policy) *cluster.GraphResult {
			return sim.Run(func(string) reissue.Policy { return p })
		}
		simBase := run(reissue.None{})
		simFixed := run(fixedPol)
		simHedge := run(pol)
		pt.simRate = meanRate(simFixed, S)
		pt.simBaseP99 = simBase.TailLatency(o.k)
		pt.simHedgeP99 = simHedge.TailLatency(o.k)
		diff := math.Abs(pt.fixedLiveRate - pt.simRate)
		fmt.Fprintf(out, "sim:  baseline P%.0f=%6.1f -> hedged P%.0f=%6.1f model-ms (same trace, same load)\n",
			o.k*100, pt.simBaseP99, o.k*100, pt.simHedgeP99)
		fmt.Fprintf(out, "sim:  fixed-anchor rate %.4f — |live-sim| %.4f (tolerance %.3f)%s\n",
			pt.simRate, diff, metrics.AgreementBand,
			map[bool]string{true: "", false: "  WARNING: beyond tolerance"}[diff <= metrics.AgreementBand])
	}
	return pt, nil
}

// shardPath names shard s's leaf in the simulator graph.
func shardPath(s int) string { return fmt.Sprintf("shard%d", s) }

// meanRate is a sharded simulator run's mean per-shard reissue rate,
// the live router's MeanRate statistic.
func meanRate(r *cluster.GraphResult, shards int) float64 {
	m := 0.0
	for s := 0; s < shards; s++ {
		m += r.LeafRates[shardPath(s)] / float64(shards)
	}
	return m
}
