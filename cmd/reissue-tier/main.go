// Command reissue-tier demonstrates hedging across tiers: a fast but
// fallible cache tier (precomputed kvstore results at a configurable
// hit rate) backed by the slow but authoritative store tier (real set
// intersections). Every query goes to the cache first; misses fall
// through to the store, and with a finite tier-reissue delay the
// store is hedged proactively — the query completes with the first
// tier to produce a valid answer. The command sweeps hit-rate ×
// tier-delay, tunes a within-store reissue policy from each point's
// measured store log, and cross-validates every point against its
// simulator twin (a tier node of internal/cluster.Graph) on the same
// effective traces, the same load, and the same Bernoulli miss
// stream, bit for bit.
//
// Examples:
//
//	# default sweep: hit rates {0.5, 0.85} x tier delays {inf, 4}
//	reissue-tier
//
//	# one hit-heavy point with an aggressive proactive delay
//	reissue-tier -hit-rates 0.9 -tier-delays 2 -sim=false
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
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/reissue"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/tier"
)

type options struct {
	hitRates string // comma-separated sweep, e.g. "0.5,0.85"
	delays   string // comma-separated model-ms, "inf" = pure fall-through
	queries  int
	warmup   int
	cacheR   int
	storeR   int
	slow     float64
	util     float64
	k        float64
	budget   float64 // within-store reissue budget
	unitMS   float64
	minMS    float64
	seed     uint64
	sim      bool
	workers  int
	progress bool
}

// Fixed rate-anchor policies for live-vs-sim agreement, in the dense
// region of each tier's response-time distribution.
var (
	cacheAnchor = reissue.SingleR{D: 2, Q: 0.25}
	storeAnchor = reissue.SingleR{D: 8, Q: 0.25}
)

// sweepPoint carries one (hit-rate, tier-delay) point's headline
// measurements out of run for the tests to assert on.
type sweepPoint struct {
	hitRate, tierDelay      float64
	baseP99, hedgeP99       float64
	hitP99                  float64
	tierRate, storeRate     float64
	simTierRate, simRate    float64
	simBaseP99, simHedgeP99 float64
}

func main() {
	var o options
	flag.StringVar(&o.hitRates, "hit-rates", "0.5,0.85", "comma-separated cache hit rates to sweep")
	flag.StringVar(&o.delays, "tier-delays", "inf,4", "comma-separated tier-reissue delays in model-ms (inf = fall-through only)")
	flag.IntVar(&o.queries, "queries", 1200, "queries per run")
	flag.IntVar(&o.warmup, "warmup", 200, "lead-in queries excluded from statistics")
	flag.IntVar(&o.cacheR, "cache-replicas", 3, "cache-tier replicas")
	flag.IntVar(&o.storeR, "store-replicas", 4, "store-tier replicas")
	flag.Float64Var(&o.slow, "slow", 2.5, "speed factor of each tier's last replica (<=1 for homogeneous)")
	flag.Float64Var(&o.util, "util", 0.28, "target nominal cache-tier utilization")
	flag.Float64Var(&o.k, "k", 0.99, "target percentile")
	flag.Float64Var(&o.budget, "budget", 0.05, "within-store reissue budget (fraction of store sub-queries)")
	flag.Float64Var(&o.unitMS, "unit", 2.0, "wall-clock milliseconds per model millisecond")
	flag.Float64Var(&o.minMS, "min-service", 0, "clamp model service times to at least this (0 = auto)")
	flag.Uint64Var(&o.seed, "seed", 7, "random seed")
	flag.BoolVar(&o.sim, "sim", true, "cross-validate each point against the tiered simulator")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "sweep worker-pool size (live wall-clock points contend for CPU; use 1 for the most faithful timings)")
	flag.BoolVar(&o.progress, "progress", false, "report sweep progress/ETA on stderr")
	flag.Parse()
	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reissue-tier:", err)
		os.Exit(1)
	}
}

func pctl(xs []float64, k float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return metrics.TailLatency(xs, k*100)
}

func parseFloats(spec string, allowInf bool) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if allowInf && strings.EqualFold(part, "inf") {
			out = append(out, math.Inf(1))
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("bad value %q (want non-negative numbers%s)", part,
				map[bool]string{true: ` or "inf"`, false: ""}[allowInf])
		}
		out = append(out, v)
	}
	return out, nil
}

func speeds(replicas int, slow float64) []float64 {
	out := make([]float64, replicas)
	for i := range out {
		out[i] = 1
	}
	if slow > 1 && replicas > 1 {
		out[replicas-1] = slow
	}
	return out
}

func fmtDelay(d float64) string {
	if math.IsInf(d, 1) {
		return "inf"
	}
	return strconv.FormatFloat(d, 'g', -1, 64)
}

func run(o options, out io.Writer) ([]sweepPoint, error) {
	if o.queries <= o.warmup {
		return nil, fmt.Errorf("queries=%d must exceed warmup=%d", o.queries, o.warmup)
	}
	if o.cacheR <= 0 || o.storeR <= 0 {
		return nil, fmt.Errorf("cache-replicas=%d and store-replicas=%d must be positive", o.cacheR, o.storeR)
	}
	hitRates, err := parseFloats(o.hitRates, false)
	if err != nil {
		return nil, fmt.Errorf("-hit-rates: %w", err)
	}
	for _, h := range hitRates {
		if h > 1 {
			return nil, fmt.Errorf("-hit-rates: %v outside [0, 1]", h)
		}
	}
	delays, err := parseFloats(o.delays, true)
	if err != nil {
		return nil, fmt.Errorf("-tier-delays: %w", err)
	}
	unit := time.Duration(o.unitMS * float64(time.Millisecond))
	minMS := o.minMS
	if minMS == 0 {
		sr := backend.MeasureSleepResponse()
		minMS = 1.5 * float64(sr.Floor) / float64(unit)
	}
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 300, NumQueries: o.queries, Seed: o.seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "multi-tier hedging demo: cache %d replicas -> store %d replicas (slow factor %.2g), unit %.2g ms\n",
		o.cacheR, o.storeR, o.slow, o.unitMS)
	fmt.Fprintf(out, "store budget %.3f at P%.0f, nominal cache utilization %.2f, %d queries + %d warmup\n\n",
		o.budget, o.k*100, o.util, o.queries-o.warmup, o.warmup)

	// The (hit-rate × tier-delay) grid flattens to independent sweep
	// points, each writing into its own buffer and result slot;
	// buffers are emitted in grid order after the pool drains, so the
	// report is byte-identical at any worker count. Points run live
	// wall-clock backends, so parallel evaluation trades per-point
	// timing fidelity for throughput.
	type gridPoint struct{ h, d float64 }
	var grid []gridPoint
	for _, h := range hitRates {
		for _, d := range delays {
			grid = append(grid, gridPoint{h, d})
		}
	}
	points := make([]sweepPoint, len(grid))
	bufs := make([]bytes.Buffer, len(grid))
	pts := make([]sweep.Point, len(grid))
	for i, g := range grid {
		pts[i] = sweep.Point{
			Label: fmt.Sprintf("tier/hit=%.2f,delay=%s", g.h, fmtDelay(g.d)),
			Run: func(*sweep.Env) error {
				pt, err := runPoint(o, &bufs[i], w, g.h, g.d, unit, minMS)
				if err != nil {
					return err
				}
				points[i] = *pt
				return nil
			},
		}
	}
	opt := sweep.Options{Workers: o.workers, Name: "tiers"}
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

	fmt.Fprintf(out, "\nsweep summary (end-to-end, model-ms):\n")
	fmt.Fprintf(out, "%5s %7s %14s %14s %12s %10s %10s\n",
		"hit", "delay", "baseline P99", "hedged P99", "change", "tier rate", "hit P99")
	for _, pt := range points {
		fmt.Fprintf(out, "%5.2f %7s %14.1f %14.1f %11.1f%% %10.4f %10.1f\n",
			pt.hitRate, fmtDelay(pt.tierDelay), pt.baseP99, pt.hedgeP99,
			100*(pt.hedgeP99-pt.baseP99)/pt.baseP99, pt.tierRate, pt.hitP99)
	}
	return points, nil
}

// runPoint measures one (hit-rate, tier-delay) point: live baseline,
// fixed rate anchors, a store policy tuned from the baseline's store
// log — and, optionally, the tiered simulator replaying the same
// topology on the same miss stream.
func runPoint(o options, out io.Writer, w *kvstore.Workload, h, d float64, unit time.Duration, minMS float64) (*sweepPoint, error) {
	cw, err := w.CacheView(kvstore.CacheConfig{HitRate: h, Seed: o.seed ^ 0x11})
	if err != nil {
		return nil, err
	}
	cacheBack, err := tier.NewKVCache(cw, backend.Config{
		Replicas: o.cacheR, Unit: unit,
		SpeedFactors: speeds(o.cacheR, o.slow),
		MinServiceMS: minMS,
	})
	if err != nil {
		return nil, err
	}
	storeBack, err := backend.NewKV(w, backend.Config{
		Replicas: o.storeR, Unit: unit,
		SpeedFactors: speeds(o.storeR, o.slow),
		MinServiceMS: minMS,
	})
	if err != nil {
		return nil, err
	}
	lambda := cacheBack.ArrivalRate(o.util)
	fmt.Fprintf(out, "--- hit %.2f, tier delay %s: %.3f queries/model-ms\n", h, fmtDelay(d), lambda)

	sys := &tier.LiveSystem{Cache: cacheBack, Store: storeBack, TierDelay: d,
		N: o.queries, Warmup: o.warmup, Lambda: lambda, Seed: o.seed}
	base := sys.Run(reissue.None{}, reissue.None{})
	pt := &sweepPoint{
		hitRate: h, tierDelay: d,
		baseP99:   pctl(base.Query, o.k),
		tierRate:  base.TierRate,
		hitP99:    hitTail(base.Query, cw.Hits, o.warmup, o.k),
		simRate:   math.NaN(),
		hedgeP99:  math.NaN(),
		storeRate: math.NaN(),
	}
	var pol reissue.Policy = reissue.None{}
	if len(base.Store.Primary) > 0 {
		tuned, _, err := reissue.ComputeOptimalSingleR(base.Store.Primary, nil, o.k, o.budget)
		if err != nil {
			return nil, err
		}
		pol = tuned
		hedged := sys.Run(reissue.None{}, tuned)
		pt.hedgeP99 = pctl(hedged.Query, o.k)
		pt.storeRate = hedged.Store.ReissueRate
	}
	fmt.Fprintf(out, "live: baseline P%.0f=%6.1f -> store-hedged P%.0f=%6.1f model-ms under %v\n",
		o.k*100, pt.baseP99, o.k*100, pt.hedgeP99, pol)
	fmt.Fprintf(out, "live: tier rate %.4f (miss rate %.4f), store reissue rate %.4f (budget %.3f), hit-subpop P%.0f=%6.1f\n",
		base.TierRate, 1-cw.MeasuredHitRate(o.warmup, o.queries), pt.storeRate, o.budget, o.k*100, pt.hitP99)

	if o.sim {
		// The fixed-anchor trial exists only for the live-vs-sim rate
		// check, so it is not run (a full wall-clock open loop) when
		// the simulator pass is disabled.
		fixed := sys.Run(cacheAnchor, storeAnchor)
		// The tiered deployment's twin: a tier node over a cache and
		// a store leaf replaying the shared arrivals and miss stream,
		// the store's coins salted as tier.New salts its store client.
		leaf := func(path string, replicas int, times []float64, policySeed uint64) (cluster.GraphNode, error) {
			return cluster.NewGraphLeaf(path, cluster.Config{
				Servers:      replicas,
				ArrivalRate:  lambda,
				Queries:      o.queries,
				SpeedFactors: speeds(replicas, o.slow),
				LB:           cluster.HashedLB{},
				Seed:         o.seed ^ 0xbeef,
				PolicySeed:   policySeed,
				Source:       &cluster.TraceSource{Times: times},
			})
		}
		cacheLeaf, err := leaf("cache", o.cacheR, cacheBack.EffectiveModelTimes(), 0)
		if err != nil {
			return nil, err
		}
		storeLeaf, err := leaf("store", o.storeR, storeBack.EffectiveModelTimes(), stats.TierSalt())
		if err != nil {
			return nil, err
		}
		root, err := cluster.NewGraphTier("", cacheLeaf, storeLeaf, cw.Hits, d, o.queries)
		if err != nil {
			return nil, err
		}
		sim, err := cluster.NewGraph(root, o.queries-o.warmup, o.warmup)
		if err != nil {
			return nil, err
		}
		run := func(cachePol, storePol reissue.Policy) *cluster.GraphResult {
			return sim.Run(func(path string) reissue.Policy {
				if path == "store" {
					return storePol
				}
				return cachePol
			})
		}
		simBase := run(reissue.None{}, reissue.None{})
		simFixed := run(cacheAnchor, storeAnchor)
		simHedge := run(reissue.None{}, pol)
		pt.simBaseP99 = simBase.TailLatency(o.k)
		pt.simHedgeP99 = simHedge.TailLatency(o.k)
		pt.simTierRate = simBase.TierRates[""]
		pt.simRate = simFixed.LeafRates["store"]
		liveFixedRate := fixed.Store.ReissueRate
		diff := math.Abs(liveFixedRate - pt.simRate)
		tierDiff := math.Abs(base.TierRate - pt.simTierRate)
		fmt.Fprintf(out, "sim:  baseline P%.0f=%6.1f -> store-hedged P%.0f=%6.1f model-ms (same traces, same miss stream)\n",
			o.k*100, pt.simBaseP99, o.k*100, pt.simHedgeP99)
		fmt.Fprintf(out, "sim:  fixed store rate %.4f — |live-sim| %.4f, tier rate %.4f — |live-sim| %.4f (tolerance %.3f)%s\n",
			pt.simRate, diff, pt.simTierRate, tierDiff, metrics.AgreementBand,
			map[bool]string{true: "", false: "  WARNING: beyond tolerance"}[diff <= metrics.AgreementBand && tierDiff <= metrics.AgreementBand])
	}
	return pt, nil
}

// hitTail returns the k-th quantile of the end-to-end responses of
// the hit queries — the subpopulation a proactive tier delay rescues.
func hitTail(query []float64, hits []bool, warmup int, k float64) float64 {
	var sub []float64
	for i, r := range query {
		if hits[warmup+i] {
			sub = append(sub, r)
		}
	}
	return pctl(sub, k)
}
