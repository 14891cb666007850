// Command reissue-infer sweeps the inference-serving workload
// (internal/inference) over batch size × load: every point stands up
// live batched replicas executing real token-mixing work through the
// shared scheduling core (internal/sched), measures reissue rate and
// tail latency under a fixed hedging policy, and cross-validates the
// reissue rate against a simulator twin (internal/cluster) running
// the identical trace, arrival rate, and batch configuration. It is
// the batched-regime sibling of cmd/reissue-chaos: DIVERGE verdicts
// flag sim/live disagreement beyond the shared 0.025 band.
//
//	go run ./cmd/reissue-infer -batch-sizes 1,4 -utils 0.4,0.6
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/inference"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/reissue"
	"repro/reissue/hedge/backend"
)

type options struct {
	batchSizes string
	utils      string
	queries    int
	warmup     int
	replicas   int
	lingerMS   float64
	unitMS     float64
	seed       uint64
	d          float64
	q          float64
	sim        bool
}

// point is one (batch size, utilization) sweep cell.
type point struct {
	size int
	util float64

	liveP50, liveP99, liveReissue float64
	simP50, simP99, simReissue    float64
	reissueDiff                   float64
	agree                         bool
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("reissue-infer: bad batch size %q", f)
		}
		if v < 1 {
			return nil, fmt.Errorf("reissue-infer: batch size %d must be >= 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("reissue-infer: bad utilization %q", f)
		}
		if v <= 0 || v >= 1 {
			return nil, fmt.Errorf("reissue-infer: utilization %v outside (0, 1)", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(o options, w io.Writer) ([]point, error) {
	sizes, err := parseInts(o.batchSizes)
	if err != nil {
		return nil, err
	}
	utils, err := parseFloats(o.utils)
	if err != nil {
		return nil, err
	}
	if o.warmup < 0 || o.warmup >= o.queries {
		return nil, fmt.Errorf("reissue-infer: warmup %d outside [0, queries=%d)", o.warmup, o.queries)
	}
	wl, err := inference.Generate(inference.Config{Requests: o.queries, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	pol := reissue.SingleR{D: o.d, Q: o.q}
	fmt.Fprintf(w, "inference sweep: %d replicas, %d queries (%d warmup), mean solo service %.2f model ms, policy %v\n",
		o.replicas, o.queries, o.warmup, wl.MeanServiceMS(), pol)

	var pts []point
	for _, size := range sizes {
		for _, util := range utils {
			pt, err := runPoint(o, wl, pol, size, util, w)
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
		}
	}
	if o.sim {
		agreed := 0
		for _, p := range pts {
			if p.agree {
				agreed++
			}
		}
		fmt.Fprintf(w, "sweep summary: %d/%d points agree sim-vs-live within %.3f\n",
			agreed, len(pts), metrics.AgreementBand)
	}
	return pts, nil
}

func runPoint(o options, wl *inference.Workload, pol reissue.Policy, size int, util float64, w io.Writer) (point, error) {
	bcfg := wl.BatchConfig(size, o.lingerMS)
	back, err := wl.NewLive(backend.Config{
		Replicas:     o.replicas,
		Unit:         time.Duration(o.unitMS * float64(time.Millisecond)),
		MinServiceMS: 1,
		Discipline:   sched.Batch,
		Batch:        bcfg,
	})
	if err != nil {
		return point{}, err
	}
	lambda := back.ArrivalRate(util)
	sys := &backend.LiveSystem{
		Back: back, N: o.queries, Warmup: o.warmup,
		Lambda: lambda, Seed: o.seed,
	}
	live, err := sys.RunContext(context.Background(), pol)
	if err != nil {
		return point{}, fmt.Errorf("reissue-infer: B=%d util=%.2f live: %w", size, util, err)
	}
	pt := point{
		size: size, util: util,
		liveP50: live.TailLatency(0.50), liveP99: live.TailLatency(0.99),
		liveReissue: live.ReissueRate,
		agree:       true,
		reissueDiff: math.NaN(),
	}
	fmt.Fprintf(w, "B=%d util=%.2f\n", size, util)
	fmt.Fprintf(w, "  live: reissue %.4f  p50 %.1f ms  p99 %.1f ms\n",
		pt.liveReissue, pt.liveP50, pt.liveP99)
	if o.sim {
		c, err := cluster.New(cluster.Config{
			Servers:     o.replicas,
			ArrivalRate: lambda,
			Queries:     o.queries - o.warmup,
			Warmup:      o.warmup,
			Source:      inference.TraceSource(back.EffectiveModelTimes()),
			Discipline:  cluster.Batch,
			Batch:       bcfg,
			Seed:        o.seed,
		})
		if err != nil {
			return point{}, fmt.Errorf("reissue-infer: B=%d util=%.2f sim: %w", size, util, err)
		}
		sim := c.Run(pol)
		pt.simP50, pt.simP99 = sim.TailLatency(0.50), sim.TailLatency(0.99)
		pt.simReissue = sim.ReissueRate
		pt.reissueDiff = math.Abs(pt.liveReissue - pt.simReissue)
		pt.agree = pt.reissueDiff <= metrics.AgreementBand
		verdict := "agree"
		if !pt.agree {
			verdict = "DIVERGE"
		}
		fmt.Fprintf(w, "  sim:  reissue %.4f  p50 %.1f ms  p99 %.1f ms\n",
			pt.simReissue, pt.simP50, pt.simP99)
		fmt.Fprintf(w, "  cross-validation: %s (|reissue d| %.4f, band %.3f)\n",
			verdict, pt.reissueDiff, metrics.AgreementBand)
	}
	return pt, nil
}

func main() {
	var o options
	flag.StringVar(&o.batchSizes, "batch-sizes", "1,2,4,8", "comma-separated batch sizes to sweep")
	flag.StringVar(&o.utils, "utils", "0.4,0.6", "comma-separated target utilizations against solo capacity, each in (0, 1)")
	flag.IntVar(&o.queries, "queries", 900, "queries per point, including warmup")
	flag.IntVar(&o.warmup, "warmup", 150, "lead-in queries excluded from statistics")
	flag.IntVar(&o.replicas, "replicas", 3, "number of replica servers")
	flag.Float64Var(&o.lingerMS, "linger", 2.0, "batch linger window in model ms (0 = launch immediately)")
	flag.Float64Var(&o.unitMS, "unit", 0.5, "wall-clock milliseconds per model millisecond")
	flag.Uint64Var(&o.seed, "seed", 29, "base RNG seed")
	flag.Float64Var(&o.d, "d", 12, "fixed SingleR reissue delay in model ms")
	flag.Float64Var(&o.q, "q", 0.2, "fixed SingleR reissue probability")
	flag.BoolVar(&o.sim, "sim", true, "cross-validate each point against the cluster simulator")
	flag.Parse()

	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
