// Command reissue-topo demonstrates topology composition: a named
// service graph — a cache tier over a sharded store, or a fan-out of
// per-shard cache tiers — is built ONCE from a declarative spec in
// both worlds (the live wall-clock system wired from Source
// combinators, and its virtual-time cluster twin composed
// identically), then swept over hit-rate × tier-delay. Every point
// runs a baseline and a fixed-anchor trial live, and cross-validates
// the per-edge reissue rates and the end-to-end tail against the
// simulator twin replaying the same arrivals, the same effective
// traces, and the same Bernoulli hit streams.
//
// Examples:
//
//	# default sweep: cache tier over a 2-shard store
//	reissue-topo
//
//	# the other composition order, one point, no simulator pass
//	reissue-topo -topo sharded-tiers -hit-rates 0.7 -tier-delays inf -sim=false
//
//	# put the store fleets behind the HTTP transport
//	reissue-topo -http
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/reissue"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/topo"
)

type options struct {
	shape    string // named composition: "tier-over-shards" or "sharded-tiers"
	shards   int
	cacheR   int
	storeR   int
	slow     float64
	http     bool
	hitRates string
	delays   string
	queries  int
	warmup   int
	util     float64
	k        float64
	unitMS   float64
	minMS    float64
	seed     uint64
	sim      bool
	workers  int
	progress bool
}

// Fixed rate anchors for the live-vs-sim check: cache fleets answer
// fast, so their anchor deadline sits earlier than the store fleets'.
var (
	cacheAnchor = reissue.SingleR{D: 2, Q: 0.25}
	storeAnchor = reissue.SingleR{D: 4, Q: 0.25}
)

// sweepPoint carries one (hit-rate, tier-delay) point's headline
// measurements out of run for the tests to assert on.
type sweepPoint struct {
	hitRate, tierDelay   float64
	basePk, anchPk       float64
	simBasePk, simAnchPk float64
	tierDiff             float64 // max |live-sim| over tier nodes, base run
	leafDiff             float64 // max |live-sim| over fleet slots, anchored run
	warn                 bool
}

func main() {
	var o options
	flag.StringVar(&o.shape, "topo", "tier-over-shards", `named composition: "tier-over-shards" (cache tier shielding a sharded store) or "sharded-tiers" (fan-out of per-shard cache tiers)`)
	flag.IntVar(&o.shards, "shards", 2, "shard fan-out width")
	flag.IntVar(&o.cacheR, "cache-replicas", 2, "replicas per cache fleet")
	flag.IntVar(&o.storeR, "store-replicas", 3, "replicas per store fleet")
	flag.Float64Var(&o.slow, "slow", 2.5, "speed factor of each store fleet's last replica (<=1 for homogeneous)")
	flag.BoolVar(&o.http, "http", false, "serve the store fleets behind the HTTP transport")
	// The defaults keep every fleet inside the validated agreement
	// envelope: hit rates low enough that the store fleets see enough
	// traffic for their anchored rates to be estimated from more than
	// a handful of coin events, and a wall-clock unit large enough
	// that the cache anchor's deadline clears the kernel-sleep jitter
	// band (see the topo agreement test's conventions).
	flag.StringVar(&o.hitRates, "hit-rates", "0.5,0.65", "comma-separated cache hit rates to sweep")
	flag.StringVar(&o.delays, "tier-delays", "inf,4", "comma-separated tier-reissue delays in model-ms (inf = fall-through only)")
	flag.IntVar(&o.queries, "queries", 1000, "queries per run")
	flag.IntVar(&o.warmup, "warmup", 150, "lead-in queries excluded from statistics")
	flag.Float64Var(&o.util, "util", 0.28, "target nominal utilization at the first fleet (alphabetically)")
	flag.Float64Var(&o.k, "k", 0.99, "target percentile")
	flag.Float64Var(&o.unitMS, "unit", 3.0, "wall-clock milliseconds per model millisecond")
	flag.Float64Var(&o.minMS, "min-service", 0, "clamp model service times to at least this (0 = auto)")
	flag.Uint64Var(&o.seed, "seed", 7, "random seed")
	flag.BoolVar(&o.sim, "sim", true, "cross-validate each point against the simulator twin")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "sweep worker-pool size (live wall-clock points contend for CPU; use 1 for the most faithful timings)")
	flag.BoolVar(&o.progress, "progress", false, "report sweep progress/ETA on stderr")
	flag.Parse()
	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reissue-topo:", err)
		os.Exit(1)
	}
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
	if slow <= 1 || replicas <= 1 {
		return nil
	}
	out := make([]float64, replicas)
	for i := range out {
		out[i] = 1
	}
	out[replicas-1] = slow
	return out
}

func fmtDelay(d float64) string {
	if math.IsInf(d, 1) {
		return "inf"
	}
	return strconv.FormatFloat(d, 'g', -1, 64)
}

// buildSpec assembles the named composition at one (hit-rate,
// tier-delay) grid point.
func buildSpec(o options, hit, delay float64) (topo.Spec, error) {
	cache := topo.FleetSpec{Replicas: o.cacheR}
	store := topo.FleetSpec{Replicas: o.storeR, SpeedFactors: speeds(o.storeR, o.slow), HTTP: o.http}
	switch o.shape {
	case "tier-over-shards":
		return topo.Spec{Tier: &topo.TierSpec{
			HitRate:   hit,
			TierDelay: delay,
			Cache:     cache,
			Store:     topo.Spec{Shard: &topo.ShardSpec{N: o.shards, Child: topo.Spec{Fleet: &store}}},
		}}, nil
	case "sharded-tiers":
		return topo.Spec{Shard: &topo.ShardSpec{N: o.shards, Child: topo.Spec{Tier: &topo.TierSpec{
			HitRate:   hit,
			TierDelay: delay,
			Cache:     cache,
			Store:     topo.Spec{Fleet: &store},
		}}}}, nil
	default:
		return topo.Spec{}, fmt.Errorf("-topo: unknown composition %q (want tier-over-shards or sharded-tiers)", o.shape)
	}
}

// slotPath collapses every shard<k> segment of a concrete fleet path
// to the "shard" slot the policy map is keyed by.
func slotPath(p string) string {
	segs := strings.Split(p, "/")
	for i, s := range segs {
		var k int
		if n, err := fmt.Sscanf(s, "shard%d", &k); n == 1 && err == nil && s == fmt.Sprintf("shard%d", k) {
			segs[i] = "shard"
		}
	}
	return strings.Join(segs, "/")
}

// anchors assigns the fixed rate-anchor policy to every fleet slot:
// the cache anchor on cache fleets, the store anchor elsewhere.
func anchors(fleetPaths []string) map[string]reissue.Policy {
	out := make(map[string]reissue.Policy)
	for _, p := range fleetPaths {
		slot := slotPath(p)
		if strings.HasSuffix(slot, "cache") {
			out[slot] = cacheAnchor
		} else {
			out[slot] = storeAnchor
		}
	}
	return out
}

func run(o options, out io.Writer) ([]sweepPoint, error) {
	if o.queries <= o.warmup {
		return nil, fmt.Errorf("queries=%d must exceed warmup=%d", o.queries, o.warmup)
	}
	if _, err := buildSpec(o, 0.5, 1); err != nil {
		return nil, err
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
	fmt.Fprintf(out, "topology composition demo: %s, %d shards, cache %d replicas, store %d replicas (slow factor %.2g)%s, unit %.2g ms\n",
		o.shape, o.shards, o.cacheR, o.storeR, o.slow,
		map[bool]string{true: ", store over HTTP", false: ""}[o.http], o.unitMS)
	fmt.Fprintf(out, "target P%.0f, nominal utilization %.2f at the first fleet, %d queries + %d warmup\n\n",
		o.k*100, o.util, o.queries-o.warmup, o.warmup)

	// The (hit-rate × tier-delay) grid flattens to independent sweep
	// points, each writing into its own buffer and result slot;
	// buffers are emitted in grid order after the pool drains, so the
	// report is byte-identical at any worker count.
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
			Label: fmt.Sprintf("topo/hit=%.2f,delay=%s", g.h, fmtDelay(g.d)),
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
	opt := sweep.Options{Workers: o.workers, Name: "topo"}
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
	fmt.Fprintf(out, "%5s %7s %14s %14s %13s %13s\n",
		"hit", "delay", "baseline Pk", "anchored Pk", "sim baseline", "sim anchored")
	for _, pt := range points {
		warn := ""
		if pt.warn {
			warn = "  WARNING: rate beyond tolerance"
		}
		fmt.Fprintf(out, "%5.2f %7s %14.1f %14.1f %13.1f %13.1f%s\n",
			pt.hitRate, fmtDelay(pt.tierDelay), pt.basePk, pt.anchPk,
			pt.simBasePk, pt.simAnchPk, warn)
	}
	return points, nil
}

// runPoint builds the composed topology at one grid point in both
// worlds, runs the live baseline and fixed-anchor trials, and — when
// the simulator pass is on — replays both on the cluster twin and
// reports per-edge rate agreement.
func runPoint(o options, out io.Writer, w *kvstore.Workload, h, d float64, unit time.Duration, minMS float64) (*sweepPoint, error) {
	spec, err := buildSpec(o, h, d)
	if err != nil {
		return nil, err
	}
	tp, err := topo.Build(w, spec, topo.Options{Unit: unit, MinServiceMS: minMS, Seed: o.seed ^ 0x7071})
	if err != nil {
		return nil, err
	}
	defer tp.Close()
	fleets := tp.FleetPaths()
	lambda, err := tp.ArrivalRate(o.util, fleets[0])
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "--- hit %.2f, tier delay %s: %.3f queries/model-ms over fleets %v\n",
		h, fmtDelay(d), lambda, fleets)

	base := topo.RunSpec{N: o.queries, Warmup: o.warmup, Lambda: lambda, Seed: o.seed ^ 0x2a}
	anch := base
	anch.Policies = anchors(fleets)
	// A short throwaway run warms the runtime (goroutine pools, timer
	// wheels) so the measured trials see steady-state scheduling.
	burn := topo.RunSpec{N: min(o.queries, 120), Warmup: 0, Lambda: lambda, Seed: o.seed ^ 0x55}
	if _, err := tp.RunLive(burn); err != nil {
		return nil, err
	}
	liveBase, err := tp.RunLive(base)
	if err != nil {
		return nil, err
	}
	liveAnch, err := tp.RunLive(anch)
	if err != nil {
		return nil, err
	}
	pt := &sweepPoint{
		hitRate: h, tierDelay: d,
		basePk: liveBase.TailLatency(o.k), anchPk: liveAnch.TailLatency(o.k),
		simBasePk: math.NaN(), simAnchPk: math.NaN(),
		tierDiff: math.NaN(), leafDiff: math.NaN(),
	}
	fmt.Fprintf(out, "live: baseline P%.0f=%6.1f -> anchored P%.0f=%6.1f model-ms\n",
		o.k*100, pt.basePk, o.k*100, pt.anchPk)
	for _, path := range sortedKeys(liveBase.TierRates) {
		fmt.Fprintf(out, "live: tier %-16q rate %.4f\n", path, liveBase.TierRates[path])
	}
	for _, path := range sortedKeys(liveAnch.LeafRates) {
		fmt.Fprintf(out, "live: leaf %-16q anchored reissue rate %.4f\n", path, liveAnch.LeafRates[path])
	}

	if o.sim {
		simBase, err := tp.RunSim(base)
		if err != nil {
			return nil, err
		}
		simAnch, err := tp.RunSim(anch)
		if err != nil {
			return nil, err
		}
		pt.simBasePk = simBase.TailLatency(o.k)
		pt.simAnchPk = simAnch.TailLatency(o.k)
		pt.tierDiff, pt.leafDiff = 0, 0
		for path, r := range liveBase.TierRates {
			pt.tierDiff = math.Max(pt.tierDiff, math.Abs(r-simBase.TierRates[path]))
		}
		// Rates are compared per SLOT — a fan-out hedges all shards
		// from one policy template, so the shards' rates estimate the
		// same quantity and averaging them shrinks the coin-flip
		// noise a per-leaf comparison would drown in at demo scale.
		liveSlots, simSlots := slotRates(liveAnch.LeafRates), slotRates(simAnch.LeafRates)
		for slot, r := range liveSlots {
			pt.leafDiff = math.Max(pt.leafDiff, math.Abs(r-simSlots[slot]))
		}
		pt.warn = pt.tierDiff > metrics.AgreementBand || pt.leafDiff > metrics.AgreementBand
		fmt.Fprintf(out, "sim:  baseline P%.0f=%6.1f -> anchored P%.0f=%6.1f model-ms (same arrivals, traces, hit streams)\n",
			o.k*100, pt.simBasePk, o.k*100, pt.simAnchPk)
		for _, slot := range sortedKeys(liveSlots) {
			fmt.Fprintf(out, "sim:  slot %-16q anchored rate live %.4f sim %.4f\n", slot, liveSlots[slot], simSlots[slot])
		}
		fmt.Fprintf(out, "sim:  max |live-sim| tier rate %.4f, slot rate %.4f (tolerance %.3f)%s\n",
			pt.tierDiff, pt.leafDiff, metrics.AgreementBand,
			map[bool]string{true: "  WARNING: beyond tolerance", false: ""}[pt.warn])
	}
	return pt, nil
}

// slotRates averages the per-leaf rates of every leaf sharing a slot
// path: the fan-out's shards are exchangeable estimates of the same
// per-shard rate.
func slotRates(leaf map[string]float64) map[string]float64 {
	sum, n := make(map[string]float64), make(map[string]int)
	for path, r := range leaf {
		slot := slotPath(path)
		sum[slot] += r
		n[slot]++
	}
	for slot := range sum {
		sum[slot] /= float64(n[slot])
	}
	return sum
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
