// Command reissue-topo runs reissue policies on composed service
// graphs. A named preset — a single replicated fleet, a sharded
// fan-out, a cache→store tier, a cache tier over a sharded store, or a
// fan-out of per-shard cache tiers — is built ONCE per sweep point in
// both worlds from one declarative topo.Spec: the live wall-clock
// system wired from Source combinators, and its virtual-time cluster
// twin composed identically.
//
// Every shape runs the same procedure: a no-reissue baseline, a fixed
// rate anchor, and a policy per store slot tuned from the baseline's
// per-fleet logs at -budget. The simulator pass then replays all three
// trials over the same effective traces and hit streams, at the same
// arrival rate and seed, and checks the per-slot reissue rates and
// tier rates against the live ones. Presets with a fan-out sweep
// -shards; presets with a tier sweep -hit-rates × -tier-delays; the
// fleet preset sweeps -faults × -batch-sizes, one point by default.
//
// A -faults entry kind:severity scripts replica 1 of the fleet, the
// same script in both worlds, and the simulator check then covers
// failure rates and breaker verdicts too. Severity s in (0, 1] maps as:
//
//	crash:      the replica is dead for the last s of the measured
//	            queries (breaker armed: evict, probe, re-route)
//	error-rate: each copy on the replica fails with probability s
//	slow:       the replica's latency is stretched 1 + 3s times
//
// A -batch-sizes entry B serves every replica in batches of up to B
// (internal/sched's Batch discipline, in both worlds).
//
// Examples:
//
//	# default sweep: cache tier over a 2-shard store
//	reissue-topo
//
//	# one in-process fleet of 4 replicas, one of them 2.5x slow
//	reissue-topo -topo fleet -store-replicas 4
//
//	# the same fleet as 4 HTTP replica servers on loopback
//	reissue-topo -topo fleet -store-replicas 4 -http
//
//	# fault injection: an error-rate point and a crash point
//	reissue-topo -topo fleet -store-replicas 4 -faults error-rate:0.2,crash:0.3
//
//	# batched inference serving at batch sizes 1 and 4
//	reissue-topo -topo fleet -workload infer -batch-sizes 1,4 -util 0.4
//
//	# "The Tail at Scale" fan-out over 1, 2 and 4 shards
//	reissue-topo -topo shard -shards 1,2,4
//
//	# the search workload on a fan-out, no simulator pass
//	reissue-topo -topo shard -workload search -sim=false
//
//	# a cache tier over one store fleet at two hit rates
//	reissue-topo -topo tier -hit-rates 0.5,0.85
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/inference"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/searchengine"
	"repro/internal/sweep"
	"repro/reissue"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/fault"
	"repro/reissue/hedge/topo"
)

type options struct {
	shape      string // preset name, a key of presets
	workload   string
	shards     string // comma-separated fan-out widths
	cacheR     int
	storeR     int
	slow       float64
	http       bool
	hitRates   string
	delays     string
	faults     string // comma-separated kind:severity (fleet preset)
	batchSizes string // comma-separated batch sizes (fleet preset)
	queries    int
	warmup     int
	util       float64
	k          float64
	budget     float64
	unitMS     float64
	minMS      float64
	seed       uint64
	sim        bool
	workers    int
	progress   bool
}

// preset is one named composition: which grid axes it sweeps, its
// spec at a grid point, and its fixed rate anchors.
type preset struct {
	fanOut, tiered bool
	// slowCache gives the cache fleet the -slow replica too; the
	// composed presets keep it homogeneous, because a slow cache hit
	// past a finite tier delay leaves a store visit the simulator
	// serves and live cancels (see the topo agreement test).
	slowCache bool
	// Anchors sit in the dense region of each fleet's response-time
	// distribution: cache fleets answer fast, so theirs comes earlier.
	cacheAnchor, storeAnchor reissue.SingleR
	spec                     func(g gridPoint, cache topo.FleetSpec, store topo.Spec) topo.Spec
}

var presets = map[string]preset{
	"fleet": {
		storeAnchor: reissue.SingleR{D: 5, Q: 0.25},
		spec: func(_ gridPoint, _ topo.FleetSpec, store topo.Spec) topo.Spec {
			return store
		},
	},
	"shard": {
		fanOut:      true,
		storeAnchor: reissue.SingleR{D: 3, Q: 0.25},
		spec: func(g gridPoint, _ topo.FleetSpec, store topo.Spec) topo.Spec {
			return topo.Spec{Shard: &topo.ShardSpec{N: g.shards, Child: store}}
		},
	},
	"tier": {
		tiered:      true,
		slowCache:   true,
		cacheAnchor: reissue.SingleR{D: 2, Q: 0.25},
		storeAnchor: reissue.SingleR{D: 8, Q: 0.25},
		spec: func(g gridPoint, cache topo.FleetSpec, store topo.Spec) topo.Spec {
			return topo.Spec{Tier: &topo.TierSpec{HitRate: g.hit, TierDelay: g.delay, Cache: cache, Store: store}}
		},
	},
	"tier-over-shards": {
		fanOut: true, tiered: true,
		cacheAnchor: reissue.SingleR{D: 2, Q: 0.25},
		storeAnchor: reissue.SingleR{D: 4, Q: 0.25},
		spec: func(g gridPoint, cache topo.FleetSpec, store topo.Spec) topo.Spec {
			return topo.Spec{Tier: &topo.TierSpec{
				HitRate: g.hit, TierDelay: g.delay, Cache: cache,
				Store: topo.Spec{Shard: &topo.ShardSpec{N: g.shards, Child: store}},
			}}
		},
	},
	"sharded-tiers": {
		fanOut: true, tiered: true,
		cacheAnchor: reissue.SingleR{D: 2, Q: 0.25},
		storeAnchor: reissue.SingleR{D: 4, Q: 0.25},
		spec: func(g gridPoint, cache topo.FleetSpec, store topo.Spec) topo.Spec {
			return topo.Spec{Shard: &topo.ShardSpec{N: g.shards, Child: topo.Spec{Tier: &topo.TierSpec{
				HitRate: g.hit, TierDelay: g.delay, Cache: cache, Store: store,
			}}}}
		},
	},
}

// plainFleet reports whether the preset is one root fleet, the only
// shape that sweeps -faults (a fault script is allowed only on a root
// fleet) and -batch-sizes.
func (p preset) plainFleet() bool { return !p.fanOut && !p.tiered }

// gridPoint is one sweep point; axes a preset does not sweep are zero.
type gridPoint struct {
	shards     int
	hit, delay float64
	fault      faultPoint
	batch      int // batch size, 0 = FIFO
}

// faultPoint is one -faults entry; the zero value is no fault.
type faultPoint struct {
	kind     string
	severity float64
}

// The -faults crash axis arms the breaker with these settings, and
// the -batch-sizes axis lingers this long: one value of each is used.
const (
	breakerThreshold  = 5
	breakerCooldownMS = 400.0
	batchLingerMS     = 2.0
)

// batchCost is the inference workload's default batch cost model,
// applied to every workload's batches.
var batchCost = sched.BatchCost{Scale: 0.15, PerItem: 0.05}

// faultKinds are the -faults profile kinds.
var faultKinds = []string{"crash", "error-rate", "slow"}

// label names the point by the axes its preset sweeps.
func (g gridPoint) label(p preset) string {
	var parts []string
	if p.fanOut {
		parts = append(parts, fmt.Sprintf("S=%d", g.shards))
	}
	if p.tiered {
		parts = append(parts, fmt.Sprintf("hit %.2f, tier delay %s", g.hit, fmtDelay(g.delay)))
	}
	if p.plainFleet() {
		parts = append(parts, "fleet")
		if g.fault.kind != "" {
			parts = append(parts, fmt.Sprintf("%s %.2f", g.fault.kind, g.fault.severity))
		}
		if g.batch > 0 {
			parts = append(parts, fmt.Sprintf("B=%d", g.batch))
		}
	}
	return strings.Join(parts, ", ")
}

// sweepPoint carries one grid point's headline measurements out of
// run for the tests to assert on.
type sweepPoint struct {
	gridPoint
	basePk, anchPk, tunedPk          float64
	simBasePk, simAnchPk, simTunedPk float64
	tierRate                         float64 // mean live baseline tier rate over the tier nodes
	tierDiff                         float64 // max |live-sim| over tier nodes, baseline run
	leafDiff                         float64 // max |live-sim| over fleet slots, anchored run
	tunedRate                        float64 // mean live reissue rate over the tuned slots, tuned run
	// Faulted points only, anchored run: the failure rates and their
	// gap, and each world's per-replica breaker trips.
	liveFail, simFail, failDiff float64
	liveTrips, simTrips         []int
	warn                        bool
}

func main() {
	var o options
	flag.StringVar(&o.shape, "topo", "tier-over-shards", `preset: "fleet" (one store fleet), "shard" (fan-out over -shards), "tier" (cache tier over one store fleet), "tier-over-shards" (cache tier shielding a sharded store) or "sharded-tiers" (fan-out of per-shard cache tiers)`)
	flag.StringVar(&o.workload, "workload", "kv", "workload: kv, search (presets without a tier) or infer (batched inference, -topo fleet)")
	flag.StringVar(&o.shards, "shards", "2", "comma-separated fan-out widths to sweep (presets with a fan-out)")
	flag.IntVar(&o.cacheR, "cache-replicas", 2, "replicas per cache fleet")
	flag.IntVar(&o.storeR, "store-replicas", 3, "replicas per store fleet (the fleet of -topo fleet, the shard fleets of -topo shard)")
	flag.Float64Var(&o.slow, "slow", 2.5, "speed factor of each store fleet's last replica, and of the cache fleet's under -topo tier (<=1 for homogeneous)")
	flag.BoolVar(&o.http, "http", false, "serve the store fleets behind the HTTP transport")
	// The defaults keep every fleet inside the validated agreement
	// envelope: hit rates low enough that the store fleets see enough
	// traffic for their anchored rates to be estimated from more than
	// a handful of coin events, and a wall-clock unit large enough
	// that the cache anchor's deadline clears the kernel-sleep jitter
	// band (see the topo agreement test's conventions).
	flag.StringVar(&o.hitRates, "hit-rates", "0.5,0.65", "comma-separated cache hit rates to sweep (presets with a tier)")
	flag.StringVar(&o.delays, "tier-delays", "inf,4", "comma-separated tier-reissue delays in model-ms, inf = fall-through only (presets with a tier)")
	flag.StringVar(&o.faults, "faults", "", "comma-separated kind:severity fault points on replica 1, kind crash, error-rate or slow, severity in (0, 1] (-topo fleet)")
	flag.StringVar(&o.batchSizes, "batch-sizes", "", "comma-separated batch sizes to serve in, empty = FIFO (-topo fleet)")
	flag.IntVar(&o.queries, "queries", 1000, "queries per run")
	flag.IntVar(&o.warmup, "warmup", 150, "lead-in queries excluded from statistics")
	flag.Float64Var(&o.util, "util", 0.28, "target nominal utilization at the first fleet (alphabetically)")
	flag.Float64Var(&o.k, "k", 0.99, "target percentile")
	flag.Float64Var(&o.budget, "budget", 0.05, "reissue budget of each tuned store slot (fraction of its sub-queries)")
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

func parseCounts(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || s <= 0 {
			return nil, fmt.Errorf("bad count %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseFaults(spec string) ([]faultPoint, error) {
	var out []faultPoint
	for _, part := range strings.Split(spec, ",") {
		kind, sev, ok := strings.Cut(strings.TrimSpace(part), ":")
		v, err := strconv.ParseFloat(sev, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad fault %q (want kind:severity, e.g. error-rate:0.2)", part)
		}
		if !slices.Contains(faultKinds, kind) {
			return nil, fmt.Errorf("unknown fault kind %q (want one of %s)", kind, strings.Join(faultKinds, ", "))
		}
		if !(v > 0 && v <= 1) {
			return nil, fmt.Errorf("fault severity %v outside (0, 1]", v)
		}
		out = append(out, faultPoint{kind, v})
	}
	return out, nil
}

// faultPlan scripts one -faults entry on replica 1 (replica 0 of a
// one-replica fleet); nil for the zero entry.
func faultPlan(o options, f faultPoint) *cluster.FaultPlan {
	victim := min(1, o.storeR-1)
	switch f.kind {
	case "crash":
		from := o.queries - int(f.severity*float64(o.queries-o.warmup))
		return &cluster.FaultPlan{
			Profiles:         []fault.Profile{{Replica: victim, Kind: fault.Crash, From: from}},
			BreakerThreshold: breakerThreshold,
			BreakerCooldown:  breakerCooldownMS,
		}
	case "error-rate":
		return &cluster.FaultPlan{Profiles: []fault.Profile{{Replica: victim, Kind: fault.ErrorRate, Rate: f.severity, Seed: o.seed + 9}}}
	case "slow":
		return &cluster.FaultPlan{Profiles: []fault.Profile{{Replica: victim, Kind: fault.Slow, Factor: 1 + 3*f.severity}}}
	}
	return nil
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

// grid flattens the axes the preset sweeps into points, in flag order.
func grid(o options, p preset) ([]gridPoint, error) {
	shards, hits, delays := []int{0}, []float64{0}, []float64{0}
	faults, batches := []faultPoint{{}}, []int{0}
	var err error
	if p.fanOut {
		if shards, err = parseCounts(o.shards); err != nil {
			return nil, fmt.Errorf("-shards: %w", err)
		}
	}
	if (o.faults != "" || o.batchSizes != "") && !p.plainFleet() {
		return nil, fmt.Errorf("-faults and -batch-sizes apply only to -topo fleet")
	}
	if o.faults != "" {
		if faults, err = parseFaults(o.faults); err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
	}
	if o.batchSizes != "" {
		if batches, err = parseCounts(o.batchSizes); err != nil {
			return nil, fmt.Errorf("-batch-sizes: %w", err)
		}
	}
	if p.tiered {
		if hits, err = parseFloats(o.hitRates, false); err != nil {
			return nil, fmt.Errorf("-hit-rates: %w", err)
		}
		for _, h := range hits {
			if h > 1 {
				return nil, fmt.Errorf("-hit-rates: %v outside [0, 1]", h)
			}
		}
		if delays, err = parseFloats(o.delays, true); err != nil {
			return nil, fmt.Errorf("-tier-delays: %w", err)
		}
	}
	var out []gridPoint
	for _, s := range shards {
		for _, h := range hits {
			for _, d := range delays {
				for _, f := range faults {
					for _, b := range batches {
						out = append(out, gridPoint{s, h, d, f, b})
					}
				}
			}
		}
	}
	return out, nil
}

// workload generates the replayed trace once for the whole sweep.
func workload(o options) (topo.Workload, error) {
	switch o.workload {
	case "kv":
		w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
			NumSets: 300, NumQueries: o.queries, Seed: o.seed,
		})
		if err != nil {
			return nil, err
		}
		return topo.KV(w), nil
	case "search":
		return topo.Search(searchengine.WorkloadConfig{
			Corpus:     searchengine.CorpusConfig{NumDocs: 4000, VocabSize: 4000, Seed: o.seed},
			NumQueries: o.queries, Seed: o.seed,
		}), nil
	case "infer":
		w, err := inference.Generate(inference.Config{Requests: o.queries, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		return topo.Inference(w), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want kv, search or infer)", o.workload)
	}
}

func run(o options, out io.Writer) ([]sweepPoint, error) {
	if o.queries <= o.warmup {
		return nil, fmt.Errorf("queries=%d must exceed warmup=%d", o.queries, o.warmup)
	}
	p, ok := presets[o.shape]
	if !ok {
		names := make([]string, 0, len(presets))
		for name := range presets {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("-topo: unknown preset %q (want one of %s)", o.shape, strings.Join(names, ", "))
	}
	points, err := grid(o, p)
	if err != nil {
		return nil, err
	}
	w, err := workload(o)
	if err != nil {
		return nil, err
	}
	unit := time.Duration(o.unitMS * float64(time.Millisecond))
	minMS := o.minMS
	if minMS == 0 {
		sr := backend.MeasureSleepResponse()
		minMS = 1.5 * float64(sr.Floor) / float64(unit)
	}
	cache := ""
	if p.tiered {
		cache = fmt.Sprintf("cache %d replicas, ", o.cacheR)
	}
	fmt.Fprintf(out, "topology demo: %s preset, %s workload, %sstore %d replicas (slow factor %.2g)%s, unit %.2g ms\n",
		o.shape, o.workload, cache, o.storeR, o.slow,
		map[bool]string{true: ", store over HTTP", false: ""}[o.http], o.unitMS)
	fmt.Fprintf(out, "target P%.0f, store budget %.3f, nominal utilization %.2f at the first fleet, %d queries + %d warmup\n\n",
		o.k*100, o.budget, o.util, o.queries-o.warmup, o.warmup)

	// Grid points are independent sweep points, each writing into its
	// own buffer and result slot; buffers are emitted in grid order
	// after the pool drains, so the report is byte-identical at any
	// worker count.
	results := make([]sweepPoint, len(points))
	bufs := make([]bytes.Buffer, len(points))
	pts := make([]sweep.Point, len(points))
	for i, g := range points {
		pts[i] = sweep.Point{
			Label: o.shape + "/" + g.label(p),
			Run: func(*sweep.Env) error {
				pt, err := runPoint(o, p, &bufs[i], w, g, unit, minMS)
				if err != nil {
					return err
				}
				results[i] = *pt
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
	fmt.Fprintf(out, "%-28s %12s %12s %12s %8s %10s %13s %13s\n",
		"point", "baseline Pk", "anchored Pk", "tuned Pk", "change", "tier rate", "sim baseline", "sim tuned")
	for _, pt := range results {
		warn := ""
		if pt.warn {
			warn = "  WARNING: rate beyond tolerance"
		}
		fmt.Fprintf(out, "%-28s %12.1f %12.1f %12.1f %7.1f%% %10.4f %13.1f %13.1f%s\n",
			pt.label(p), pt.basePk, pt.anchPk, pt.tunedPk, 100*(pt.tunedPk-pt.basePk)/pt.basePk,
			pt.tierRate, pt.simBasePk, pt.simTunedPk, warn)
	}
	return results, nil
}

// runPoint builds the preset at one grid point in both worlds, runs
// the live baseline, anchored and tuned trials, and — when the
// simulator pass is on — replays all three on the cluster twin and
// reports per-slot rate agreement.
func runPoint(o options, p preset, out io.Writer, w topo.Workload, g gridPoint, unit time.Duration, minMS float64) (*sweepPoint, error) {
	cache := topo.FleetSpec{Replicas: o.cacheR}
	if p.slowCache {
		cache.SpeedFactors = speeds(o.cacheR, o.slow)
	}
	store := topo.Spec{Fleet: &topo.FleetSpec{
		Replicas: o.storeR, SpeedFactors: speeds(o.storeR, o.slow), HTTP: o.http,
		Faults: faultPlan(o, g.fault),
	}}
	if g.batch > 0 {
		store.Fleet.Batch = &sched.BatchConfig{Size: g.batch, LingerMS: batchLingerMS, Cost: batchCost}
	}
	tp, err := topo.Build(w, p.spec(g, cache, store), topo.Options{Unit: unit, MinServiceMS: minMS, Seed: o.seed ^ 0x7071})
	if err != nil {
		return nil, err
	}
	defer tp.Close()
	fleets := tp.FleetPaths()
	lambda, err := tp.ArrivalRate(o.util, fleets[0])
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "--- %s: %.3f queries/model-ms over fleets %q\n", g.label(p), lambda, fleets)

	base := topo.RunSpec{N: o.queries, Warmup: o.warmup, Lambda: lambda, Seed: o.seed ^ 0x2a}
	anch := base
	anch.Policies = make(map[string]reissue.Policy)
	for _, path := range fleets {
		if slot := topo.SlotOf(path); isCache(slot) {
			anch.Policies[slot] = p.cacheAnchor
		} else {
			anch.Policies[slot] = p.storeAnchor
		}
	}
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
	tuned := base
	if tuned.Policies, err = tune(liveBase, o.k, o.budget); err != nil {
		return nil, err
	}
	liveTuned, err := tp.RunLive(tuned)
	if err != nil {
		return nil, err
	}
	pt := &sweepPoint{
		gridPoint: g,
		basePk:    liveBase.TailLatency(o.k), anchPk: liveAnch.TailLatency(o.k), tunedPk: liveTuned.TailLatency(o.k),
		simBasePk: math.NaN(), simAnchPk: math.NaN(), simTunedPk: math.NaN(),
		tierRate: math.NaN(), tierDiff: math.NaN(), leafDiff: math.NaN(), tunedRate: math.NaN(),
		liveFail: liveAnch.FailureRate, simFail: math.NaN(), failDiff: math.NaN(),
		liveTrips: liveAnch.BreakerTrips,
	}
	faulted := g.fault.kind != ""
	fmt.Fprintf(out, "live: baseline P%.0f=%6.1f -> anchored P%.0f=%6.1f -> tuned P%.0f=%6.1f model-ms\n",
		o.k*100, pt.basePk, o.k*100, pt.anchPk, o.k*100, pt.tunedPk)
	if faulted {
		fmt.Fprintf(out, "live: failure rate baseline %.4f, anchored %.4f, tuned %.4f\n",
			liveBase.FailureRate, liveAnch.FailureRate, liveTuned.FailureRate)
		printBreaker(out, "live:", liveAnch)
	}
	for _, slot := range sortedKeys(tuned.Policies) {
		fmt.Fprintf(out, "live: slot %-16q tuned to %v from the baseline log at budget %.3f\n", slot, tuned.Policies[slot], o.budget)
	}
	if len(liveBase.TierRates) > 0 {
		pt.tierRate = 0
	}
	for _, path := range sortedKeys(liveBase.TierRates) {
		r := liveBase.TierRates[path]
		pt.tierRate += r / float64(len(liveBase.TierRates))
		fmt.Fprintf(out, "live: tier %-16q rate %.4f (store dispatches per query)\n", path, r)
	}
	for _, path := range sortedKeys(liveAnch.LeafRates) {
		fmt.Fprintf(out, "live: leaf %-16q reissue rate anchored %.4f, tuned %.4f\n", path, liveAnch.LeafRates[path], liveTuned.LeafRates[path])
	}
	anchSlots, tunedSlots := slotRates(liveAnch.LeafRates), slotRates(liveTuned.LeafRates)
	if len(tuned.Policies) > 0 {
		pt.tunedRate = 0
	}
	for slot := range tuned.Policies {
		pt.tunedRate += tunedSlots[slot] / float64(len(tuned.Policies))
	}
	for _, slot := range sortedKeys(anchSlots) {
		what := "reissue rate"
		if strings.Contains("/"+slot+"/", "/shard/") {
			what = "mean per-shard reissue rate"
		}
		fmt.Fprintf(out, "live: slot %-16q %s anchored %.4f, tuned %.4f\n", slot, what, anchSlots[slot], tunedSlots[slot])
	}

	if o.sim {
		var sims [3]*topo.Result
		for i, rs := range []topo.RunSpec{base, anch, tuned} {
			if sims[i], err = tp.RunSim(rs); err != nil {
				return nil, err
			}
		}
		simBase, simAnch, simTuned := sims[0], sims[1], sims[2]
		pt.simBasePk, pt.simAnchPk, pt.simTunedPk = simBase.TailLatency(o.k), simAnch.TailLatency(o.k), simTuned.TailLatency(o.k)
		pt.tierDiff, pt.leafDiff = 0, 0
		for path, r := range liveBase.TierRates {
			pt.tierDiff = math.Max(pt.tierDiff, math.Abs(r-simBase.TierRates[path]))
		}
		// Rates are compared per SLOT — a fan-out hedges all shards
		// from one policy template, so the shards' rates estimate the
		// same quantity and averaging them shrinks the coin-flip
		// noise a per-leaf comparison would drown in at demo scale.
		simSlots := slotRates(simAnch.LeafRates)
		for slot, r := range anchSlots {
			pt.leafDiff = math.Max(pt.leafDiff, math.Abs(r-simSlots[slot]))
		}
		pt.simFail, pt.simTrips = simAnch.FailureRate, simAnch.BreakerTrips
		pt.failDiff = math.Abs(pt.liveFail - pt.simFail)
		pt.warn = pt.tierDiff > metrics.AgreementBand || pt.leafDiff > metrics.AgreementBand || pt.failDiff > metrics.AgreementBand
		fmt.Fprintf(out, "sim:  baseline P%.0f=%6.1f -> anchored P%.0f=%6.1f -> tuned P%.0f=%6.1f model-ms (same arrival rate and seed, traces, hit streams)\n",
			o.k*100, pt.simBasePk, o.k*100, pt.simAnchPk, o.k*100, pt.simTunedPk)
		for _, slot := range sortedKeys(anchSlots) {
			fmt.Fprintf(out, "sim:  slot %-16q anchored rate live %.4f sim %.4f\n", slot, anchSlots[slot], simSlots[slot])
		}
		if faulted {
			fmt.Fprintf(out, "sim:  anchored failure rate live %.4f sim %.4f\n", pt.liveFail, pt.simFail)
			printBreaker(out, "sim: ", simAnch)
		}
		fmt.Fprintf(out, "sim:  max |live-sim| tier rate %.4f, slot rate %.4f, failure rate %.4f (tolerance %.3f)%s\n",
			pt.tierDiff, pt.leafDiff, pt.failDiff, metrics.AgreementBand,
			map[bool]string{true: "  WARNING: beyond tolerance", false: ""}[pt.warn])
	}
	return pt, nil
}

// printBreaker reports a run's breaker verdicts, if its fleet has a
// breaker.
func printBreaker(out io.Writer, world string, r *topo.Result) {
	if r.BreakerTrips != nil {
		fmt.Fprintf(out, "%s anchored breaker trips %v, open at end %v\n", world, r.BreakerTrips, r.BreakerOpen)
	}
}

// isCache reports whether a slot is a tier's cache fleet.
func isCache(slot string) bool { return slot == "cache" || strings.HasSuffix(slot, "/cache") }

// tune fits one SingleR per store slot — every fleet slot but the
// caches — at percentile k and the given budget, to the slot's pooled
// baseline logs. A slot whose fleets saw no traffic (a store behind a
// hit-rate-1 cache) keeps reissue.None.
func tune(base *topo.Result, k, budget float64) (map[string]reissue.Policy, error) {
	pooled := make(map[string][]float64)
	for path, resp := range base.LeafResp {
		if slot := topo.SlotOf(path); !isCache(slot) {
			pooled[slot] = append(pooled[slot], resp...)
		}
	}
	out := make(map[string]reissue.Policy)
	for slot, resp := range pooled {
		if len(resp) == 0 {
			continue
		}
		pol, _, err := reissue.ComputeOptimalSingleR(resp, nil, k, budget)
		if err != nil {
			return nil, fmt.Errorf("tuning slot %q: %w", slot, err)
		}
		out[slot] = pol
	}
	return out, nil
}

// slotRates averages the per-leaf rates of every leaf sharing a slot
// path: the fan-out's shards are exchangeable estimates of the same
// per-shard rate.
func slotRates(leaf map[string]float64) map[string]float64 {
	sum, n := make(map[string]float64), make(map[string]int)
	for path, r := range leaf {
		slot := topo.SlotOf(path)
		sum[slot] += r
		n[slot]++
	}
	for slot := range sum {
		sum[slot] /= float64(n[slot])
	}
	return sum
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
