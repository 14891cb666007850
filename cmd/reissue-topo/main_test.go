package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// fast returns options scaled down for a smoke run.
func fast() options {
	return options{
		shape:    "tier-over-shards",
		workload: "kv",
		shards:   "2",
		cacheR:   2,
		storeR:   2,
		slow:     2.0,
		hitRates: "0.6",
		delays:   "inf,3",
		queries:  260,
		warmup:   40,
		util:     0.20,
		k:        0.95,
		budget:   0.05,
		unitMS:   0.2,
		seed:     3,
		sim:      true,
		// Live wall-clock points are timing-sensitive; the smoke runs
		// pin the pool to one worker for reproducible contention.
		workers: 1,
	}
}

// shardPreset is fast() on the fan-out preset at the scale of its
// own smoke run.
func shardPreset() options {
	o := fast()
	o.shape = "shard"
	o.shards = "1,2"
	o.queries = 300
	o.warmup = 50
	return o
}

// tierPreset is fast() on the cache→store preset at the scale of its
// own smoke run.
func tierPreset() options {
	o := fast()
	o.shape = "tier"
	o.queries = 300
	o.warmup = 50
	return o
}

// fleetPreset is fast() on the single-fleet preset at the scale of
// its own smoke run.
func fleetPreset() options {
	o := fast()
	o.shape = "fleet"
	o.storeR = 3
	o.queries = 300
	o.warmup = 50
	return o
}

func runOK(t *testing.T, o options) ([]sweepPoint, string) {
	t.Helper()
	var buf bytes.Buffer
	pts, err := run(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return pts, buf.String()
}

func wantOutput(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	pts, out := runOK(t, fast())
	wantOutput(t, out, "hit 0.60", "tier delay inf", "tier delay 3",
		"sweep summary", "live: tier", "live: leaf", "sim:")
	if len(pts) != 2 || !math.IsInf(pts[0].delay, 1) || pts[1].delay != 3 {
		t.Fatalf("sweep points = %+v", pts)
	}
	// With an infinite tier delay the tier rate is the measured miss
	// rate, and the hit bits are shared with the simulator twin bit
	// for bit — the demo's cross-validation must agree exactly.
	if pts[0].tierDiff != 0 {
		t.Errorf("shared hit stream diverged in the demo: max tier |live-sim| = %.6f", pts[0].tierDiff)
	}
}

func TestRunShardedTiers(t *testing.T) {
	o := fast()
	o.shape = "sharded-tiers"
	o.delays = "inf"
	pts, out := runOK(t, o)
	// Per-shard caches: every shard has its own tier node and cache
	// fleet, and the fall-through miss streams pin both worlds.
	wantOutput(t, out, `"shard0"`, `"shard1"`, `"shard0/cache"`, `"shard1/store"`)
	if len(pts) != 1 || pts[0].tierDiff != 0 {
		t.Fatalf("sweep points = %+v", pts)
	}
}

// TestRunShardPreset is the fan-out sweep: one point per shard count,
// each reporting the mean per-shard reissue rate.
func TestRunShardPreset(t *testing.T) {
	pts, out := runOK(t, shardPreset())
	wantOutput(t, out, "S=1", "S=2", "sweep summary", "mean per-shard reissue rate", "sim:")
	if len(pts) != 2 || pts[0].shards != 1 || pts[1].shards != 2 {
		t.Fatalf("sweep points = %+v", pts)
	}
}

func TestRunSearchWorkload(t *testing.T) {
	o := shardPreset()
	o.workload = "search"
	o.shards = "2"
	o.queries = 200
	o.warmup = 40
	o.sim = false
	o.unitMS = 0.05
	_, out := runOK(t, o)
	if strings.Contains(out, "sim:") {
		t.Error("simulator pass printed with -sim=false")
	}
}

// TestRunFleetPreset is the single-fleet procedure: one point, one
// store slot at the root, in process and over the wire.
func TestRunFleetPreset(t *testing.T) {
	t.Run("kv", func(t *testing.T) {
		pts, out := runOK(t, fleetPreset())
		wantOutput(t, out, "fleet preset", "--- fleet:", `leaf ""`, "sweep summary", "sim:")
		if len(pts) != 1 || pts[0].label(presets["fleet"]) != "fleet" {
			t.Fatalf("sweep points = %+v", pts)
		}
		if pt := pts[0]; math.IsNaN(pt.leafDiff) || !math.IsNaN(pt.tierRate) || !(pt.tunedRate > 0) {
			t.Errorf("fleet point = %+v, want a slot comparison, a tuned rate and no tier", pt)
		}
	})
	t.Run("kv-http", func(t *testing.T) {
		o := fleetPreset()
		o.http = true
		_, out := runOK(t, o)
		wantOutput(t, out, "store over HTTP", "sim:")
	})
	for _, http := range []bool{false, true} {
		name := map[bool]string{false: "search", true: "search-http"}[http]
		t.Run(name, func(t *testing.T) {
			o := fleetPreset()
			o.workload = "search"
			o.queries = 200
			o.warmup = 40
			o.sim = false
			o.unitMS = 0.05
			o.http = http
			_, out := runOK(t, o)
			if strings.Contains(out, "sim:") {
				t.Error("simulator pass printed with -sim=false")
			}
		})
	}
}

// TestRemoteSimAgreement is the HTTP fleet's acceptance check at a
// statistically meaningful scale: across the transport, the fixed
// rate-anchor policy must reissue at the simulator's rate within the
// in-process agreement test's tolerance, and the policy tuned on the
// baseline log must beat the unhedged tail at a rate near its budget.
func TestRemoteSimAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("remote runs take tens of wall-clock seconds")
	}
	o := options{
		shape:    "fleet",
		workload: "kv",
		storeR:   4,
		slow:     2.5,
		http:     true,
		queries:  1800,
		warmup:   250,
		util:     0.28,
		k:        0.99,
		budget:   0.05,
		unitMS:   2.0,
		seed:     21,
		sim:      true,
		workers:  1,
	}
	pts, out := runOK(t, o)
	t.Log(out)
	if len(pts) != 1 {
		t.Fatalf("sweep points = %+v", pts)
	}
	pt := pts[0]
	if pt.leafDiff > metrics.AgreementBand {
		t.Errorf("anchored reissue rates differ by %.4f across the transport (tolerance %.3f)", pt.leafDiff, metrics.AgreementBand)
	}
	if pt.tunedPk >= 0.97*pt.basePk {
		t.Errorf("remote hedging did not improve P99: %.2f -> %.2f", pt.basePk, pt.tunedPk)
	}
	if pt.tunedRate <= 0 || pt.tunedRate > 2.5*o.budget {
		t.Errorf("tuned remote reissue rate %.4f outside (0, %.3f]", pt.tunedRate, 2.5*o.budget)
	}
}

// TestRunTierPreset is the cache→store sweep over hit rate × tier
// delay.
func TestRunTierPreset(t *testing.T) {
	pts, out := runOK(t, tierPreset())
	wantOutput(t, out, "hit 0.60", "tier delay inf", "tier delay 3", "sweep summary", "tier rate", "sim:")
	if len(pts) != 2 || !math.IsInf(pts[0].delay, 1) || pts[1].delay != 3 {
		t.Fatalf("sweep points = %+v", pts)
	}
	// With an infinite tier delay the tier rate is the measured miss
	// rate, and the miss bits are shared with the simulator bit for
	// bit — the demo's cross-validation must agree exactly.
	if pts[0].tierDiff != 0 {
		t.Errorf("shared miss stream diverged in the demo: max tier |live-sim| = %.6f", pts[0].tierDiff)
	}
	// The proactive point consults the store at least as often.
	if pts[1].tierRate < pts[0].tierRate {
		t.Errorf("proactive tier rate %.4f below fall-through %.4f", pts[1].tierRate, pts[0].tierRate)
	}
}

func TestRunNoSim(t *testing.T) {
	o := fast()
	o.delays = "2"
	o.sim = false
	pts, out := runOK(t, o)
	if strings.Contains(out, "sim:") {
		t.Error("simulator pass printed with -sim=false")
	}
	if len(pts) != 1 || !math.IsNaN(pts[0].simBasePk) || !math.IsNaN(pts[0].tierDiff) {
		t.Fatalf("sweep points = %+v", pts)
	}
}

func TestRunTierPresetNoSim(t *testing.T) {
	o := tierPreset()
	o.delays = "2"
	o.sim = false
	pts, out := runOK(t, o)
	if strings.Contains(out, "sim:") {
		t.Error("simulator pass printed with -sim=false")
	}
	if len(pts) != 1 || !math.IsNaN(pts[0].simBasePk) || !math.IsNaN(pts[0].tierDiff) {
		t.Fatalf("sweep points = %+v", pts)
	}
}

// wantRejected runs each mutation of base and fails on any that run
// accepts.
func wantRejected(t *testing.T, base options, cases map[string]func(*options)) {
	t.Helper()
	for name, mutate := range cases {
		o := base
		mutate(&o)
		if _, err := run(o, &bytes.Buffer{}); err == nil {
			t.Errorf("run accepted %s", name)
		}
	}
}

func TestRunValidation(t *testing.T) {
	wantRejected(t, fast(), map[string]func(*options){
		"warmup >= queries": func(o *options) { o.warmup = o.queries },
		"unknown topology":  func(o *options) { o.shape = "ring" },
		"zero shards":       func(o *options) { o.shards = "0" },
		"zero replicas":     func(o *options) { o.cacheR = 0 },
		"bad hit rate":      func(o *options) { o.hitRates = "1.5" },
		"malformed rates":   func(o *options) { o.hitRates = "0.5,x" },
		"negative delay":    func(o *options) { o.delays = "-2" },
		"inf hit rate":      func(o *options) { o.hitRates = "inf" },
		"unknown workload":  func(o *options) { o.workload = "bogus" },
	})
}

func TestRunShardPresetValidation(t *testing.T) {
	wantRejected(t, shardPreset(), map[string]func(*options){
		"unknown workload":  func(o *options) { o.workload = "bogus" },
		"malformed shards":  func(o *options) { o.shards = "2,zero" },
		"warmup >= queries": func(o *options) { o.warmup = o.queries },
		"zero replicas":     func(o *options) { o.storeR = 0 },
	})
}

func TestRunFleetPresetValidation(t *testing.T) {
	wantRejected(t, fleetPreset(), fleetRejects)
}

// TestRunFleetPresetHTTPValidation holds the HTTP fleet to the same
// rejections: no bad option may start a replica server.
func TestRunFleetPresetHTTPValidation(t *testing.T) {
	o := fleetPreset()
	o.http = true
	wantRejected(t, o, fleetRejects)
}

// fleetRejects are the option mistakes the fleet preset must refuse.
var fleetRejects = map[string]func(*options){
	"unknown workload":  func(o *options) { o.workload = "bogus" },
	"warmup >= queries": func(o *options) { o.warmup = o.queries },
	"zero replicas":     func(o *options) { o.storeR = 0 },
}

func TestRunTierPresetValidation(t *testing.T) {
	wantRejected(t, tierPreset(), map[string]func(*options){
		"warmup >= queries":   func(o *options) { o.warmup = o.queries },
		"zero cache replicas": func(o *options) { o.cacheR = 0 },
		"zero store replicas": func(o *options) { o.storeR = 0 },
		"bad hit rate":        func(o *options) { o.hitRates = "1.5" },
		"malformed rates":     func(o *options) { o.hitRates = "0.5,x" },
		"negative delay":      func(o *options) { o.delays = "-2" },
		"inf hit rate":        func(o *options) { o.hitRates = "inf" },
		"search workload":     func(o *options) { o.workload = "search" },
	})
}

// TestSlotPath pins the path-to-slot collapse behind the per-slot rate
// summaries: only exact shard<k> segments merge, and merged shards
// report their mean rate.
func TestSlotPath(t *testing.T) {
	for in, want := range map[string]string{
		"":                "",
		"cache":           "cache",
		"store/shard0":    "store/shard",
		"shard3/cache":    "shard/cache",
		"store/shardful":  "store/shardful",
		"store/shard0x":   "store/shard0x",
		"shard1/shard12":  "shard/shard",
		"shardless/cache": "shardless/cache",
	} {
		got := slotRates(map[string]float64{in: 0.25})
		if len(got) != 1 || got[want] != 0.25 {
			t.Errorf("slotRates({%q: 0.25}) = %v, want {%q: 0.25}", in, got, want)
		}
	}
	got := slotRates(map[string]float64{"store/shard0": 0.2, "store/shard1": 0.4, "cache": 0.1})
	if len(got) != 2 || math.Abs(got["store/shard"]-0.3) > 1e-12 || got["cache"] != 0.1 {
		t.Errorf("slotRates merged to %v, want store/shard 0.3 and cache 0.1", got)
	}
}

// faultPreset is the fleet preset at the fault sweep's smoke scale:
// four replicas, one error-rate point.
func faultPreset() options {
	o := fleetPreset()
	o.storeR = 4
	o.slow = 2.5
	o.faults = "error-rate:0.2"
	o.queries, o.warmup = 200, 40
	o.util = 0.24
	o.unitMS = 0.2
	return o
}

// TestRunFaultsSmoke: an error-rate point fails queries in the live
// fleet and reports the failure rate in both worlds.
func TestRunFaultsSmoke(t *testing.T) {
	pts, out := runOK(t, faultPreset())
	wantOutput(t, out, "fleet, error-rate 0.20", "live: failure rate", "sim:  anchored failure rate", "sweep summary")
	if len(pts) != 1 {
		t.Fatalf("sweep points = %+v", pts)
	}
	if pts[0].liveFail == 0 {
		t.Error("error-rate point failed nothing — the injector is not in the path")
	}
}

// TestRunCrashBreaker: a crash point trips exactly one breaker, on
// the crashed replica 1, in both worlds.
func TestRunCrashBreaker(t *testing.T) {
	o := faultPreset()
	o.faults = "crash:0.5"
	pts, out := runOK(t, o)
	wantOutput(t, out, "live: anchored breaker trips", "sim:  anchored breaker trips")
	for world, trips := range map[string][]int{"live": pts[0].liveTrips, "sim": pts[0].simTrips} {
		if !slices.Equal(trips, []int{0, 1, 0, 0}) {
			t.Errorf("%s breaker trips = %v, want exactly one on the crashed replica 1", world, trips)
		}
	}
}

func TestRunFaultsNoSim(t *testing.T) {
	o := faultPreset()
	o.sim = false
	_, out := runOK(t, o)
	if strings.Contains(out, "sim:") {
		t.Error("simulator pass printed with -sim=false")
	}
}

func TestRunFaultsValidation(t *testing.T) {
	wantRejected(t, faultPreset(), map[string]func(*options){
		"unknown fault kind": func(o *options) { o.faults = "meteor:0.2" },
		"severity above 1":   func(o *options) { o.faults = "error-rate:1.5" },
		"severity zero":      func(o *options) { o.faults = "slow:0" },
		"malformed list":     func(o *options) { o.faults = "error-rate:0.2,x" },
		"missing severity":   func(o *options) { o.faults = "crash" },
		"faults on a shard":  func(o *options) { o.shape = "shard" },
		"faults on a tier":   func(o *options) { o.shape = "tier" },
		"warmup >= queries":  func(o *options) { o.warmup = o.queries },
	})
}

// inferPreset is the fleet preset on the batched inference workload
// at its smoke scale: one batch size, light load.
func inferPreset() options {
	o := fleetPreset()
	o.workload = "infer"
	o.batchSizes = "4"
	o.queries, o.warmup = 200, 40
	o.util = 0.4
	o.unitMS = 0.3
	return o
}

func TestRunInferSmoke(t *testing.T) {
	pts, out := runOK(t, inferPreset())
	wantOutput(t, out, "infer workload", "--- fleet, B=4:", "live:", "sim:", "sweep summary")
	if len(pts) != 1 || pts[0].batch != 4 {
		t.Fatalf("sweep points = %+v", pts)
	}
	if pts[0].basePk <= 0 || pts[0].simBasePk <= 0 {
		t.Errorf("non-positive tail latency in %+v", pts[0])
	}
}

func TestRunBatchValidation(t *testing.T) {
	wantRejected(t, inferPreset(), map[string]func(*options){
		"batch size zero":      func(o *options) { o.batchSizes = "0" },
		"malformed sizes":      func(o *options) { o.batchSizes = "4,x" },
		"batch sizes on shard": func(o *options) { o.shape = "shard" },
		"infer on a tier":      func(o *options) { o.shape, o.batchSizes = "tier", "" },
		"warmup >= queries":    func(o *options) { o.warmup = o.queries },
	})
}
