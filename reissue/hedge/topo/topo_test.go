package topo

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/inference"
	"repro/internal/kvstore"
	"repro/internal/searchengine"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

// testWorkload builds one small kv workload shared by the fast tests.
func testWorkload(t *testing.T, n int) *kvstore.Workload {
	t.Helper()
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 150, NumQueries: n, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func fleet(replicas int) Spec {
	return Spec{Fleet: &FleetSpec{Replicas: replicas}}
}

// depth2Spec is the canonical composed topology the fast tests
// exercise: a cache tier over a 2-shard store.
func depth2Spec() Spec {
	return Spec{Tier: &TierSpec{
		HitRate:   0.6,
		TierDelay: 4,
		Cache:     FleetSpec{Replicas: 2},
		Store:     Spec{Shard: &ShardSpec{N: 2, Child: fleet(3)}},
	}}
}

func testOptions() Options {
	return Options{MinServiceMS: 1.0, Seed: 11}
}

// testSearch is a small search workload for the fast tests.
func testSearch(n int) Workload {
	return Search(searchengine.WorkloadConfig{
		Corpus:     searchengine.CorpusConfig{NumDocs: 400, VocabSize: 400, Seed: 4},
		NumQueries: n, Seed: 5,
	})
}

func TestBuildValidation(t *testing.T) {
	w := KV(testWorkload(t, 40))
	inf, err := inference.Generate(inference.Config{Requests: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	faulted := func(replicas int, plan *cluster.FaultPlan) *FleetSpec {
		return &FleetSpec{Replicas: replicas, Faults: plan}
	}
	cases := []struct {
		name string
		w    Workload
		spec Spec
		want string
	}{
		{"nil workload", KV(nil), fleet(2), "empty workload"},
		{"empty workload", KV(&kvstore.Workload{}), fleet(2), "empty workload"},
		{"no form", w, Spec{}, "exactly one"},
		{"two forms", w, Spec{Fleet: &FleetSpec{Replicas: 2}, Shard: &ShardSpec{N: 2, Child: fleet(2)}}, "exactly one"},
		{"zero shards", w, Spec{Shard: &ShardSpec{N: 0, Child: fleet(2)}}, "at least one shard"},
		{"zero replicas", w, fleet(0), "Replicas"},
		{"http cache", w, Spec{Tier: &TierSpec{HitRate: 0.5, TierDelay: 4, Cache: FleetSpec{Replicas: 2, HTTP: true}, Store: fleet(2)}}, "in-process only"},
		{"negative tier delay", w, Spec{Tier: &TierSpec{HitRate: 0.5, TierDelay: -1, Cache: FleetSpec{Replicas: 2}, Store: fleet(2)}}, "TierDelay"},
		{"hit rate out of range", w, Spec{Tier: &TierSpec{HitRate: 1.5, TierDelay: 4, Cache: FleetSpec{Replicas: 2}, Store: fleet(2)}}, "hit rate"},
		{"nested bad child", w, Spec{Shard: &ShardSpec{N: 2, Child: Spec{}}}, "exactly one"},
		{"search tier", testSearch(40), Spec{Tier: &TierSpec{HitRate: 0.5, TierDelay: 4, Cache: FleetSpec{Replicas: 2}, Store: fleet(2)}}, "kv workload"},
		{"search tier under shard", testSearch(40), Spec{Shard: &ShardSpec{N: 2, Child: Spec{Tier: &TierSpec{HitRate: 0.5, TierDelay: 4, Cache: FleetSpec{Replicas: 2}, Store: fleet(2)}}}}, "kv workload"},
		{"nested search partition", testSearch(40), Spec{Shard: &ShardSpec{N: 2, Child: Spec{Shard: &ShardSpec{N: 2, Child: fleet(2)}}}}, "partitioned again"},
		{"zero search shards", testSearch(40), Spec{Shard: &ShardSpec{N: 0, Child: fleet(2)}}, "at least one shard"},
		{"faults under a shard", w, Spec{Shard: &ShardSpec{N: 2, Child: Spec{Fleet: faulted(2, crashPlan(10))}}}, "root fleet"},
		{"faults on a cache", w, Spec{Tier: &TierSpec{HitRate: 0.5, TierDelay: 4, Cache: *faulted(2, crashPlan(10)), Store: fleet(2)}}, "root fleet"},
		{"faults on a store", w, Spec{Tier: &TierSpec{HitRate: 0.5, TierDelay: 4, Cache: FleetSpec{Replicas: 2}, Store: Spec{Fleet: faulted(2, crashPlan(10))}}}, "root fleet"},
		{"fault replica out of range", w, Spec{Fleet: faulted(1, crashPlan(10))}, "out of range"},
		{"stall", w, Spec{Fleet: faulted(2, &cluster.FaultPlan{Profiles: []fault.Profile{{Replica: 0, Kind: fault.Stall}}})}, "stall"},
		{"breaker without cooldown", w, Spec{Fleet: faulted(2, &cluster.FaultPlan{BreakerThreshold: 3})}, "BreakerCooldown"},
		{"nil inference workload", Inference(nil), fleet(2), "empty workload"},
		{"inference under a shard", Inference(inf), Spec{Shard: &ShardSpec{N: 2, Child: fleet(2)}}, "partitioned"},
		{"inference under a tier", Inference(inf), Spec{Tier: &TierSpec{HitRate: 0.5, TierDelay: 4, Cache: FleetSpec{Replicas: 2}, Store: fleet(2)}}, "kv workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.w, tc.spec, testOptions())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSlotOf(t *testing.T) {
	cases := map[string]string{
		"":                "",
		"cache":           "cache",
		"shard0":          "shard",
		"shard12":         "shard",
		"store/shard1":    "store/shard",
		"shard2/cache":    "shard/cache",
		"shard1/shard12":  "shard/shard",
		"store/shardful":  "store/shardful", // not a shard index segment
		"shardless/cache": "shardless/cache",
		"store/shard0x":   "store/shard0x",
		// Only the builder's exact spelling is a shard segment.
		"shard1x": "shard1x",
		"shard-1": "shard-1",
		"shard01": "shard01",
		"shard+1": "shard+1",
	}
	for in, want := range cases {
		if got := SlotOf(in); got != want {
			t.Errorf("SlotOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTopologyBasics(t *testing.T) {
	w := testWorkload(t, 60)
	tp, err := Build(KV(w), depth2Spec(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	wantPaths := []string{"cache", "store/shard0", "store/shard1"}
	got := tp.FleetPaths()
	if len(got) != len(wantPaths) {
		t.Fatalf("FleetPaths = %v, want %v", got, wantPaths)
	}
	for i := range wantPaths {
		if got[i] != wantPaths[i] {
			t.Fatalf("FleetPaths = %v, want %v", got, wantPaths)
		}
	}
	if lam, err := tp.ArrivalRate(0.3, "cache"); err != nil || lam <= 0 {
		t.Errorf("ArrivalRate(cache) = %v, %v", lam, err)
	}
	if _, err := tp.ArrivalRate(0.3, "bogus"); err == nil {
		t.Error("ArrivalRate accepted an unknown fleet path")
	}
	if tp.MaxQueries() <= 0 || tp.MaxQueries() > 60 {
		t.Errorf("MaxQueries = %d, want in (0, 60]", tp.MaxQueries())
	}
	if hits, ok := tp.Hits(""); !ok || len(hits) != 60 {
		t.Errorf("Hits(\"\") = len %d, ok %v", len(hits), ok)
	}
	if _, ok := tp.Hits("store"); ok {
		t.Error("Hits found a tier at the shard node's path")
	}
}

func TestPolicyValidation(t *testing.T) {
	w := testWorkload(t, 60)
	tp, err := Build(KV(w), depth2Spec(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	rs := RunSpec{N: 30, Warmup: 5, Lambda: 0.4, Seed: 3}

	rs.Policies = map[string]reissue.Policy{"bogus": reissue.SingleR{D: 2, Q: 0.2}}
	if _, err := tp.RunSim(rs); err == nil || !strings.Contains(err.Error(), "unknown slot") {
		t.Errorf("unknown slot: got %v", err)
	}

	// "store" is the shard fan-out — a composite edge; a real policy
	// there has no simulator twin and must be rejected.
	rs.Policies = map[string]reissue.Policy{"store": reissue.SingleR{D: 2, Q: 0.2}}
	if _, err := tp.RunSim(rs); err == nil || !strings.Contains(err.Error(), "composite") {
		t.Errorf("composite slot: got %v", err)
	}

	// Explicit None on a composite slot is fine, and fleet slots take
	// real policies.
	rs.Policies = map[string]reissue.Policy{
		"store":       reissue.None{},
		"cache":       reissue.SingleR{D: 2, Q: 0.2},
		"store/shard": reissue.SingleR{D: 6, Q: 0.2},
	}
	if _, err := tp.RunSim(rs); err != nil {
		t.Errorf("valid policies rejected: %v", err)
	}

	// A faulted slot runs single-reissue policies only: the simulator
	// keys fault streams by reissue ordinal.
	faulted, err := Build(KV(w), Spec{Fleet: &FleetSpec{Replicas: 3, Faults: crashPlan(10)}}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer faulted.Close()
	double, err := reissue.DoubleR(2, 0.2, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []reissue.Policy{double, reissue.MultipleR{Delays: []float64{2}, Probs: []float64{0.3}}} {
		rs.Policies = map[string]reissue.Policy{"": p}
		if _, err := faulted.RunSim(rs); err == nil || !strings.Contains(err.Error(), "faulted") {
			t.Errorf("%T on a faulted slot: got %v", p, err)
		}
	}
	for _, p := range []reissue.Policy{reissue.None{}, reissue.SingleR{D: 2, Q: 0.2}, reissue.SingleD{D: 3}} {
		rs.Policies = map[string]reissue.Policy{"": p}
		if _, err := faulted.RunSim(rs); err != nil {
			t.Errorf("%T on a faulted slot rejected: %v", p, err)
		}
	}
}

func TestRunSpecValidation(t *testing.T) {
	w := testWorkload(t, 60)
	tp, err := Build(KV(w), fleet(2), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	for _, rs := range []RunSpec{
		{N: 0, Lambda: 0.4},
		{N: 30, Warmup: 30, Lambda: 0.4},
		{N: 30, Warmup: -1, Lambda: 0.4},
		{N: 1000, Lambda: 0.4},
		{N: 30, Lambda: 0},
	} {
		if _, err := tp.RunSim(rs); err == nil {
			t.Errorf("RunSim accepted invalid spec %+v", rs)
		}
	}
	tp.Close()
	if _, err := tp.RunLive(RunSpec{N: 30, Lambda: 0.4}); err == nil {
		t.Error("RunLive ran on a closed topology")
	}
}

// TestRunSimShardDegenerateIdentity: a 1-shard fan-out wrapper is
// byte-identical in the simulator to the uncomposed fleet — no salt,
// no merge, same partitioned (= whole) workload.
func TestRunSimShardDegenerateIdentity(t *testing.T) {
	w := testWorkload(t, 400)
	opt := testOptions()
	rs := RunSpec{
		N: 400, Warmup: 50, Lambda: 0.5, Seed: 21,
		Policies: map[string]reissue.Policy{"shard": reissue.SingleR{D: 4, Q: 0.3}},
	}

	wrapped, err := Build(KV(w), Spec{Shard: &ShardSpec{N: 1, Child: fleet(3)}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.RunSim(rs)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := Build(KV(w), fleet(3), opt)
	if err != nil {
		t.Fatal(err)
	}
	rs.Policies = map[string]reissue.Policy{"": reissue.SingleR{D: 4, Q: 0.3}}
	want, err := plain.RunSim(rs)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Query) != len(want.Query) {
		t.Fatalf("1-shard sim measured %d queries, plain %d", len(got.Query), len(want.Query))
	}
	for i := range want.Query {
		if got.Query[i] != want.Query[i] {
			t.Fatalf("query %d: 1-shard %v != plain %v", i, got.Query[i], want.Query[i])
		}
	}
	if got.LeafRates["shard0"] != want.LeafRates[""] {
		t.Errorf("1-shard leaf rate %v != plain rate %v", got.LeafRates["shard0"], want.LeafRates[""])
	}
}

// TestRunSimTierDegenerateIdentity: a hit-rate-1, Inf-delay tier
// shields every query, so the composed simulation is byte-identical
// to an uncomposed cluster over the cache fleet's own trace, the tier
// rate is exactly zero, and the store never dispatches.
func TestRunSimTierDegenerateIdentity(t *testing.T) {
	w := testWorkload(t, 400)
	spec := Spec{Tier: &TierSpec{
		HitRate:   1,
		TierDelay: math.Inf(1),
		Cache:     FleetSpec{Replicas: 3},
		Store:     fleet(4),
	}}
	tp, err := Build(KV(w), spec, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	pol := reissue.SingleR{D: 2, Q: 0.3}
	rs := RunSpec{
		N: 400, Warmup: 50, Lambda: 0.5, Seed: 21,
		Policies: map[string]reissue.Policy{"cache": pol},
	}
	got, err := tp.RunSim(rs)
	if err != nil {
		t.Fatal(err)
	}

	// The comparator replays the cache leaf's effective trace through
	// an uncomposed simulator cluster with the same seeds and zero
	// structural salts — what the degenerate composition must
	// collapse to.
	leaf := tp.leaves["cache"]
	c, err := cluster.New(cluster.Config{
		Servers:      leaf.replicas,
		SpeedFactors: leaf.speeds,
		ArrivalRate:  rs.Lambda,
		Queries:      rs.N,
		Warmup:       0,
		Source:       &cluster.TraceSource{Times: leaf.trace},
		LB:           cluster.HashedLB{},
		Seed:         rs.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := c.Run(pol)
	for i, q := range got.Query {
		if q != want.Query[rs.Warmup+i] {
			t.Fatalf("query %d: degenerate tier %v != plain cache %v", i, q, want.Query[rs.Warmup+i])
		}
	}
	if got.TierRates[""] != 0 {
		t.Errorf("TierRate = %v, want exactly 0 (every query shielded)", got.TierRates[""])
	}
	if got.LeafRates["store"] != 0 {
		t.Errorf("store leaf rate = %v, want 0 (never dispatched)", got.LeafRates["store"])
	}
}

// TestRunLiveSmoke drives a small composed live run end to end and
// checks the measurement surface: latencies, per-leaf rates, tier
// rate denominators.
func TestRunLiveSmoke(t *testing.T) {
	w := testWorkload(t, 80)
	opt := testOptions()
	opt.Unit = 200 * time.Microsecond
	tp, err := Build(KV(w), depth2Spec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	lam, err := tp.ArrivalRate(0.2, "cache")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tp.RunLive(RunSpec{
		N: 80, Warmup: 20, Lambda: lam, Seed: 7,
		Policies: map[string]reissue.Policy{"cache": reissue.SingleR{D: 3, Q: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Query) != 60 {
		t.Fatalf("measured %d queries, want 60", len(res.Query))
	}
	for i, q := range res.Query {
		if q <= 0 {
			t.Fatalf("query %d latency %v, want positive", i, q)
		}
	}
	for _, path := range []string{"cache", "store/shard0", "store/shard1"} {
		if _, ok := res.LeafRates[path]; !ok {
			t.Errorf("no leaf rate for %q", path)
		}
	}
	tr, ok := res.TierRates[""]
	if !ok || tr < 0 || tr > 1 {
		t.Errorf("TierRates[\"\"] = %v, %v — want a fraction", tr, ok)
	}
	if !math.IsNaN(res.TailLatency(0.5)) && res.TailLatency(0.5) <= 0 {
		t.Errorf("median %v, want positive", res.TailLatency(0.5))
	}
}

// TestSearchWorkload builds the search workload as a plain fleet and
// as a 2-shard fan-out and replays both in the simulator: every shard
// replays the full query trace over its slice of the corpus, and
// LeafResp carries each fleet's measured log.
func TestSearchWorkload(t *testing.T) {
	const n, warmup = 60, 10
	rs := RunSpec{N: n, Warmup: warmup, Lambda: 0.05, Seed: 3}
	for _, tc := range []struct {
		spec  Spec
		paths []string
	}{
		{fleet(2), []string{""}},
		{Spec{Shard: &ShardSpec{N: 2, Child: fleet(2)}}, []string{"shard0", "shard1"}},
	} {
		tp, err := Build(testSearch(n), tc.spec, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if tp.MaxQueries() != n {
			t.Errorf("MaxQueries = %d, want the %d-query trace", tp.MaxQueries(), n)
		}
		res, err := tp.RunSim(rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Query) != n-warmup {
			t.Fatalf("measured %d queries, want %d", len(res.Query), n-warmup)
		}
		for _, p := range tc.paths {
			if len(res.LeafResp[p]) != n-warmup {
				t.Errorf("LeafResp[%q] has %d entries, want %d", p, len(res.LeafResp[p]), n-warmup)
			}
		}
	}
}

// measureN and measureWarmup size the live measurement-contract runs;
// measureOpt runs them at a half-millisecond unit.
const measureN, measureWarmup = 300, 50

var measureOpt = Options{Unit: 500 * time.Microsecond}

// TestRunLiveShardMeasurement pins the live measurement contract of a
// fan-out: warmup is excluded from the end-to-end log and from every
// per-shard log and rate, and each shard sees every measured query.
func TestRunLiveShardMeasurement(t *testing.T) {
	const n, warmup = measureN, measureWarmup
	w := testWorkload(t, n)
	opt := measureOpt

	sharded, err := Build(KV(w), Spec{Shard: &ShardSpec{N: 2, Child: fleet(2)}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharded.RunLive(RunSpec{
		N: n, Warmup: warmup, Lambda: 0.25, Seed: 7,
		Policies: map[string]reissue.Policy{"shard": reissue.SingleR{D: 0, Q: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Query) != n-warmup {
		t.Fatalf("got %d query samples, want %d", len(res.Query), n-warmup)
	}
	for _, p := range []string{"shard0", "shard1"} {
		if len(res.LeafResp[p]) != n-warmup {
			t.Errorf("%s: %d primary samples, want %d", p, len(res.LeafResp[p]), n-warmup)
		}
		if r := res.LeafRates[p]; math.Abs(r-0.5) > 0.09 {
			t.Errorf("%s reissue rate %.3f far from Q=0.5", p, r)
		}
	}
	if tl := res.TailLatency(0.5); math.IsNaN(tl) || tl <= 0 {
		t.Errorf("end-to-end median %v", tl)
	}
}

// TestRunLiveTierMeasurement pins the live measurement contract of a
// cache tier: warmup is excluded from the tier rate and from both
// fleets' logs, and the store behind an Inf-delay tier sees exactly
// the post-warmup misses of the tier's shared hit stream.
func TestRunLiveTierMeasurement(t *testing.T) {
	const n, warmup = measureN, measureWarmup
	w := testWorkload(t, n)
	opt := measureOpt

	tiered, err := Build(KV(w), Spec{Tier: &TierSpec{
		HitRate: 0.6, TierDelay: math.Inf(1),
		Cache: FleetSpec{Replicas: 2}, Store: fleet(2),
	}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tiered.RunLive(RunSpec{N: n, Warmup: warmup, Lambda: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := tiered.Hits("")
	misses := 0
	for _, hit := range hits[warmup:n] {
		if !hit {
			misses++
		}
	}
	if want := float64(misses) / float64(n-warmup); res.TierRates[""] != want {
		t.Errorf("tier rate %v, want the post-warmup miss fraction %v exactly", res.TierRates[""], want)
	}
	if len(res.LeafResp["cache"]) != n-warmup {
		t.Errorf("cache log has %d entries, want %d", len(res.LeafResp["cache"]), n-warmup)
	}
	if len(res.LeafResp["store"]) != misses {
		t.Errorf("store log has %d entries, want the %d post-warmup misses", len(res.LeafResp["store"]), misses)
	}
	if res.LeafRates["cache"] != 0 || res.LeafRates["store"] != 0 {
		t.Errorf("None policies reissued: %v", res.LeafRates)
	}
}
