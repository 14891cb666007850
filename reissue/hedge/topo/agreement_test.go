package topo

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/searchengine"
	"repro/reissue"
	"repro/reissue/hedge/backend"
)

// Agreement-test parameters — the multi-tier agreement test's
// wall-clock scale and tail band, applied per composition depth;
// rates are held to metrics.AgreementBand.
const (
	topoRho     = 0.28 // utilization of the entry fleet
	topoK       = 0.99
	topoUnit    = 3 * time.Millisecond
	topoMinMS   = 1.0
	topoTailTol = 0.35
	// agreeB is the reissue budget the tuned policies are fitted to:
	// per shard in the sharded test, within the store in the tiered one.
	agreeB = 0.05
	// The sharded and tiered tests keep the run seeds they were
	// validated with: liveSeed drives the live arrivals and coins,
	// simSeed the simulator's. The worlds share the arrival rate, not
	// the instants (stats.NewRNG(seed) live, NewRNG(seed).Split(1)
	// simulated), so one shared seed would buy no exactness while
	// changing the validated draws.
	liveSeed = 21
	simSeed  = 77
)

// runSim replays rs on the simulator twin at simSeed.
func runSim(tp *Topology, rs RunSpec) (*Result, error) {
	rs.Seed = simSeed
	return tp.RunSim(rs)
}

// topoSpeeds gives a fleet one permanently slow replica — the
// canonical tail driver of the single-fleet agreement tests.
func topoSpeeds(replicas int) []float64 {
	speeds := make([]float64, replicas)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[replicas-1] = 2.5
	return speeds
}

func agreeWorkload(t *testing.T, n int) *kvstore.Workload {
	t.Helper()
	// Calibrate the sleep response before the allocation-heavy
	// workload build puts GC pressure on the measurement window.
	backend.MeasureSleepResponse()
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 300, NumQueries: n, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// topoPoint is one composed topology under agreement test: the spec,
// the per-slot rate-anchor policies, the fleet whose utilization sets
// the arrival rate, and the tier paths whose base rates must match
// EXACTLY (Inf-delay tiers dispatch on the shared miss stream alone).
type topoPoint struct {
	name       string
	spec       Spec
	anchors    map[string]reissue.Policy
	rhoPath    string
	exactTiers []string
}

// runTopoAgreement executes the shared procedure on one composed
// topology: build both worlds from one Spec, measure a live
// no-reissue baseline and a fixed per-slot rate anchor, replay the
// identical runs on the simulator twin with the same arrival seed,
// and hold every edge's statistics to the single-topology tolerance
// bands.
func runTopoAgreement(t *testing.T, pt topoPoint, n, warmup int) {
	t.Helper()
	w := agreeWorkload(t, n)
	tp, err := Build(KV(w), pt.spec, Options{Unit: topoUnit, MinServiceMS: topoMinMS, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	lambda, err := tp.ArrivalRate(topoRho, pt.rhoPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: lambda %.3f queries/model-ms over fleets %v", pt.name, lambda, tp.FleetPaths())

	// Burn-in: bring the process to steady state before measuring.
	if _, err := tp.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	base := RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21}
	anchored := base
	anchored.Policies = pt.anchors

	liveBase, err := tp.RunLive(base)
	if err != nil {
		t.Fatal(err)
	}
	liveFixed, err := tp.RunLive(anchored)
	if err != nil {
		t.Fatal(err)
	}
	simBase, err := tp.RunSim(base)
	if err != nil {
		t.Fatal(err)
	}
	simFixed, err := tp.RunSim(anchored)
	if err != nil {
		t.Fatal(err)
	}

	// Reissue-rate agreement at matched load, edge by edge: the same
	// fixed policy over the same effective trace must reissue at the
	// same per-fleet rate in both worlds, and every tier's delay rule
	// must dispatch its store at the same tier rate.
	for path, lr := range liveFixed.LeafRates {
		sr, ok := simFixed.LeafRates[path]
		if !ok {
			t.Errorf("%s: sim has no leaf %q", pt.name, path)
			continue
		}
		t.Logf("%s leaf %q rate: live %.4f sim %.4f", pt.name, path, lr, sr)
		if d := math.Abs(lr - sr); d > metrics.AgreementBand {
			t.Errorf("%s leaf %q rate differs by %.3f: live=%.4f sim=%.4f", pt.name, path, d, lr, sr)
		}
	}
	for path, lr := range liveFixed.TierRates {
		sr, ok := simFixed.TierRates[path]
		if !ok {
			t.Errorf("%s: sim has no tier %q", pt.name, path)
			continue
		}
		t.Logf("%s tier %q rate: live %.4f sim %.4f", pt.name, path, lr, sr)
		if d := math.Abs(lr - sr); d > metrics.AgreementBand {
			t.Errorf("%s tier %q rate differs by %.3f: live=%.4f sim=%.4f", pt.name, path, d, lr, sr)
		}
	}

	// With an infinite tier delay the tier rate IS the measured miss
	// rate of that tier's shared Bernoulli stream: the two worlds must
	// agree exactly, not just within tolerance.
	for _, path := range pt.exactTiers {
		if liveBase.TierRates[path] != simBase.TierRates[path] {
			t.Errorf("%s tier %q shared miss stream diverged: live %.6f, sim %.6f",
				pt.name, path, liveBase.TierRates[path], simBase.TierRates[path])
		}
	}

	// Tail-latency agreement: the composed end-to-end tail must sit in
	// the same regime in both worlds.
	liveP99 := liveBase.TailLatency(topoK)
	simP99 := simBase.TailLatency(topoK)
	t.Logf("%s baseline end-to-end P99 model-ms: live %.2f, sim %.2f", pt.name, liveP99, simP99)
	if d := math.Abs(liveP99 - simP99); d > topoTailTol*simP99 {
		t.Errorf("%s baseline P99 disagrees beyond %.0f%%: live %.2f, sim %.2f",
			pt.name, 100*topoTailTol, liveP99, simP99)
	}
}

// TestTopoSimLiveAgreement cross-validates composed live graphs
// against their simulator twins, one sub-test per composition depth:
// a cache tier over a sharded store, a sharded fleet of per-shard
// cache tiers, and a depth-3 stack whose store shards sit behind the
// HTTP transport.
func TestTopoSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("live composed runs take tens of wall-clock seconds")
	}
	const (
		n      = 900
		warmup = 150
	)
	points := []topoPoint{
		{
			// Depth 2: one cache fleet shielding a 2-shard store —
			// proactive (finite) tier delay, so the tier rate
			// exercises the completion-check rule across the fan-out.
			// The cache fleet must be homogeneous here: the simulator
			// serves every non-shielded store sub-query to completion
			// at its original arrival instant, while live cancels the
			// proactively-dispatched store visit the moment a slow
			// cache hit lands. A heterogeneous cache at this load puts
			// ~20% of hits past the tier delay, and those phantom
			// store visits arrive in queueing-correlated bursts that
			// inflate the simulated store tail ~2x over live. With a
			// light cache tail the slow-hit population is a few
			// percent and the approximation holds; the heterogeneous
			// store shards then drive the composed tail through the
			// miss stream, which both worlds share exactly.
			name: "tier-over-sharded-store",
			spec: Spec{Tier: &TierSpec{
				// Hit rate 0.5 pushes half the traffic through to the
				// store shards: misses are shared exactly between the
				// two worlds, and the per-shard leaf rates are
				// estimated from enough coin events to sit well
				// inside the absolute tolerance (at hit rates much
				// above this, a shard sees so few reissue coins that
				// its realized rate is decided by a handful of
				// Bernoulli draws).
				HitRate:   0.5,
				TierDelay: 4,
				Cache:     FleetSpec{Replicas: 3},
				Store: Spec{Shard: &ShardSpec{N: 2,
					Child: Spec{Fleet: &FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)}}}},
			}},
			anchors: map[string]reissue.Policy{
				"cache":       reissue.SingleR{D: 2, Q: 0.25},
				"store/shard": reissue.SingleR{D: 4, Q: 0.25},
			},
			rhoPath: "cache",
		},
		{
			// Depth 2, the other composition order: a fan-out whose
			// shards each run their own cache tier (per-shard caches
			// with independent hit streams), pure fall-through so the
			// per-shard miss streams pin both worlds exactly.
			name: "sharded-tiers",
			spec: Spec{Shard: &ShardSpec{N: 2, Child: Spec{Tier: &TierSpec{
				HitRate:   0.7,
				TierDelay: math.Inf(1),
				Cache:     FleetSpec{Replicas: 2, SpeedFactors: topoSpeeds(2)},
				Store:     Spec{Fleet: &FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)}},
			}}}},
			anchors: map[string]reissue.Policy{
				"shard/cache": reissue.SingleR{D: 2, Q: 0.25},
				"shard/store": reissue.SingleR{D: 5, Q: 0.25},
			},
			rhoPath:    "shard0/cache",
			exactTiers: []string{"shard0", "shard1"},
		},
		{
			// Depth 3: cache tier over a sharded store whose shards are
			// HTTP replica fleets — every seam at once: tier shield,
			// fan-out merge, wire-overhead calibration. The HTTP fleets
			// are homogeneous: the wire overhead is folded into the
			// trace once per query, and a speed-multiplied overhead
			// approximation on a slow replica would push it toward its
			// knee (see the sharded HTTP agreement test).
			name: "tier-over-sharded-http",
			spec: Spec{Tier: &TierSpec{
				HitRate:   0.5,
				TierDelay: math.Inf(1),
				Cache:     FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)},
				Store: Spec{Shard: &ShardSpec{N: 2,
					Child: Spec{Fleet: &FleetSpec{Replicas: 2, HTTP: true}}}},
			}},
			anchors: map[string]reissue.Policy{
				"cache":       reissue.SingleR{D: 2, Q: 0.25},
				"store/shard": reissue.SingleR{D: 4, Q: 0.25},
			},
			rhoPath:    "cache",
			exactTiers: []string{""},
		},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			runTopoAgreement(t, pt, n, warmup)
		})
	}
}

// TestShardWrapperLiveParity: a 1-shard router wrapper around a fleet
// is the degenerate composition — same coins (shard 0 is unsalted),
// same arrivals — so its live measurements must match the uncomposed
// fleet's within the usual live tolerances.
func TestShardWrapperLiveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs take wall-clock seconds")
	}
	const (
		n      = 700
		warmup = 120
	)
	w := agreeWorkload(t, n)
	opt := Options{Unit: topoUnit, MinServiceMS: topoMinMS, Seed: 17}
	anchor := reissue.SingleR{D: 5, Q: 0.25}

	// Homogeneous replicas: the parity under test is wrapper-vs-plain,
	// and a 2.5x replica at this load sits near its knee, where
	// wall-clock jitter compounds through the queue and the P99 of two
	// separate processes-worth of runs stops being comparable.
	plain, err := Build(KV(w), Spec{Fleet: &FleetSpec{Replicas: 3}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Build(KV(w), Spec{Shard: &ShardSpec{N: 1,
		Child: Spec{Fleet: &FleetSpec{Replicas: 3}}}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := plain.ArrivalRate(topoRho, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	rp, err := plain.RunLive(RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21,
		Policies: map[string]reissue.Policy{"": anchor}})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wrapped.RunLive(RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21,
		Policies: map[string]reissue.Policy{"shard": anchor}})
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("rates: plain %.4f wrapped %.4f | P99: plain %.2f wrapped %.2f",
		rp.LeafRates[""], rw.LeafRates["shard0"], rp.TailLatency(topoK), rw.TailLatency(topoK))
	if d := math.Abs(rp.LeafRates[""] - rw.LeafRates["shard0"]); d > metrics.AgreementBand {
		t.Errorf("1-shard wrapper reissue rate differs by %.3f: plain=%.4f wrapped=%.4f",
			d, rp.LeafRates[""], rw.LeafRates["shard0"])
	}
	pp, wp := rp.TailLatency(topoK), rw.TailLatency(topoK)
	if d := math.Abs(pp - wp); d > topoTailTol*pp {
		t.Errorf("1-shard wrapper P99 disagrees beyond %.0f%%: plain %.2f, wrapped %.2f",
			100*topoTailTol, pp, wp)
	}
}

// TestTierWrapperLiveParity: a hit-rate-1, Inf-delay tier never
// dispatches its store, so the live composition must reproduce the
// uncomposed cache fleet (driven directly through backend.LiveSystem
// with the same seeds) within the usual live tolerances — and its
// tier and store rates must be exactly zero.
func TestTierWrapperLiveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs take wall-clock seconds")
	}
	const (
		n      = 700
		warmup = 120
	)
	w := agreeWorkload(t, n)
	anchor := reissue.SingleR{D: 2, Q: 0.25}
	tp, err := Build(KV(w), Spec{Tier: &TierSpec{
		HitRate:   1,
		TierDelay: math.Inf(1),
		Cache:     FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)},
		Store:     Spec{Fleet: &FleetSpec{Replicas: 2}},
	}}, Options{Unit: topoUnit, MinServiceMS: topoMinMS, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	lambda, err := tp.ArrivalRate(topoRho, "cache")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	rc, err := tp.RunLive(RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21,
		Policies: map[string]reissue.Policy{"cache": anchor}})
	if err != nil {
		t.Fatal(err)
	}
	if rc.TierRates[""] != 0 {
		t.Errorf("tier rate %v, want exactly 0: no query may dispatch the store", rc.TierRates[""])
	}
	if rc.LeafRates["store"] != 0 {
		t.Errorf("store leaf rate %v, want exactly 0", rc.LeafRates["store"])
	}

	// The uncomposed comparator drives the SAME cache substrate with
	// the same arrival seed and the same (unsalted) coin stream.
	plain := &backend.LiveSystem{
		Back: tp.leaves["cache"].src,
		N:    n, Warmup: warmup, Lambda: lambda, Seed: 21,
	}
	rp := plain.Run(anchor)

	t.Logf("rates: plain %.4f wrapped %.4f | P99: plain %.2f wrapped %.2f",
		rp.ReissueRate, rc.LeafRates["cache"], rp.TailLatency(topoK), rc.TailLatency(topoK))
	if d := math.Abs(rp.ReissueRate - rc.LeafRates["cache"]); d > metrics.AgreementBand {
		t.Errorf("degenerate tier cache rate differs by %.3f: plain=%.4f wrapped=%.4f",
			d, rp.ReissueRate, rc.LeafRates["cache"])
	}
	pp, wp := rp.TailLatency(topoK), rc.TailLatency(topoK)
	if d := math.Abs(pp - wp); d > topoTailTol*pp {
		t.Errorf("degenerate tier P99 disagrees beyond %.0f%%: plain %.2f, wrapped %.2f",
			100*topoTailTol, pp, wp)
	}
}

// percentile returns the k-th quantile (k in (0,1)) of xs, NaN when
// empty.
func percentile(xs []float64, k float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return metrics.TailLatency(xs, k*100)
}

// tune fits a SingleR at (topoK, agreeB) to the pooled baseline logs
// of the given fleets.
func tune(t *testing.T, base *Result, paths ...string) reissue.SingleR {
	t.Helper()
	var pooled []float64
	for _, p := range paths {
		pooled = append(pooled, base.LeafResp[p]...)
	}
	pol, _, err := reissue.ComputeOptimalSingleR(pooled, nil, topoK, agreeB)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// withPolicies returns rs running the given slot policies.
func withPolicies(rs RunSpec, pols map[string]reissue.Policy) RunSpec {
	rs.Policies = pols
	return rs
}

// runLiveHedged runs rs live and, when its tail did not beat
// 0.97·baseP99, reruns it once and keeps the better tail. The P99 of
// a wall-clock run is decided by a handful of samples, so one
// OS-level stall can flip it; the rerun is the same trial (common
// random numbers: identical arrivals, coins and misses), so only
// wall-clock noise differs.
func runLiveHedged(t *testing.T, tp *Topology, rs RunSpec, baseP99 float64) (*Result, float64) {
	t.Helper()
	res, err := tp.RunLive(rs)
	if err != nil {
		t.Fatal(err)
	}
	p99 := res.TailLatency(topoK)
	if p99 >= 0.97*baseP99 {
		retry, err := tp.RunLive(rs)
		if err != nil {
			t.Fatal(err)
		}
		if p := retry.TailLatency(topoK); p < p99 {
			t.Logf("live hedged rerun after a stall-shaped tail: %.2f -> %.2f", p99, p)
			res, p99 = retry, p
		}
	}
	return res, p99
}

// TestShardSimLiveAgreement cross-validates the sharded fan-out
// runtime against its simulator twin: the same partitioned workload,
// per-shard replication and heterogeneity (one 2.5x replica per
// shard), and open-loop arrival process, with the same data-driven
// tuning procedure run over each world — in process for S ∈ {2, 4},
// and across the HTTP transport for S = 2 with the measured wire
// overhead folded into the simulator trace.
func TestShardSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("live sharded runs take tens of wall-clock seconds")
	}
	const (
		n        = 1500
		warmup   = 250
		replicas = 3
	)
	fleet := FleetSpec{Replicas: replicas, SpeedFactors: topoSpeeds(replicas)}
	for _, S := range []int{2, 4} {
		S := S
		t.Run(fmt.Sprintf("inprocess-S%d", S), func(t *testing.T) {
			// More shards means more goroutine work per model
			// millisecond (S fan-out sub-queries per arrival,
			// S×replicas live servers), so the wall-clock scale grows
			// with S to keep that work a small fraction of each model
			// millisecond — race-detector instrumentation included.
			unit := 2*time.Millisecond + time.Duration(S/4)*time.Millisecond
			// The anchor delay sits in the dense region of the per-shard
			// response-time distribution: partitioned kv times are
			// clamped near 1 model-ms, and queueing pushes responses to
			// a few.
			runShardAgreement(t, KV(agreeWorkload(t, n)), S, fleet,
				Options{Unit: unit, MinServiceMS: topoMinMS}, reissue.SingleR{D: 3, Q: 0.25}, n, warmup)
		})
	}
	t.Run("http-S2", func(t *testing.T) {
		// The HTTP variant runs the SEARCH workload: its partitioned
		// holds (~29 model-ms) dwarf both the kernel timer resolution
		// and the per-request wire cost, so the calibration terms stay
		// second-order. Partitioned kv holds (~1.4 model-ms) sit close
		// enough to those noise floors that the speed-factor-multiplied
		// overhead approximation (see backend.EffectiveModelTimes)
		// pushes the simulated slow replica near criticality while the
		// live one is not. Half a wall-ms per model-ms keeps the run
		// tractable with every hold far above the sleep floor, and no
		// MinServiceMS clamp is needed.
		backend.MeasureSleepResponse()
		w := Search(searchengine.WorkloadConfig{
			Corpus:     searchengine.CorpusConfig{NumDocs: 6000, VocabSize: 6000, Seed: 4},
			NumQueries: 800, Seed: 5,
		})
		http := fleet
		http.HTTP = true
		// The search per-shard response-time body sits near the ~29
		// model-ms mean hold.
		runShardAgreement(t, w, 2, http, Options{Unit: 500 * time.Microsecond},
			reissue.SingleR{D: 35, Q: 0.25}, 800, 160)
	})
}

// runShardAgreement executes the shared procedure on one S-shard
// fan-out: measure a live no-reissue baseline, a fixed rate-anchor
// policy, and a policy tuned from the baseline's pooled per-shard
// logs — then the identical procedure on the simulator twin, tuned
// from the simulated baseline — and hold the two worlds to the
// single-fleet tolerances.
func runShardAgreement(t *testing.T, w Workload, S int, fleet FleetSpec, opt Options, fixedPol reissue.SingleR, n, warmup int) {
	t.Helper()
	tp, err := Build(w, Spec{Shard: &ShardSpec{N: S, Child: Spec{Fleet: &fleet}}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	lambda, err := tp.ArrivalRate(topoRho, "shard0")
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]string, S)
	for s := range shards {
		shards[s] = fmt.Sprintf("shard%d", s)
	}
	// meanRate is the mean per-shard reissue rate, the statistic a
	// per-shard budget bounds.
	meanRate := func(r *Result) float64 {
		m := 0.0
		for _, p := range shards {
			m += r.LeafRates[p] / float64(S)
		}
		return m
	}
	shardPol := func(p reissue.Policy) map[string]reissue.Policy { return map[string]reissue.Policy{"shard": p} }

	// Burn-in: a short throwaway run brings the process to steady
	// state (page cache, scheduler, GC) before anything is measured.
	if _, err := tp.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	base := RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: liveSeed}
	run := func(world func(RunSpec) (*Result, error), rs RunSpec) *Result {
		res, err := world(rs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	liveBase := run(tp.RunLive, base)
	liveFixed := run(tp.RunLive, withPolicies(base, shardPol(fixedPol)))
	livePol := tune(t, liveBase, shards...)
	liveBaseP99 := liveBase.TailLatency(topoK)
	liveHedge, liveHedgeP99 := runLiveHedged(t, tp, withPolicies(base, shardPol(livePol)), liveBaseP99)

	sim := func(rs RunSpec) (*Result, error) { return runSim(tp, rs) }
	simBase := run(sim, base)
	simFixed := run(sim, withPolicies(base, shardPol(fixedPol)))
	simPol := tune(t, simBase, shards...)
	simHedge := run(sim, withPolicies(base, shardPol(simPol)))
	simBaseP99, simHedgeP99 := simBase.TailLatency(topoK), simHedge.TailLatency(topoK)

	t.Logf("S=%d policies: live %v, sim %v", S, livePol, simPol)
	t.Logf("S=%d end-to-end P99 model-ms: live %.2f -> %.2f, sim %.2f -> %.2f",
		S, liveBaseP99, liveHedgeP99, simBaseP99, simHedgeP99)
	t.Logf("S=%d fixed-policy mean per-shard reissue rate: live %.4f, sim %.4f",
		S, meanRate(liveFixed), meanRate(simFixed))
	t.Logf("S=%d tuned-policy mean per-shard reissue rate: live %.4f, sim %.4f, budget %.2f",
		S, meanRate(liveHedge), meanRate(simHedge), agreeB)

	// Rate agreement at matched load on the low-variance statistic:
	// the same fixed policy must reissue at the same mean per-shard
	// rate in both worlds.
	if d := math.Abs(meanRate(liveFixed) - meanRate(simFixed)); d > metrics.AgreementBand {
		t.Errorf("S=%d fixed-policy reissue rates differ by %.3f: live=%.4f sim=%.4f",
			S, d, meanRate(liveFixed), meanRate(simFixed))
	}
	// Tuned policies: realized rates are tail statistics; sanity-band
	// them around the per-shard budget.
	for name, rate := range map[string]float64{"live": meanRate(liveHedge), "sim": meanRate(simHedge)} {
		if rate <= 0 || rate > 2.5*agreeB {
			t.Errorf("S=%d %s tuned reissue rate %.4f outside (0, %.3f]", S, name, rate, 2.5*agreeB)
		}
	}
	// Both worlds must show per-shard hedging improving the END-TO-END
	// max-over-shards tail — the sharded payoff.
	if liveHedgeP99 >= 0.97*liveBaseP99 {
		t.Errorf("S=%d live hedging did not improve end-to-end P99: %.2f -> %.2f", S, liveBaseP99, liveHedgeP99)
	}
	if simHedgeP99 >= 0.97*simBaseP99 {
		t.Errorf("S=%d sim hedging did not improve end-to-end P99: %.2f -> %.2f", S, simBaseP99, simHedgeP99)
	}
}

// tierPoint is one (hit-rate, tier-delay) point of the two-tier
// agreement test, naming the hedging payoff that regime exhibits —
// the two worlds must agree on it:
//
//   - "store-hedge": at a miss-heavy point the end-to-end tail lives
//     on the store, so a tuned within-store reissue policy trims it.
//   - "tier-delay": at a hit-heavy point the store has headroom, and
//     proactively hedging the whole cache tier against it rescues slow
//     hits — the tier-level knob beats pure fall-through.
type tierPoint struct {
	name      string
	hitRate   float64
	tierDelay float64 // model-ms; +Inf = pure fall-through
	payoff    string
}

// tierSpec is the two-tier topology under test: a cache fleet of 3
// in front of a store fleet of 4 (the usual shape of a cache shielding
// a bigger authoritative tier), each with one 2.5x replica.
func tierSpec(hitRate, tierDelay float64) Spec {
	return Spec{Tier: &TierSpec{
		HitRate:   hitRate,
		TierDelay: tierDelay,
		Cache:     FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)},
		Store:     Spec{Fleet: &FleetSpec{Replicas: 4, SpeedFactors: topoSpeeds(4)}},
	}}
}

// TestTierSimLiveAgreement cross-validates the two-tier hedging
// runtime against its simulator twin: the same cache workload (shared
// Bernoulli miss stream), per-tier replication and heterogeneity, tier
// delay, and open-loop arrival process, with the same data-driven
// store-tuning procedure run over each world — at a classic
// fall-through cache/store point and a proactively hedged one.
func TestTierSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("live tiered runs take tens of wall-clock seconds")
	}
	const (
		n      = 1500
		warmup = 250
	)
	for _, pt := range []tierPoint{
		{name: "fallthrough-h50", hitRate: 0.5, tierDelay: math.Inf(1), payoff: "store-hedge"},
		{name: "proactive-h85-d4", hitRate: 0.85, tierDelay: 4, payoff: "tier-delay"},
	} {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			runTierAgreement(t, agreeWorkload(t, n), pt, n, warmup)
		})
	}
}

// runTierAgreement executes the shared procedure on one point: a live
// no-reissue baseline and fixed per-tier rate anchors, replayed on the
// simulator twin, with per-tier and tier rates held to the band, the
// shared miss stream held to exact equality, and the point's payoff
// asserted in both worlds.
func runTierAgreement(t *testing.T, w *kvstore.Workload, pt tierPoint, n, warmup int) {
	t.Helper()
	// Two tiers mean up to two hedged sub-queries' worth of goroutine
	// work per arrival, with the cache's slow replica near its knee, so
	// the tiered test runs the coarser 3 ms wall-clock scale.
	// The build seed whose root-tier hit stream (salted by the tier's
	// path, see hitSeed) is the kvstore CacheView seed 17 this test was
	// validated with: the shared miss stream stays the same draw.
	opt := Options{Unit: topoUnit, MinServiceMS: topoMinMS, Seed: 17 ^ hitSeed(0, "")}
	tp, err := Build(KV(w), tierSpec(pt.hitRate, pt.tierDelay), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	lambda, err := tp.ArrivalRate(topoRho, "cache")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: lambda %.3f queries/model-ms", pt.name, lambda)
	if _, err := tp.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	base := RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: liveSeed}
	// Cache holds are clamped near 1 model-ms, slow-replica holds near
	// 2.5; D=2 sits in the queueing body between the two atoms. Store
	// responses center on the ~3 model-ms mean intersection with a
	// slow-replica atom near 7.5; D=8 sits past it, where the response
	// CDF is flat enough that the rate statistic is insensitive to the
	// small response-distribution shifts the two worlds'
	// approximations introduce.
	anchored := withPolicies(base, map[string]reissue.Policy{
		"cache": reissue.SingleR{D: 2, Q: 0.25},
		"store": reissue.SingleR{D: 8, Q: 0.25},
	})
	results := make([]*Result, 4)
	for i, rs := range []RunSpec{base, anchored, base, anchored} {
		if i < 2 {
			results[i], err = tp.RunLive(rs)
		} else {
			results[i], err = runSim(tp, rs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	liveBase, liveFixed, simBase, simFixed := results[0], results[1], results[2], results[3]
	liveBaseP99, simBaseP99 := liveBase.TailLatency(topoK), simBase.TailLatency(topoK)
	t.Logf("%s end-to-end baseline P99 model-ms: live %.2f, sim %.2f", pt.name, liveBaseP99, simBaseP99)

	// Reissue-rate agreement at matched load: the same fixed policies
	// must reissue at the same per-tier rates, and the same tier delay
	// must dispatch the store at the same tier rate, in both worlds.
	for name, pair := range map[string][2]float64{
		"cache": {liveFixed.LeafRates["cache"], simFixed.LeafRates["cache"]},
		"store": {liveFixed.LeafRates["store"], simFixed.LeafRates["store"]},
		"tier":  {liveFixed.TierRates[""], simFixed.TierRates[""]},
	} {
		t.Logf("%s fixed-anchor %s rate: live %.4f sim %.4f", pt.name, name, pair[0], pair[1])
		if d := math.Abs(pair[0] - pair[1]); d > metrics.AgreementBand {
			t.Errorf("%s %s-rate differs by %.3f: live=%.4f sim=%.4f", pt.name, name, d, pair[0], pair[1])
		}
	}
	// With an infinite tier delay the tier rate IS the measured miss
	// rate, and the miss bits are shared bit for bit: the two worlds
	// must agree exactly, not just within tolerance.
	if math.IsInf(pt.tierDelay, 1) && liveBase.TierRates[""] != simBase.TierRates[""] {
		t.Errorf("%s shared miss stream diverged: live tier rate %.6f, sim %.6f",
			pt.name, liveBase.TierRates[""], simBase.TierRates[""])
	}
	// Tail-latency agreement: the two worlds must sit in the same
	// end-to-end tail regime. The tiered tail mixes both tiers'
	// queueing approximations, so the band is wider than a rate band.
	if d := math.Abs(liveBaseP99 - simBaseP99); d > topoTailTol*simBaseP99 {
		t.Errorf("%s baseline end-to-end P99 disagrees beyond %.0f%%: live %.2f, sim %.2f",
			pt.name, 100*topoTailTol, liveBaseP99, simBaseP99)
	}

	switch pt.payoff {
	case "store-hedge":
		assertStoreHedgePayoff(t, tp, pt, base, liveBase, simBase)
	case "tier-delay":
		hits, _ := tp.Hits("")
		fall, err := Build(KV(w), tierSpec(pt.hitRate, math.Inf(1)), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer fall.Close()
		assertTierDelayPayoff(t, fall, pt, hits, base, liveBase, simBase)
	default:
		t.Fatalf("unknown payoff %q", pt.payoff)
	}
}

// assertStoreHedgePayoff tunes a within-store SingleR from each
// world's own baseline store log at the budget and checks the
// end-to-end tail improves in both worlds, with the realized store
// rates sanity-banded around the budget.
func assertStoreHedgePayoff(t *testing.T, tp *Topology, pt tierPoint, base RunSpec, liveBase, simBase *Result) {
	t.Helper()
	liveBaseP99, simBaseP99 := liveBase.TailLatency(topoK), simBase.TailLatency(topoK)
	livePol := tune(t, liveBase, "store")
	liveHedge, liveHedgeP99 := runLiveHedged(t, tp,
		withPolicies(base, map[string]reissue.Policy{"store": livePol}), liveBaseP99)
	simPol := tune(t, simBase, "store")
	simHedge, err := runSim(tp, withPolicies(base, map[string]reissue.Policy{"store": simPol}))
	if err != nil {
		t.Fatal(err)
	}
	simHedgeP99 := simHedge.TailLatency(topoK)

	t.Logf("%s store policies: live %v, sim %v", pt.name, livePol, simPol)
	t.Logf("%s store-hedge payoff P99 model-ms: live %.2f -> %.2f, sim %.2f -> %.2f",
		pt.name, liveBaseP99, liveHedgeP99, simBaseP99, simHedgeP99)
	for name, rate := range map[string]float64{
		"live": liveHedge.LeafRates["store"], "sim": simHedge.LeafRates["store"],
	} {
		if rate <= 0 || rate > 2.5*agreeB {
			t.Errorf("%s %s tuned store rate %.4f outside (0, %.3f]", pt.name, name, rate, 2.5*agreeB)
		}
	}
	if liveHedgeP99 >= 0.97*liveBaseP99 {
		t.Errorf("%s live store hedging did not improve end-to-end P99: %.2f -> %.2f",
			pt.name, liveBaseP99, liveHedgeP99)
	}
	if simHedgeP99 >= 0.97*simBaseP99 {
		t.Errorf("%s sim store hedging did not improve end-to-end P99: %.2f -> %.2f",
			pt.name, simBaseP99, simHedgeP99)
	}
}

// hitTail returns the k-th quantile of the end-to-end responses of the
// HIT queries — the subpopulation a proactive tier delay rescues: a
// hit's fall-through response is its cache response, unbounded by the
// cache's slow-replica backlog, while its proactive response is capped
// at min(cache, delay + store).
func hitTail(query []float64, hits []bool, warmup int, k float64) float64 {
	var sub []float64
	for i, r := range query {
		if hits[warmup+i] {
			sub = append(sub, r)
		}
	}
	return percentile(sub, k)
}

// assertTierDelayPayoff compares the point's proactive tier delay
// (the proactive baselines) against pure fall-through at the same hit
// rate and hit stream (the fall topology), in both worlds. The
// headline statistic is the hit-subpopulation tail; the overall P99
// sits mostly in the miss path, so it is only held to a bounded tax.
func assertTierDelayPayoff(t *testing.T, fall *Topology, pt tierPoint, hits []bool, base RunSpec, livePro, simPro *Result) {
	t.Helper()
	liveFall, err := fall.RunLive(base)
	if err != nil {
		t.Fatal(err)
	}
	simFall, err := runSim(fall, base)
	if err != nil {
		t.Fatal(err)
	}
	w := base.Warmup
	liveFallHit, liveProHit := hitTail(liveFall.Query, hits, w, topoK), hitTail(livePro.Query, hits, w, topoK)
	simFallHit, simProHit := hitTail(simFall.Query, hits, w, topoK), hitTail(simPro.Query, hits, w, topoK)
	liveFallP99, liveProP99 := liveFall.TailLatency(topoK), livePro.TailLatency(topoK)
	simFallP99, simProP99 := simFall.TailLatency(topoK), simPro.TailLatency(topoK)

	t.Logf("%s tier-delay payoff, hit-subpopulation P99 model-ms: live %.2f (fall-through) -> %.2f (proactive), sim %.2f -> %.2f",
		pt.name, liveFallHit, liveProHit, simFallHit, simProHit)
	t.Logf("%s tier-delay payoff, overall P99 model-ms: live %.2f -> %.2f, sim %.2f -> %.2f",
		pt.name, liveFallP99, liveProP99, simFallP99, simProP99)
	if liveProHit >= 0.97*liveFallHit {
		t.Errorf("%s live proactive tier hedge did not rescue the hit tail: %.2f -> %.2f",
			pt.name, liveFallHit, liveProHit)
	}
	if simProHit >= 0.97*simFallHit {
		t.Errorf("%s sim proactive tier hedge did not rescue the hit tail: %.2f -> %.2f",
			pt.name, simFallHit, simProHit)
	}
	// The rescue is not free: proactive store dispatches add store
	// load, and the miss path pays a small queueing tax for it. Bound
	// the tax — the tradeoff must stay a tradeoff, not a collapse.
	if liveProP99 > 1.10*liveFallP99 {
		t.Errorf("%s live proactive tier hedge overloaded the miss path: overall P99 %.2f -> %.2f",
			pt.name, liveFallP99, liveProP99)
	}
	if simProP99 > 1.10*simFallP99 {
		t.Errorf("%s sim proactive tier hedge overloaded the miss path: overall P99 %.2f -> %.2f",
			pt.name, simFallP99, simProP99)
	}
}
