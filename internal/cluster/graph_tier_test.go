package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
)

// The cache→store deployment's behaviour, checked on a tier node over
// leaf fleets built by tierGraph.

// tierFixture is a two-tier deployment over synthetic traces: a
// uniform fast cache trace, a slower store trace, and a Bernoulli hit
// stream.
type tierFixture struct {
	base                   Config
	cacheTimes, storeTimes []float64
	hits                   []bool
}

func tieredFixture(n, warmup int, hitRate float64) tierFixture {
	total := n + warmup
	f := tierFixture{
		base: Config{
			Servers:     3,
			ArrivalRate: 0.8,
			Queries:     n,
			Warmup:      warmup,
			LB:          HashedLB{},
			Seed:        5,
		},
		cacheTimes: make([]float64, total),
		storeTimes: make([]float64, total),
		hits:       make([]bool, total),
	}
	rng := stats.NewRNG(42)
	for i := range f.cacheTimes {
		f.cacheTimes[i] = 1.0
		f.storeTimes[i] = 2.0 + 4.0*rng.Float64()
	}
	hitRNG := stats.NewRNG(9)
	for i := range f.hits {
		f.hits[i] = hitRNG.Bool(hitRate)
	}
	return f
}

// run builds the fixture's graph at the given tier delay and runs it.
func (f tierFixture) run(t *testing.T, delay float64, cachePol, storePol reissue.Policy) *GraphResult {
	t.Helper()
	g := tierGraph(t, f.base, f.cacheTimes, f.storeTimes, f.hits, delay)
	return g.Run(tierPols(cachePol, storePol))
}

// hitRate is the realized cache-hit fraction over measured queries.
func (f tierFixture) hitRate() float64 {
	hits := 0
	for _, h := range f.hits[f.base.Warmup:] {
		if h {
			hits++
		}
	}
	return float64(hits) / float64(f.base.Queries)
}

// TestNewTieredValidation: a cache→store deployment with a fan-out
// fleet, a short hit stream, a negative or NaN tier delay, a missing
// or empty trace, or no servers is rejected at construction.
func TestNewTieredValidation(t *testing.T) {
	type tierArgs struct {
		base               Config
		cacheSrc, storeSrc ServiceSource
		hits               []bool
		delay              float64
	}
	f := tieredFixture(200, 50, 0.5)
	for name, mutate := range map[string]func(*tierArgs){
		"fanout":        func(a *tierArgs) { a.base.FanOut = 2 },
		"short hits":    func(a *tierArgs) { a.hits = a.hits[:10] },
		"neg delay":     func(a *tierArgs) { a.delay = -1 },
		"nan delay":     func(a *tierArgs) { a.delay = math.NaN() },
		"nil cache src": func(a *tierArgs) { a.cacheSrc = nil },
		"nil store src": func(a *tierArgs) { a.storeSrc = nil },
		"zero servers":  func(a *tierArgs) { a.base.Servers = 0 },
		"empty store":   func(a *tierArgs) { a.storeSrc = &TraceSource{} },
	} {
		a := tierArgs{
			base:     f.base,
			cacheSrc: &TraceSource{Times: f.cacheTimes},
			storeSrc: &TraceSource{Times: f.storeTimes},
			hits:     f.hits,
			delay:    2,
		}
		mutate(&a)
		if _, err := buildTierGraph(a.base, a.cacheSrc, a.storeSrc, a.hits, a.delay); err == nil {
			t.Errorf("tiered deployment accepted %s", name)
		}
	}
}

// TestTieredFallThroughOnly checks the pure fall-through regime
// (TierDelay = Inf): every hit is shielded (completes at its cache
// response, occupies no store capacity), every miss falls through,
// and the tier rate is exactly the measured miss rate.
func TestTieredFallThroughOnly(t *testing.T) {
	f := tieredFixture(400, 100, 0.6)
	res := f.run(t, math.Inf(1), reissue.None{}, reissue.None{})
	tierRate, cacheResp, storeResp := res.TierRates[""], res.LeafResp["cache"], res.LeafResp["store"]
	if math.Abs(tierRate-(1-f.hitRate())) > 1e-12 {
		t.Errorf("TierRate %.4f != miss rate %.4f with an infinite tier delay", tierRate, 1-f.hitRate())
	}
	if len(storeResp) != int(tierRate*float64(len(res.Query))+0.5) {
		t.Errorf("%d store responses for tier rate %.4f over %d queries", len(storeResp), tierRate, len(res.Query))
	}
	si := 0
	for i, resp := range res.Query {
		qi := f.base.Warmup + i
		if f.hits[qi] {
			if resp != cacheResp[i] {
				t.Fatalf("hit %d: end-to-end %.3f != cache response %.3f", qi, resp, cacheResp[i])
			}
			continue
		}
		want := cacheResp[i] + storeResp[si]
		si++
		if math.Abs(resp-want) > 1e-9 {
			t.Fatalf("miss %d: end-to-end %.3f != cache %.3f + store", qi, resp, want)
		}
	}
}

// TestTieredFullFanOut checks TierDelay = 0: no query is shielded,
// every query dispatches a store sub-query at its arrival, and a
// hit's response is the faster of its two tiers.
func TestTieredFullFanOut(t *testing.T) {
	f := tieredFixture(400, 100, 0.6)
	res := f.run(t, 0, reissue.None{}, reissue.None{})
	if res.TierRates[""] != 1 {
		t.Errorf("TierRate %.4f, want 1 with a zero tier delay", res.TierRates[""])
	}
	cacheResp, storeResp := res.LeafResp["cache"], res.LeafResp["store"]
	for i, resp := range res.Query {
		qi := f.base.Warmup + i
		want := storeResp[i]
		if f.hits[qi] {
			want = math.Min(cacheResp[i], storeResp[i])
		}
		if math.Abs(resp-want) > 1e-9 {
			t.Fatalf("query %d: end-to-end %.3f, want %.3f", qi, resp, want)
		}
	}
}

// TestTieredShieldingMasksStoreLoad checks that shielded queries
// occupy no store capacity: with every query a fast hit and an
// infinite tier delay, the store tier must be completely idle.
func TestTieredShieldingMasksStoreLoad(t *testing.T) {
	f := tieredFixture(300, 50, 1.0)
	res := f.run(t, math.Inf(1), reissue.None{}, reissue.None{})
	if res.TierRates[""] != 0 || len(res.LeafResp["store"]) != 0 {
		t.Fatalf("all-hit workload dispatched store sub-queries: rate %.4f, %d responses", res.TierRates[""], len(res.LeafResp["store"]))
	}
}

// TestTieredReissueRates checks the per-tier rate denominators with
// immediate coin-flip policies: a D=0 SingleR is never suppressed by
// the completion check, so each tier's measured rate must sit near
// its coin probability — the store's over only its dispatched
// sub-queries.
func TestTieredReissueRates(t *testing.T) {
	f := tieredFixture(1200, 200, 0.5)
	res := f.run(t, math.Inf(1), reissue.SingleR{D: 0, Q: 0.4}, reissue.SingleR{D: 0, Q: 0.3})
	if r := res.LeafRates["cache"]; math.Abs(r-0.4) > 0.05 {
		t.Errorf("cache reissue rate %.4f far from Q=0.4", r)
	}
	if r := res.LeafRates["store"]; math.Abs(r-0.3) > 0.06 {
		t.Errorf("store reissue rate %.4f far from Q=0.3", r)
	}
}

// TestTieredProactiveHedgeTrimsMissTail checks the tier-delay payoff
// on the all-miss workload, where it is deterministic: every query
// reaches the store in both regimes (identical store load), but the
// proactive hedge dispatches at the small tier delay instead of
// waiting for the cache to resolve the miss — so every query's
// end-to-end response improves by the miss-resolution time it no
// longer serializes behind.
func TestTieredProactiveHedgeTrimsMissTail(t *testing.T) {
	f := tieredFixture(1000, 200, 0.0)
	fallthru := f.run(t, math.Inf(1), reissue.None{}, reissue.None{})
	proactive := f.run(t, 0.25, reissue.None{}, reissue.None{})
	if proactive.TierRates[""] != 1 || fallthru.TierRates[""] != 1 {
		t.Fatalf("all-miss workload did not dispatch every store sub-query: %.4f / %.4f",
			proactive.TierRates[""], fallthru.TierRates[""])
	}
	pf := reissue.RunResult{Query: fallthru.Query}.TailLatency(0.99)
	pp := reissue.RunResult{Query: proactive.Query}.TailLatency(0.99)
	if pp >= pf {
		t.Errorf("proactive P99 %.3f not below fall-through %.3f on the all-miss workload", pp, pf)
	}
}

// TestTieredDeterministic pins the replay contract: two runs of the
// same tiered graph under the same policies are byte-identical.
func TestTieredDeterministic(t *testing.T) {
	f := tieredFixture(400, 100, 0.5)
	g := tierGraph(t, f.base, f.cacheTimes, f.storeTimes, f.hits, 2)
	pol := reissue.SingleR{D: 2, Q: 0.3}
	a := g.Run(polConst(pol))
	b := g.Run(polConst(pol))
	if len(a.Query) != len(b.Query) {
		t.Fatal("run lengths differ")
	}
	for i := range a.Query {
		if a.Query[i] != b.Query[i] {
			t.Fatalf("query %d differs across identical runs: %v vs %v", i, a.Query[i], b.Query[i])
		}
	}
	if !reflect.DeepEqual(a.LeafRates, b.LeafRates) || !reflect.DeepEqual(a.TierRates, b.TierRates) {
		t.Fatalf("rates differ across identical runs: %v %v vs %v %v", a.LeafRates, a.TierRates, b.LeafRates, b.TierRates)
	}
}
