package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
)

// graphTrace builds a deterministic heavy-tailed service trace.
func graphTrace(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	exp := stats.NewExponential(0.25)
	times := make([]float64, n)
	for i := range times {
		times[i] = 1 + exp.Sample(rng)
	}
	return times
}

func graphBase(n, warmup int, times []float64) Config {
	return Config{
		Servers:     3,
		ArrivalRate: 0.4,
		Queries:     n + warmup,
		Warmup:      0,
		Source:      &TraceSource{Times: times},
		LB:          HashedLB{},
		Seed:        9,
	}
}

func polConst(p reissue.Policy) func(string) reissue.Policy {
	return func(string) reissue.Policy { return p }
}

// plainRun runs an uncomposed Cluster over the same trace, load, and
// seeds, measuring the same post-warmup window, and returns the
// per-query responses plus the reissue rate over measured queries.
func plainRun(t *testing.T, cfg Config, warmup int, pol reissue.Policy) ([]float64, float64) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunDetailed(pol)
	rts := res.Log.ResponseTimes()
	copies := 0
	for i := warmup; i < len(rts); i++ {
		copies += res.Log.Records[i].Reissues
	}
	return rts[warmup:], float64(copies) / float64(len(rts)-warmup)
}

// TestGraphLeafIdentity: a single-leaf graph is the uncomposed
// cluster, byte for byte — responses and reissue rate.
func TestGraphLeafIdentity(t *testing.T) {
	const n, warmup = 400, 50
	times := graphTrace(n+warmup, 3)
	pol := reissue.SingleR{D: 2, Q: 0.3}

	leaf, err := NewGraphLeaf("root", graphBase(n, warmup, times))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(leaf, n, warmup)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Run(polConst(pol))

	want, wantRate := plainRun(t, graphBase(n, warmup, times), warmup, pol)
	if len(got.Query) != len(want) {
		t.Fatalf("graph measured %d queries, cluster %d", len(got.Query), len(want))
	}
	for i := range want {
		if got.Query[i] != want[i] {
			t.Fatalf("query %d: graph %v != cluster %v", i, got.Query[i], want[i])
		}
	}
	if got.LeafRates["root"] != wantRate {
		t.Errorf("leaf rate %v != cluster rate %v", got.LeafRates["root"], wantRate)
	}
}

// TestGraphShardDegenerateIdentity: a 1-shard fan-out adds no salt
// and no merge, so it is byte-identical to the uncomposed cluster.
func TestGraphShardDegenerateIdentity(t *testing.T) {
	const n, warmup = 400, 50
	times := graphTrace(n+warmup, 4)
	pol := reissue.SingleR{D: 2, Q: 0.3}

	leaf, err := NewGraphLeaf("shard0", graphBase(n, warmup, times))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewGraphShard("", n+warmup, leaf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(sh, n, warmup)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Run(polConst(pol))

	want, wantRate := plainRun(t, graphBase(n, warmup, times), warmup, pol)
	for i := range want {
		if got.Query[i] != want[i] {
			t.Fatalf("query %d: 1-shard graph %v != cluster %v", i, got.Query[i], want[i])
		}
	}
	if got.LeafRates["shard0"] != wantRate {
		t.Errorf("1-shard leaf rate %v != cluster rate %v", got.LeafRates["shard0"], wantRate)
	}
}

// TestGraphTierDegenerateIdentity: an Inf-delay, hit-rate-1 tier
// shields every query, so the composition is byte-identical to the
// uncomposed cache cluster and the store sees zero dispatches.
func TestGraphTierDegenerateIdentity(t *testing.T) {
	const n, warmup = 400, 50
	total := n + warmup
	cacheTimes := graphTrace(total, 5)
	storeTimes := graphTrace(total, 6)
	pol := reissue.SingleR{D: 2, Q: 0.3}
	hits := make([]bool, total)
	for i := range hits {
		hits[i] = true
	}

	cache, err := NewGraphLeaf("cache", graphBase(n, warmup, cacheTimes))
	if err != nil {
		t.Fatal(err)
	}
	storeCfg := graphBase(n, warmup, storeTimes)
	storeCfg.PolicySeed = stats.TierSalt()
	store, err := NewGraphLeaf("store", storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := NewGraphTier("", cache, store, hits, math.Inf(1), total)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(tier, n, warmup)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Run(polConst(pol))

	want, wantRate := plainRun(t, graphBase(n, warmup, cacheTimes), warmup, pol)
	for i := range want {
		if got.Query[i] != want[i] {
			t.Fatalf("query %d: degenerate tier %v != cache cluster %v", i, got.Query[i], want[i])
		}
	}
	if got.LeafRates["cache"] != wantRate {
		t.Errorf("cache leaf rate %v != cluster rate %v", got.LeafRates["cache"], wantRate)
	}
	if got.TierRates[""] != 0 {
		t.Errorf("hit-rate-1/Inf-delay tier dispatched to the store: TierRate=%v", got.TierRates[""])
	}
	if got.LeafRates["store"] != 0 {
		t.Errorf("fully shielded store leaf reports rate %v", got.LeafRates["store"])
	}
}

// shardGraph builds the sharded deployment as a one-level Graph: a
// shard node over one "shard<s>" leaf per source, each a copy of base
// (Queries and Warmup as the graph measures them) with shard s > 0's
// coin and service streams salted as shard.New salts its coins.
func shardGraph(t *testing.T, base Config, sources []ServiceSource) (*Graph, []*GraphLeaf) {
	t.Helper()
	g, leaves, err := buildShardGraph(base, sources)
	if err != nil {
		t.Fatal(err)
	}
	return g, leaves
}

// buildShardGraph is shardGraph returning the first construction error.
func buildShardGraph(base Config, sources []ServiceSource) (*Graph, []*GraphLeaf, error) {
	total := base.Queries + base.Warmup
	leaves := make([]*GraphLeaf, len(sources))
	children := make([]GraphNode, len(sources))
	for s, src := range sources {
		cfg := base
		cfg.Source = src
		cfg.Queries, cfg.Warmup = total, 0
		if s > 0 {
			cfg.PolicySeed ^= stats.ShardSalt(s)
			cfg.ServiceSeed ^= stats.ShardSalt(s)
		}
		leaf, err := NewGraphLeaf(fmt.Sprintf("shard%d", s), cfg)
		if err != nil {
			return nil, nil, err
		}
		leaves[s], children[s] = leaf, leaf
	}
	root, err := NewGraphShard("", total, children...)
	if err != nil {
		return nil, nil, err
	}
	g, err := NewGraph(root, base.Queries, base.Warmup)
	if err != nil {
		return nil, nil, err
	}
	return g, leaves, nil
}

// tierGraph builds the cache→store deployment as a one-level Graph:
// a tier node over a "cache" and a "store" leaf, each a copy of base
// (Queries and Warmup as the graph measures them) over its own source,
// with the store's coins salted as tier.New salts its store client.
func tierGraph(t *testing.T, base Config, cacheTimes, storeTimes []float64, hits []bool, delay float64) *Graph {
	t.Helper()
	g, err := buildTierGraph(base, &TraceSource{Times: cacheTimes}, &TraceSource{Times: storeTimes}, hits, delay)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildTierGraph is tierGraph over arbitrary leaf sources, returning
// the first construction error.
func buildTierGraph(base Config, cacheSrc, storeSrc ServiceSource, hits []bool, delay float64) (*Graph, error) {
	total := base.Queries + base.Warmup
	cfg := base
	cfg.Queries, cfg.Warmup = total, 0
	cacheCfg, storeCfg := cfg, cfg
	cacheCfg.Source = cacheSrc
	storeCfg.Source = storeSrc
	storeCfg.PolicySeed ^= stats.TierSalt()
	cache, err := NewGraphLeaf("cache", cacheCfg)
	if err != nil {
		return nil, err
	}
	store, err := NewGraphLeaf("store", storeCfg)
	if err != nil {
		return nil, err
	}
	tier, err := NewGraphTier("", cache, store, hits, delay, total)
	if err != nil {
		return nil, err
	}
	return NewGraph(tier, base.Queries, base.Warmup)
}

// tierPols routes the cache and store leaves' policies.
func tierPols(cache, store reissue.Policy) func(string) reissue.Policy {
	return func(path string) reissue.Policy {
		if path == "store" {
			return store
		}
		return cache
	}
}

// bitsDigest is an FNV-1a digest over the float64 bit patterns of
// vals, in order — a bit-exact fingerprint of a run.
func bitsDigest(vals ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGraphMatchesSharded pins a shard node over leaf fleets to the
// sharded simulator this package used to ship as a separate type: the
// digests were recorded from that implementation over the end-to-end
// responses, every shard's reissue rate, their mean (summed in shard
// order), and every shard's measured sub-query responses. A trace
// fixture covers the coin salting; a stochastic one also covers the
// per-shard ServiceSeed salting.
func TestGraphMatchesSharded(t *testing.T) {
	const n, warmup = 400, 50
	total := n + warmup
	for _, tc := range []struct {
		name    string
		sources func() []ServiceSource
		pol     reissue.Policy
		digest  string
	}{
		{"trace-S3", func() []ServiceSource {
			out := make([]ServiceSource, 3)
			for s := range out {
				out[s] = &TraceSource{Times: graphTrace(total, uint64(10+s))}
			}
			return out
		}, reissue.SingleR{D: 2, Q: 0.3}, "84cd9229f6c29942"},
		{"dist-S2", func() []ServiceSource {
			return []ServiceSource{DistSource{Dist: stats.NewExponential(1)}, DistSource{Dist: stats.NewExponential(1)}}
		}, reissue.SingleR{D: 1, Q: 0.3}, "e7175d3b21b09535"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sources := tc.sources()
			base := graphBase(n, warmup, nil)
			base.Queries, base.Warmup = n, warmup
			g, _ := shardGraph(t, base, sources)
			got := g.Run(polConst(tc.pol))
			rates := make([]float64, len(sources))
			var resps [][]float64
			mean := 0.0
			for s := range sources {
				path := fmt.Sprintf("shard%d", s)
				rates[s] = got.LeafRates[path]
				mean += rates[s] / float64(len(sources))
				resps = append(resps, got.LeafResp[path])
			}
			if d := bitsDigest(append([][]float64{got.Query, rates, {mean}}, resps...)...); d != tc.digest {
				t.Errorf("sharded graph digest %s, pinned %s", d, tc.digest)
			}
		})
	}
}

// TestGraphMatchesTiered pins a tier node over leaf fleets to the
// tiered simulator this package used to ship as a separate type, at
// full fan-out, a proactive delay, and pure fall-through: the digests
// were recorded from that implementation over the end-to-end
// responses, the cache, store, and tier rates, and the cache and
// store sub-query responses.
func TestGraphMatchesTiered(t *testing.T) {
	const n, warmup = 400, 50
	total := n + warmup
	cacheTimes := graphTrace(total, 20)
	storeTimes := graphTrace(total, 21)
	hits := make([]bool, total)
	hrng := stats.NewRNG(33)
	for i := range hits {
		hits[i] = hrng.Float64() < 0.7
	}
	pols := tierPols(reissue.SingleR{D: 2, Q: 0.3}, reissue.SingleR{D: 4, Q: 0.2})
	for _, tc := range []struct {
		delay  float64
		digest string
	}{
		{0, "6f8f59b56de2708e"},
		{3, "26b071b1471ab1a4"},
		{math.Inf(1), "673c59cfb056eabf"},
	} {
		t.Run(fmt.Sprintf("delay-%v", tc.delay), func(t *testing.T) {
			base := graphBase(n, warmup, nil)
			base.Queries, base.Warmup = n, warmup
			got := tierGraph(t, base, cacheTimes, storeTimes, hits, tc.delay).Run(pols)
			d := bitsDigest(got.Query,
				[]float64{got.LeafRates["cache"], got.LeafRates["store"], got.TierRates[""]},
				got.LeafResp["cache"], got.LeafResp["store"])
			if d != tc.digest {
				t.Errorf("tiered graph digest %s, pinned %s", d, tc.digest)
			}
		})
	}
}

// TestGraphDepth2Composes: a cache tier over a sharded store — the
// depth-2 graph the live combinators wire — runs, masks consistently,
// and reports every edge's statistics.
func TestGraphDepth2Composes(t *testing.T) {
	const n, warmup, S = 300, 40, 2
	const delay = 3.0
	total := n + warmup
	hits := make([]bool, total)
	hrng := stats.NewRNG(44)
	for i := range hits {
		hits[i] = hrng.Float64() < 0.6
	}

	cache, err := NewGraphLeaf("cache", graphBase(n, warmup, graphTrace(total, 30)))
	if err != nil {
		t.Fatal(err)
	}
	children := make([]GraphNode, S)
	for s := 0; s < S; s++ {
		cfg := graphBase(n, warmup, graphTrace(total, uint64(40+s)))
		cfg.PolicySeed = stats.TierSalt()
		cfg.ServiceSeed = 0
		if s > 0 {
			cfg.PolicySeed ^= stats.ShardSalt(s)
			cfg.ServiceSeed = stats.ShardSalt(s)
		}
		leaf, err := NewGraphLeaf("store/shard"+string(rune('0'+s)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		children[s] = leaf
	}
	storeNode, err := NewGraphShard("store", total, children...)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := NewGraphTier("", cache, storeNode, hits, delay, total)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(tier, n, warmup)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(polConst(reissue.SingleR{D: 2, Q: 0.25}))

	if len(res.Query) != n {
		t.Fatalf("measured %d queries, want %d", len(res.Query), n)
	}
	for i, rt := range res.Query {
		if rt <= 0 || math.IsNaN(rt) {
			t.Fatalf("query %d response %v", i, rt)
		}
	}
	tr := res.TierRates[""]
	if tr <= 0 || tr >= 1 {
		t.Errorf("depth-2 tier rate %v outside (0,1)", tr)
	}
	for _, path := range []string{"cache", "store/shard0", "store/shard1"} {
		if _, ok := res.LeafRates[path]; !ok {
			t.Errorf("missing leaf rate for %q", path)
		}
	}
	// The store shards serve only dispatched (non-shielded) queries;
	// their rates must still be well-formed.
	for path, rate := range res.LeafRates {
		if rate < 0 || math.IsNaN(rate) {
			t.Errorf("leaf %q rate %v", path, rate)
		}
	}
}

// TestNewGraphRejectsQueryCountMismatch: every node replays a fixed
// number of arrivals, and a node built for a different count than
// its parent expects must be rejected at construction — a root built
// for 1000 queries under NewGraph(root, 800, 100) would otherwise
// measure 900 queries and compute its rates over the wrong window.
func TestNewGraphRejectsQueryCountMismatch(t *testing.T) {
	const total = 1000
	leaf := func(path string) GraphNode {
		l, err := NewGraphLeaf(path, graphBase(total, 0, graphTrace(total, 7)))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if g, err := NewGraph(leaf("root"), 800, 100); err == nil {
		t.Errorf("NewGraph accepted a %d-query leaf for 800+100 queries; it measures %d", total, len(g.Run(polConst(reissue.None{})).Query))
	}
	if _, err := NewGraphShard("", total-1, leaf("shard0"), leaf("shard1")); err == nil {
		t.Errorf("NewGraphShard accepted %d-query children for %d queries", total, total-1)
	}
	hits := make([]bool, total+1)
	if _, err := NewGraphTier("", leaf("cache"), leaf("store"), hits, 1, total+1); err == nil {
		t.Errorf("NewGraphTier accepted %d-query subtrees for %d queries", total, total+1)
	}
	if _, err := NewGraph(leaf("root"), 900, 100); err != nil {
		t.Errorf("NewGraph rejected a matching root: %v", err)
	}
}

// TestGraphValidation: every node constructor rejects a malformed
// composition with an error, never a panic at Run time. The shard and
// tier deployments' own cases are in TestNewShardedValidation and
// TestNewTieredValidation.
func TestGraphValidation(t *testing.T) {
	const n, warmup = 200, 50
	total := n + warmup
	leafCfg := func() Config { return graphBase(n, warmup, graphTrace(total, 8)) }
	leaf := func(path string) GraphNode {
		l, err := NewGraphLeaf(path, leafCfg())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	hits := make([]bool, total)
	for name, build := range map[string]func() error{
		"leaf warmup": func() error {
			c := leafCfg()
			c.Warmup = 10
			_, err := NewGraphLeaf("x", c)
			return err
		},
		"leaf fanout": func() error {
			c := leafCfg()
			c.FanOut = 2
			_, err := NewGraphLeaf("x", c)
			return err
		},
		"leaf nil source": func() error {
			c := leafCfg()
			c.Source = nil
			_, err := NewGraphLeaf("x", c)
			return err
		},
		"leaf empty trace": func() error {
			c := leafCfg()
			c.Source = &TraceSource{}
			_, err := NewGraphLeaf("x", c)
			return err
		},
		"leaf zero servers": func() error {
			c := leafCfg()
			c.Servers = 0
			_, err := NewGraphLeaf("x", c)
			return err
		},
		"leaf zero queries": func() error {
			c := leafCfg()
			c.Queries = 0
			_, err := NewGraphLeaf("x", c)
			return err
		},
		"shard nil child":  func() error { _, err := NewGraphShard("", total, leaf("a"), nil); return err },
		"tier nil cache":   func() error { _, err := NewGraphTier("", nil, leaf("s"), hits, 1, total); return err },
		"tier nil store":   func() error { _, err := NewGraphTier("", leaf("c"), nil, hits, 1, total); return err },
		"graph nil root":   func() error { _, err := NewGraph(nil, n, warmup); return err },
		"graph no queries": func() error { _, err := NewGraph(leaf("r"), 0, total); return err },
		"graph neg warmup": func() error { _, err := NewGraph(leaf("r"), total+1, -1); return err },
	} {
		if build() == nil {
			t.Errorf("accepted %s", name)
		}
	}
}
