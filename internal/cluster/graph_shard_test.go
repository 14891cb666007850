package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
)

// The sharded deployment's behaviour, checked on a shard node over
// leaf fleets built by shardGraph.

func shardTraces(n, shards int) []ServiceSource {
	// Deterministic per-shard traces with distinct shapes: shard s's
	// query i holds for 1 + ((i*7+s*3) mod 5) time units.
	out := make([]ServiceSource, shards)
	for s := 0; s < shards; s++ {
		times := make([]float64, n)
		for i := range times {
			times[i] = float64(1 + (i*7+s*3)%5)
		}
		out[s] = &TraceSource{Times: times}
	}
	return out
}

func shardedBase(queries int) Config {
	return Config{
		Servers:     3,
		ArrivalRate: 0.5,
		Queries:     queries,
		Warmup:      50,
		Seed:        9,
		LB:          HashedLB{},
	}
}

// TestNewShardedValidation: a sharded deployment with no shards, a
// fan-out shard fleet, or an invalid per-shard config is rejected at
// construction.
func TestNewShardedValidation(t *testing.T) {
	for name, build := range map[string]func() error{
		"no shards": func() error {
			_, _, err := buildShardGraph(shardedBase(100), nil)
			return err
		},
		"fanout": func() error {
			base := shardedBase(100)
			base.FanOut = 2
			_, _, err := buildShardGraph(base, shardTraces(100, 2))
			return err
		},
		"zero queries": func() error {
			_, _, err := buildShardGraph(shardedBase(0), shardTraces(10, 2))
			return err
		},
		"zero servers": func() error {
			base := shardedBase(100)
			base.Servers = 0
			_, _, err := buildShardGraph(base, shardTraces(100, 2))
			return err
		},
	} {
		if build() == nil {
			t.Errorf("sharded deployment accepted %s", name)
		}
	}
}

// TestShardedOneShardDegeneratesExactly pins the composition contract:
// a one-shard graph is byte-identical to the plain Cluster it wraps
// (same arrival, service, coin, and placement streams).
func TestShardedOneShardDegeneratesExactly(t *testing.T) {
	const n = 400
	base := shardedBase(n)
	g, _ := shardGraph(t, base, shardTraces(n, 1))
	plain := base
	plain.Source = shardTraces(n, 1)[0]
	cl, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	pol := reissue.SingleR{D: 2, Q: 0.4}
	got := g.Run(polConst(pol))
	want := cl.Run(pol)
	if len(got.Query) != len(want.Query) {
		t.Fatalf("lengths differ: %d vs %d", len(got.Query), len(want.Query))
	}
	for i := range got.Query {
		if got.Query[i] != want.Query[i] {
			t.Fatalf("query %d: sharded %v != plain %v", i, got.Query[i], want.Query[i])
		}
	}
	if got.LeafRates["shard0"] != want.ReissueRate {
		t.Fatalf("reissue rate %v != %v", got.LeafRates["shard0"], want.ReissueRate)
	}
}

// TestShardedSharesArrivalsDecorrelatesCoins checks the dependence
// structure the composition promises: identical arrival instants on
// every shard, independent reissue coin streams per shard.
func TestShardedSharesArrivalsDecorrelatesCoins(t *testing.T) {
	const n = 600
	g, leaves := shardGraph(t, shardedBase(n), shardTraces(n, 3))
	res := g.Run(polConst(reissue.SingleR{D: 0, Q: 0.5}))
	recs0 := leaves[0].last.Log.Records
	for s := 1; s < len(leaves); s++ {
		recs := leaves[s].last.Log.Records
		agree := 0
		for i := range recs {
			if recs[i].Arrival != recs0[i].Arrival {
				t.Fatalf("shard %d query %d arrival %v != shard 0's %v", s, i, recs[i].Arrival, recs0[i].Arrival)
			}
			if recs[i].Reissued == recs0[i].Reissued {
				agree++
			}
		}
		// With D=0 the completion check never interferes, so the coin
		// of query i fires independently per shard: agreement must sit
		// near 1/2, nowhere near the 100% a shared stream would give.
		frac := float64(agree) / float64(len(recs))
		if frac > 0.65 || frac < 0.35 {
			t.Errorf("shard %d coin agreement with shard 0 = %.2f, want ~0.5 (independent)", s, frac)
		}
		if rate := res.LeafRates[fmt.Sprintf("shard%d", s)]; math.Abs(rate-0.5) > 0.08 {
			t.Errorf("shard %d reissue rate %.3f far from Q=0.5", s, rate)
		}
	}
}

// TestShardedMaxOverShards checks the end-to-end merge: every merged
// response is the max over the shards' per-query responses, and the
// max-over-shards tail dominates every single shard's tail.
func TestShardedMaxOverShards(t *testing.T) {
	const n, S = 500, 4
	g, _ := shardGraph(t, shardedBase(n), shardTraces(n, S))
	res := g.Run(polConst(reissue.None{}))
	for i := range res.Query {
		max := 0.0
		for s := 0; s < S; s++ {
			if rt := res.LeafResp[fmt.Sprintf("shard%d", s)][i]; rt > max {
				max = rt
			}
		}
		if res.Query[i] != max {
			t.Fatalf("query %d: merged %v != max-over-shards %v", i, res.Query[i], max)
		}
	}
	e2e := reissue.RunResult{Query: res.Query}.TailLatency(0.9)
	for s := 0; s < S; s++ {
		shard := reissue.RunResult{Query: res.LeafResp[fmt.Sprintf("shard%d", s)]}.TailLatency(0.9)
		if shard > e2e {
			t.Fatalf("shard %d P90 %v exceeds end-to-end P90 %v", s, shard, e2e)
		}
	}
}

// TestShardedStochasticSourcesIndependent checks that a sharded run
// over stochastic sources draws independent service times per shard:
// each shard serves its own slice of the data, so DistSource shards
// must not replay shard 0's draws (ServiceSeed salting), while the
// arrival instants stay shared.
func TestShardedStochasticSourcesIndependent(t *testing.T) {
	const n = 500
	srcs := make([]ServiceSource, 3)
	for s := range srcs {
		srcs[s] = DistSource{Dist: stats.NewExponential(1)}
	}
	g, leaves := shardGraph(t, shardedBase(n), srcs)
	g.Run(polConst(reissue.None{}))
	recs0 := leaves[0].last.Log.Records
	for s := 1; s < len(leaves); s++ {
		recs := leaves[s].last.Log.Records
		same := 0
		for i := range recs {
			if recs[i].Arrival != recs0[i].Arrival {
				t.Fatalf("shard %d query %d arrival differs from shard 0", s, i)
			}
			// At near-unique float64 service draws, identical primary
			// response times identify a replayed stream.
			if recs[i].Primary == recs0[i].Primary {
				same++
			}
		}
		if same > len(recs)/20 {
			t.Errorf("shard %d replayed %d/%d of shard 0's service draws — streams not independent", s, same, len(recs))
		}
	}
}
