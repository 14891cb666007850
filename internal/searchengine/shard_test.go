package searchengine

import "testing"

func shardCfg(queries int) WorkloadConfig {
	return WorkloadConfig{
		Corpus:     CorpusConfig{NumDocs: 1200, VocabSize: 2000, Seed: 4},
		NumQueries: queries,
		Cost:       DefaultCostModel(),
		Seed:       17,
	}
}

func TestGenerateShardedWorkloadValidation(t *testing.T) {
	if _, err := GenerateShardedWorkload(shardCfg(10), 0); err == nil {
		t.Error("accepted zero shards")
	}
	bad := shardCfg(10)
	bad.MinTerms, bad.MaxTerms = 5, 2
	if _, err := GenerateShardedWorkload(bad, 2); err == nil {
		t.Error("accepted a bad term range")
	}
}

// TestShardedTraceMatchesUnsharded pins the compatibility contract:
// the same configuration yields the identical query trace sharded or
// not, and the document partition covers the corpus exactly once.
func TestShardedTraceMatchesUnsharded(t *testing.T) {
	cfg := shardCfg(150)
	full, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	parts, err := GenerateShardedWorkload(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != shards {
		t.Fatalf("got %d shards, want %d", len(parts), shards)
	}
	totalDocs := 0
	for s, p := range parts {
		totalDocs += p.Index.numDocs
		if len(p.Queries) != len(full.Queries) || len(p.Times) != len(full.Queries) {
			t.Fatalf("shard %d trace length mismatch", s)
		}
		for i := range p.Queries {
			if p.Queries[i].Conjunctive != full.Queries[i].Conjunctive ||
				len(p.Queries[i].Terms) != len(full.Queries[i].Terms) {
				t.Fatalf("shard %d query %d differs from the unsharded trace", s, i)
			}
		}
	}
	if totalDocs != full.Index.numDocs {
		t.Fatalf("shards hold %d docs, corpus has %d", totalDocs, full.Index.numDocs)
	}
}

// TestShardedTimesSubLinear checks the calibration shape: every
// sub-query pays at least the base cost, and the mean per-shard
// variable cost is well below the unsharded one (each shard scans
// about 1/shards of the postings).
func TestShardedTimesSubLinear(t *testing.T) {
	cfg := shardCfg(120)
	full, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	parts, err := GenerateShardedWorkload(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	var fullVar, shardVar float64
	for i := range full.Times {
		fullVar += full.Times[i] - cfg.Cost.BaseMS
	}
	for s := range parts {
		for i, ts := range parts[s].Times {
			if ts < cfg.Cost.BaseMS {
				t.Fatalf("shard %d query %d time %v below base cost", s, i, ts)
			}
			shardVar += ts - cfg.Cost.BaseMS
		}
	}
	// Summed across shards the variable cost stays the same order as
	// the full scan (galloping-search bookkeeping differs), so the
	// per-shard mean must be well under the full mean.
	if fullVar <= 0 {
		t.Skip("degenerate corpus: no variable cost to compare")
	}
	perShard := shardVar / shards
	if perShard > 0.6*fullVar {
		t.Fatalf("mean per-shard variable cost %v not sub-linear vs full %v", perShard, fullVar)
	}
}
