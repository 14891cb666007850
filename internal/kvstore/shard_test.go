package kvstore

import (
	"testing"
)

func genSmall(t *testing.T) *Workload {
	t.Helper()
	w, err := GenerateWorkload(WorkloadConfig{NumSets: 60, NumQueries: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPartitionValidation(t *testing.T) {
	w := genSmall(t)
	if _, err := w.Partition(0); err == nil {
		t.Error("Partition accepted zero shards")
	}
	empty := &Workload{Store: NewStore()}
	if _, err := empty.Partition(2); err == nil {
		t.Error("Partition accepted an empty workload")
	}
}

// TestPartitionPreservesAnswers checks the semantic contract: the
// per-shard intersections are disjoint, their union is the full
// intersection, and every shard slice stays sorted.
func TestPartitionPreservesAnswers(t *testing.T) {
	w := genSmall(t)
	const shards = 3
	parts, err := w.Partition(shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range w.Store.Keys() {
		total := 0
		for s := 0; s < shards; s++ {
			set := parts[s].Store.sets[key]
			total += len(set)
			for i := 1; i < len(set); i++ {
				if set[i-1] >= set[i] {
					t.Fatalf("shard %d slice of %s not sorted-unique at %d", s, key, i)
				}
			}
			for _, v := range set {
				if int(uint32(v)%shards) != s {
					t.Fatalf("member %d of %s landed on shard %d", v, key, s)
				}
			}
		}
		if total != len(w.Store.sets[key]) {
			t.Fatalf("%s: shard slices hold %d members, store has %d", key, total, len(w.Store.sets[key]))
		}
	}
	for i, q := range w.Queries[:50] {
		full, _ := w.Store.SInter(q.A, q.B)
		merged := 0
		for s := 0; s < shards; s++ {
			part, _ := parts[s].Store.SInter(q.A, q.B)
			merged += len(part)
		}
		if merged != len(full) {
			t.Fatalf("query %d: merged cardinality %d != full %d", i, merged, len(full))
		}
	}
}

// TestPartitionCalibratesTimes checks the per-shard service times:
// every sub-query pays at least the base cost, and the summed
// variable cost across shards stays close to the unsharded query's
// (each element is scanned on exactly one shard; only merge-pointer
// bookkeeping differs).
func TestPartitionCalibratesTimes(t *testing.T) {
	w := genSmall(t)
	const shards = 4
	parts, err := w.Partition(shards)
	if err != nil {
		t.Fatal(err)
	}
	for s := range parts {
		if len(parts[s].Times) != len(w.Times) {
			t.Fatalf("shard %d has %d times, want %d", s, len(parts[s].Times), len(w.Times))
		}
	}
	var fullVar, shardVar float64
	for i := range w.Times {
		fullVar += w.Times[i] - w.Cost.BaseMS
		for s := range parts {
			ts := parts[s].Times[i]
			if ts < w.Cost.BaseMS {
				t.Fatalf("shard %d query %d time %v below base cost", s, i, ts)
			}
			shardVar += ts - w.Cost.BaseMS
		}
	}
	if shardVar < 0.9*fullVar || shardVar > 1.1*fullVar {
		t.Fatalf("summed per-shard variable cost %v far from full %v", shardVar, fullVar)
	}
}
