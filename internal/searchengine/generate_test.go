package searchengine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// workloadDigest hashes everything a generated workload carries: every
// term's postings, the query trace with each query's exact service
// time bits, and each query's ranked hits with their score bits, so
// the digest pins searchOR's and searchAND's output as well as their
// work counts.
func workloadDigest(w *Workload) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(w.Index.numDocs))
	for _, list := range w.Index.postings {
		put(uint64(len(list)))
		for _, p := range list {
			put(uint64(uint32(p.Doc))<<16 | uint64(p.TF))
		}
	}
	put(uint64(len(w.Queries)))
	for i, q := range w.Queries {
		put(uint64(len(q.Terms)))
		for _, term := range q.Terms {
			put(uint64(term))
		}
		if q.Conjunctive {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(w.Times[i]))
		res := w.Index.Search(q, 10)
		put(uint64(len(res.Hits)))
		for _, hit := range res.Hits {
			put(uint64(uint32(hit.Doc)))
			put(math.Float64bits(hit.Score))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// smallConfig is a corpus small enough for -short runs.
var smallConfig = WorkloadConfig{
	Corpus:     CorpusConfig{NumDocs: 3000, VocabSize: 4000, MeanDocLen: 60, Seed: 5},
	NumQueries: 1500, MinRank: 10, Seed: 6,
}

// TestGenerateWorkloadDigest pins generation bit for bit: the digests
// were recorded from the map-accumulating, sort.Slice-ordering OR
// search, so any faster accumulator must reproduce the same postings,
// service times and ranked hits exactly.
func TestGenerateWorkloadDigest(t *testing.T) {
	cases := []struct {
		name   string
		cfg    WorkloadConfig
		shards int
		want   string
	}{
		{"default", WorkloadConfig{}, 0, "dc917f365990c425d0af7150f86115c78340a147135e10bc64bb5349c931914f"},
		{"small", smallConfig, 0, "77753025a2a297c94577b18c15ba94725483a9042ca52c3a372345bb146f5ebe"},
		{"small-shards3", smallConfig, 3, "7ffc3ea4ebc5d362f8b346a2320acaad67f8feec29e4fa88b68a691446a20289"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "default" && testing.Short() {
				t.Skip("paper-scale generation in -short mode")
			}
			var got string
			if c.shards == 0 {
				w, err := GenerateWorkload(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got = workloadDigest(w)
			} else {
				ws, err := GenerateShardedWorkload(c.cfg, c.shards)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, w := range ws {
					h.Write([]byte(workloadDigest(w)))
				}
				got = hex.EncodeToString(h.Sum(nil))
			}
			if got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

func BenchmarkGenerateWorkload(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  WorkloadConfig
	}{
		{"default", WorkloadConfig{}},
		{"small", smallConfig},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := GenerateWorkload(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
