package kvstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// workloadDigest hashes everything a generated workload carries: the
// sorted keys with every set's members, the query trace, and the
// exact bits of every service time.
func workloadDigest(w *Workload) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, k := range w.Store.Keys() {
		set := w.Store.sets[k]
		h.Write([]byte(k))
		put(uint64(len(set)))
		for _, v := range set {
			put(uint64(uint32(v)))
		}
	}
	put(uint64(len(w.Queries)))
	for i, q := range w.Queries {
		h.Write([]byte(q.A))
		h.Write([]byte{0})
		h.Write([]byte(q.B))
		h.Write([]byte{0})
		put(math.Float64bits(w.Times[i]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// e2eConfig is the workload the end-to-end benchmark's kv workloads
// serve.
var e2eConfig = WorkloadConfig{NumSets: 300, NumQueries: 12000, Seed: 15}

// largeRangeConfig has a universe far too large for a bitset over it
// to be worth its memory, so generation and intersection take the
// paths without one.
var largeRangeConfig = WorkloadConfig{NumSets: 40, NumQueries: 2000, ValueRange: 1 << 30, Seed: 21}

// TestGenerateWorkloadDigest pins generation bit for bit: the digests
// were recorded from the original map-and-sort sampler and two-pointer
// merge, so any faster kernel must reproduce the same sets, queries
// and service times exactly.
func TestGenerateWorkloadDigest(t *testing.T) {
	cases := []struct {
		name      string
		cfg       WorkloadConfig
		partition int
		want      string
	}{
		{"default", WorkloadConfig{}, 0, "21000a31130401cfb92fd4f6dd50de0912cf7e30fb4ae3227a648956ae0a4ad3"},
		{"e2ebench", e2eConfig, 0, "333af87b57a698b1fa2cc97f3eeb0c77630f307f7294ab1ada272158ee3202e9"},
		{"e2ebench-partition2", e2eConfig, 2, "5656307d37bb57c93a880d36db5e8aad568e74fd0c813630a9514efa7619d290"},
		{"large-range", largeRangeConfig, 0, "46111ecefc0da98a4b2e656eeea6ce04a676bcde8775dccc3c61cbd465af24f4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "default" && testing.Short() {
				t.Skip("paper-scale generation in -short mode")
			}
			w, err := GenerateWorkload(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := workloadDigest(w)
			if c.partition > 0 {
				parts, err := w.Partition(c.partition)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, p := range parts {
					h.Write([]byte(workloadDigest(p)))
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
		{"e2ebench", e2eConfig},
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
