package kvstore

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func cacheFixture(t *testing.T, hitRate float64) (*Workload, *CacheWorkload) {
	t.Helper()
	w, err := GenerateWorkload(WorkloadConfig{NumSets: 100, NumQueries: 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cw, err := w.CacheView(CacheConfig{HitRate: hitRate, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w, cw
}

func TestCacheViewValidation(t *testing.T) {
	w, _ := cacheFixture(t, 0.5)
	if _, err := w.CacheView(CacheConfig{HitRate: -0.1}); err == nil {
		t.Error("CacheView accepted a negative hit rate")
	}
	if _, err := w.CacheView(CacheConfig{HitRate: 1.5}); err == nil {
		t.Error("CacheView accepted a hit rate above 1")
	}
	empty := &Workload{}
	if _, err := empty.CacheView(CacheConfig{HitRate: 0.5}); err == nil {
		t.Error("CacheView accepted an empty workload")
	}
}

// TestCacheViewHitStream checks the Bernoulli stream: the realized
// hit rate tracks the configured one, the draw is reproducible from
// the seed, and different seeds give different patterns.
func TestCacheViewHitStream(t *testing.T) {
	w, cw := cacheFixture(t, 0.7)
	hits := 0
	for _, h := range cw.Hits {
		if h {
			hits++
		}
	}
	rate := float64(hits) / float64(len(cw.Hits))
	if math.Abs(rate-0.7) > 0.05 {
		t.Errorf("realized hit rate %.3f far from 0.7", rate)
	}
	again, err := w.CacheView(CacheConfig{HitRate: 0.7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cw.Hits {
		if cw.Hits[i] != again.Hits[i] {
			t.Fatalf("hit stream not reproducible at query %d", i)
		}
	}
	other, err := w.CacheView(CacheConfig{HitRate: 0.7, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range cw.Hits {
		if cw.Hits[i] == other.Hits[i] {
			same++
		}
	}
	if same == len(cw.Hits) {
		t.Error("different seeds produced identical hit streams")
	}
}

// TestCacheViewResultsAndTimes checks that hits carry the real
// precomputed intersection, misses carry nothing, and the calibrated
// cache times are the lookup cost plus the result scan — strictly
// cheaper than recomputing the intersection for any non-trivial
// query.
func TestCacheViewResultsAndTimes(t *testing.T) {
	w, cw := cacheFixture(t, 0.5)
	hits, misses := 0, 0
	for i, q := range w.Queries {
		res, ok := cw.Lookup(i)
		if ok != cw.Hits[i] {
			t.Fatalf("Lookup(%d) hit=%v, Hits[%d]=%v", i, ok, i, cw.Hits[i])
		}
		if !ok {
			misses++
			if res != nil {
				t.Fatalf("miss %d carries a cached result", i)
			}
			if cw.Times[i] != cw.Cost.ServiceTime(Work{}) {
				t.Fatalf("miss %d time %v, want bare lookup cost", i, cw.Times[i])
			}
			continue
		}
		hits++
		want, _ := w.Store.SInter(q.A, q.B)
		if len(res) != len(want) {
			t.Fatalf("cached result for %d has %d members, want %d", i, len(res), len(want))
		}
		if got := cw.Cost.ServiceTime(Work{Scanned: len(res)}); cw.Times[i] != got {
			t.Fatalf("hit %d time %v, want %v", i, cw.Times[i], got)
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate fixture: %d hits, %d misses", hits, misses)
	}
	if cm, sm := stats.Summarize(cw.Times).Mean, stats.Summarize(w.Times).Mean; cm >= sm {
		t.Errorf("cache mean service %.4f not cheaper than store mean %.4f", cm, sm)
	}
}
