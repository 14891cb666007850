package kvstore

import (
	"fmt"

	"repro/internal/stats"
)

// CacheConfig parametrizes a cache view of a workload: the fast tier
// of a two-tier (cache -> store) deployment, where a fraction of
// queries find their precomputed answer in the cache and the rest
// miss and must fall through to the authoritative store.
type CacheConfig struct {
	// HitRate is the fraction of queries whose result is cached, in
	// [0, 1]. Which queries hit is decided by an independent Bernoulli
	// draw per query from Seed, so the hit pattern is a reproducible
	// bit stream — the live cache backend and the tiered simulator
	// consume the same Hits slice and therefore miss on exactly the
	// same queries.
	HitRate float64
	// Seed drives the Bernoulli hit stream. The zero seed is valid
	// (and distinct from every other seed).
	Seed uint64
	// Cost converts cache work into service time. The default
	// (DefaultCacheCostModel) makes lookups roughly an order of
	// magnitude cheaper than recomputing the intersection: a cache
	// answers from a precomputed result instead of merging two sets.
	Cost CostModel
}

// DefaultCacheCostModel returns the calibrated cache-tier cost model:
// the same fixed per-request overhead as the store (parsing,
// dispatch, reply) with a 10x cheaper per-element cost — the cache
// only scans the precomputed result to serialize it, never the input
// sets.
func DefaultCacheCostModel() CostModel {
	return CostModel{BaseMS: 0.05, PerElementMS: 1.5e-5}
}

// CacheWorkload is the cache tier's view of a workload: the same
// query trace, a Bernoulli hit stream, the precomputed results of the
// hit queries, and calibrated cache-tier service times (a hit scans
// its cached result; a miss pays only the lookup overhead).
type CacheWorkload struct {
	// Queries aliases the backing workload's trace: query i here is
	// query i there, so a two-tier client indexes both tiers with one
	// query number.
	Queries []Query
	// Hits[i] reports whether query i's result is cached. This is the
	// bit stream a tiered simulator must share with the live path so
	// both worlds miss on the same queries.
	Hits []bool
	// Times[i] is the cache-tier service time of query i in
	// milliseconds: the lookup overhead, plus the cost of scanning the
	// cached result when the query hits.
	Times []float64
	// Cost is the cache-tier cost model behind Times.
	Cost CostModel

	results []Set // precomputed answers, nil for misses
}

// CacheView builds the cache tier for this workload: a Bernoulli(
// HitRate) draw per query decides which queries are cached, the hit
// queries' intersections are precomputed for real, and every query
// gets a calibrated cache-tier service time.
func (w *Workload) CacheView(cfg CacheConfig) (*CacheWorkload, error) {
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("kvstore: cannot build a cache view of an empty workload")
	}
	if cfg.HitRate < 0 || cfg.HitRate > 1 {
		return nil, fmt.Errorf("kvstore: cache hit rate %v outside [0, 1]", cfg.HitRate)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCacheCostModel()
	}
	cw := &CacheWorkload{
		Queries: w.Queries,
		Hits:    make([]bool, len(w.Queries)),
		Times:   make([]float64, len(w.Queries)),
		Cost:    cfg.Cost,
		results: make([]Set, len(w.Queries)),
	}
	hitRNG := stats.NewRNG(cfg.Seed)
	for i, q := range w.Queries {
		cw.Hits[i] = hitRNG.Bool(cfg.HitRate)
		work := Work{}
		if cw.Hits[i] {
			res, _ := w.Store.SInter(q.A, q.B)
			cw.results[i] = res
			work.Scanned = len(res)
		}
		cw.Times[i] = cfg.Cost.ServiceTime(work)
	}
	return cw, nil
}

// Lookup returns query i's cached result and whether it was a hit.
// Misses return (nil, false) — the fall-through signal a two-tier
// client turns into a store-tier dispatch.
func (cw *CacheWorkload) Lookup(i int) (Set, bool) {
	return cw.results[i], cw.Hits[i]
}
