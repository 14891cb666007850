package kvstore

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSAddAndSCard(t *testing.T) {
	s := NewStore()
	if got := s.SAdd("a", 3, 1, 2); got != 3 {
		t.Fatalf("SAdd added %d", got)
	}
	if got := s.SAdd("a", 2, 4); got != 1 {
		t.Fatalf("duplicate SAdd added %d", got)
	}
	if got := s.SCard("a"); got != 4 {
		t.Fatalf("SCard = %d", got)
	}
	if got := s.SCard("missing"); got != 0 {
		t.Fatalf("missing SCard = %d", got)
	}
	// Members must be kept sorted.
	set := s.sets["a"]
	if !sort.SliceIsSorted(set, func(i, j int) bool { return set[i] < set[j] }) {
		t.Fatalf("set not sorted: %v", set)
	}
}

func TestSInterBasic(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 2, 3, 5, 8)
	s.SAdd("b", 2, 3, 4, 8, 9)
	got, work := s.SInter("a", "b")
	want := Set{2, 3, 8}
	if len(got) != len(want) {
		t.Fatalf("SInter = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SInter = %v, want %v", got, want)
		}
	}
	if work.Scanned <= 0 {
		t.Fatalf("work = %+v", work)
	}
}

func TestSInterMissingAndEmpty(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 2)
	if got, _ := s.SInter("a", "missing"); len(got) != 0 {
		t.Fatalf("missing intersect = %v", got)
	}
	if got, _ := s.SInter("x", "y"); len(got) != 0 {
		t.Fatalf("both missing = %v", got)
	}
	if n, _ := s.SInterCard("a", "missing"); n != 0 {
		t.Fatalf("missing SInterCard = %d", n)
	}
}

func TestSInterCardMatchesSInter(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 3, 5, 7, 9, 11)
	s.SAdd("b", 3, 4, 5, 6, 7)
	set, w1 := s.SInter("a", "b")
	n, w2 := s.SInterCard("a", "b")
	if n != len(set) {
		t.Fatalf("SInterCard %d != len(SInter) %d", n, len(set))
	}
	if w1 != w2 {
		t.Fatalf("work mismatch: %+v vs %+v", w1, w2)
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore()
	s.SAdd("b", 1)
	s.SAdd("a", 1)
	s.SAdd("c", 1)
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{BaseMS: 0.1, PerElementMS: 0.001}
	if got := m.ServiceTime(Work{Scanned: 1000}); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("service time = %v", got)
	}
	if got := m.ServiceTime(Work{}); got != 0.1 {
		t.Fatalf("base-only service time = %v", got)
	}
}

func TestRandomSubset(t *testing.T) {
	const universe = 10000
	scratch := make([]uint64, (universe+63)/64)
	// Cardinality 1 and 10 sort the drawn values; 1000 and the full
	// universe read them off the bitset. The map path must draw the
	// same set from the same stream either way.
	for seed, card := range []int{1, 10, 1000, universe} {
		set := randomSubset(stats.NewRNG(uint64(seed)), universe, card, scratch)
		if len(set) != card {
			t.Fatalf("card %d: got %d members", card, len(set))
		}
		for i, v := range set {
			if v < 0 || v >= universe {
				t.Fatalf("member %d out of range", v)
			}
			if i > 0 && set[i-1] >= v {
				t.Fatal("subset not sorted or has duplicates")
			}
		}
		if !slices.Equal(set, randomSubset(stats.NewRNG(uint64(seed)), universe, card, nil)) {
			t.Fatalf("card %d: bitset and map sampling differ", card)
		}
		if slices.ContainsFunc(scratch, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("card %d: scratch bitset left dirty", card)
		}
	}
	// Full-range subset is the whole universe.
	full := randomSubset(stats.NewRNG(1), 100, 100, nil)
	if len(full) != 100 || full[0] != 0 || full[99] != 99 {
		t.Fatalf("full subset wrong: len=%d", len(full))
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  WorkloadConfig
	}{
		{"one set", WorkloadConfig{NumSets: 1, NumQueries: 10}},
		{"negative queries", WorkloadConfig{NumSets: 10, NumQueries: -1}},
		// The rest used to panic inside make or stats.NewLogNormal,
		// or silently draw every cardinality as 1.
		{"negative value range", WorkloadConfig{NumSets: 10, NumQueries: 10, ValueRange: -5}},
		{"min value range", WorkloadConfig{NumSets: 10, NumQueries: 10, ValueRange: math.MinInt32}},
		{"negative sigma", WorkloadConfig{NumSets: 10, NumQueries: 10, CardSigma: -1}},
		{"-Inf sigma", WorkloadConfig{NumSets: 10, NumQueries: 10, CardSigma: math.Inf(-1)}},
		{"+Inf sigma", WorkloadConfig{NumSets: 10, NumQueries: 10, CardSigma: math.Inf(1)}},
		{"NaN sigma", WorkloadConfig{NumSets: 10, NumQueries: 10, CardSigma: math.NaN()}},
		{"NaN mu", WorkloadConfig{NumSets: 10, NumQueries: 10, CardMu: math.NaN()}},
		{"+Inf mu", WorkloadConfig{NumSets: 10, NumQueries: 10, CardMu: math.Inf(1)}},
		{"-Inf mu", WorkloadConfig{NumSets: 10, NumQueries: 10, CardMu: math.Inf(-1)}},
	} {
		if _, err := GenerateWorkload(c.cfg); err == nil {
			t.Errorf("%s: %+v accepted", c.name, c.cfg)
		}
	}
}

func TestGenerateWorkloadSmall(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{
		NumSets: 50, ValueRange: 10000, NumQueries: 500, Seed: 1,
		CardMu: 4, CardSigma: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 500 || len(w.Times) != 500 {
		t.Fatalf("workload sizes: %d queries, %d times", len(w.Queries), len(w.Times))
	}
	for i, q := range w.Queries {
		if q.A == q.B {
			t.Fatalf("query %d intersects a set with itself", i)
		}
		if w.Times[i] <= 0 {
			t.Fatalf("query %d service time %v", i, w.Times[i])
		}
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	cfg := WorkloadConfig{NumSets: 30, ValueRange: 5000, NumQueries: 200, Seed: 9,
		CardMu: 4, CardSigma: 1}
	a, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || a.Queries[i] != b.Queries[i] {
			t.Fatal("same-seed workloads differ")
		}
	}
}

func TestPaperScaleWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	w, err := GenerateWorkload(WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := w.ServiceStats()
	// The paper reports mean 2.366 ms, sd 8.64 ms, over 98% of
	// queries below 10 ms at 20 ms granularity, and a handful of
	// "queries of death" above 150 ms. Verify the same shape.
	if s.Mean < 1 || s.Mean > 5 {
		t.Errorf("mean service %v outside [1, 5] ms", s.Mean)
	}
	if s.StdDev < 4 || s.StdDev > 20 {
		t.Errorf("sd %v outside [4, 20] ms", s.StdDev)
	}
	under10 := 0
	for _, v := range w.Times {
		if v < 10 {
			under10++
		}
	}
	if frac := float64(under10) / float64(len(w.Times)); frac < 0.90 {
		t.Errorf("only %v of queries under 10 ms", frac)
	}
	slow := w.SlowQueries(150)
	if len(slow) == 0 {
		t.Error("no queries of death above 150 ms")
	}
	if len(slow) > 200 {
		t.Errorf("%d queries above 150 ms — tail too fat", len(slow))
	}
	// Queries of death must trace back to abnormally large set pairs.
	q := w.Queries[slow[0]]
	if w.Store.SCard(q.A)+w.Store.SCard(q.B) < 100000 {
		t.Errorf("slow query over small sets: %d + %d",
			w.Store.SCard(q.A), w.Store.SCard(q.B))
	}
}

// Property: SInter is commutative and its cardinality never exceeds
// either input.
func TestSInterProperty(t *testing.T) {
	f := func(seed uint64, caRaw, cbRaw uint8) bool {
		r := stats.NewRNG(seed)
		ca, cb := int(caRaw%50)+1, int(cbRaw%50)+1
		s := NewStore()
		s.setSorted("a", randomSubset(r, 200, ca, nil))
		s.setSorted("b", randomSubset(r, 200, cb, nil))
		ab, _ := s.SInter("a", "b")
		ba, _ := s.SInter("b", "a")
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		return len(ab) <= ca && len(ab) <= cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SInter agrees with a brute-force map intersection.
func TestSInterBruteForceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		s := NewStore()
		sa := randomSubset(r, 100, r.Intn(40)+1, nil)
		sb := randomSubset(r, 100, r.Intn(40)+1, nil)
		s.setSorted("a", sa)
		s.setSorted("b", sb)
		got, _ := s.SInter("a", "b")
		inA := map[int32]bool{}
		for _, v := range sa {
			inA[v] = true
		}
		var want []int32
		for _, v := range sb {
			if inA[v] {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
