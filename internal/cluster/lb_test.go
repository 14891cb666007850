package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge/backend"
)

func TestRandomLBUniform(t *testing.T) {
	r := stats.NewRNG(1)
	lengths := make([]int, 10)
	counts := make([]int, 10)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[(RandomLB{}).Pick(r, lengths, -1)]++
	}
	want := float64(trials) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("server %d picked %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestRandomLBExcludes(t *testing.T) {
	r := stats.NewRNG(2)
	lengths := make([]int, 5)
	for i := 0; i < 10000; i++ {
		if got := (RandomLB{}).Pick(r, lengths, 3); got == 3 {
			t.Fatal("excluded server picked")
		}
	}
	// With a single server the exclusion cannot be honored.
	if got := (RandomLB{}).Pick(r, []int{0}, 0); got != 0 {
		t.Fatalf("single-server pick = %d", got)
	}
}

func TestMinOfTwoPrefersShorter(t *testing.T) {
	r := stats.NewRNG(3)
	// Server 0 is empty, all others heavily loaded: min-of-two should
	// pick server 0 roughly  1 - C(9,2)/C(10,2) = 1 - 36/45 = 20% of
	// the time, versus 10% for random.
	lengths := []int{0, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	const trials = 50000
	hit := 0
	for i := 0; i < trials; i++ {
		if (MinOfTwoLB{}).Pick(r, lengths, -1) == 0 {
			hit++
		}
	}
	got := float64(hit) / trials
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("min-of-two picked empty server %.3f of the time, want ~0.2", got)
	}
}

func TestMinOfTwoExcludes(t *testing.T) {
	r := stats.NewRNG(4)
	lengths := []int{0, 1, 2}
	for i := 0; i < 5000; i++ {
		if (MinOfTwoLB{}).Pick(r, lengths, 0) == 0 {
			t.Fatal("excluded server picked")
		}
	}
}

func TestMinOfAllPicksMinimum(t *testing.T) {
	r := stats.NewRNG(5)
	lengths := []int{5, 3, 8, 3, 9}
	for i := 0; i < 1000; i++ {
		got := (MinOfAllLB{}).Pick(r, lengths, -1)
		if got != 1 && got != 3 {
			t.Fatalf("picked %d with queue %d, want a minimum", got, lengths[got])
		}
	}
}

func TestMinOfAllTieBreaksUniformly(t *testing.T) {
	r := stats.NewRNG(6)
	lengths := []int{2, 2, 2, 9}
	counts := make([]int, 4)
	const trials = 60000
	for i := 0; i < trials; i++ {
		counts[(MinOfAllLB{}).Pick(r, lengths, -1)]++
	}
	if counts[3] != 0 {
		t.Fatal("non-minimal server picked")
	}
	want := float64(trials) / 3
	for i := 0; i < 3; i++ {
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("tie server %d picked %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestMinOfAllExcludes(t *testing.T) {
	r := stats.NewRNG(7)
	lengths := []int{0, 5, 6}
	for i := 0; i < 1000; i++ {
		if got := (MinOfAllLB{}).Pick(r, lengths, 0); got != 1 {
			t.Fatalf("picked %d, want 1 (shortest non-excluded)", got)
		}
	}
}

func TestLoadBalancerByName(t *testing.T) {
	for name, want := range map[string]string{
		"random": "Random", "min2": "MinOfTwo", "min-of-two": "MinOfTwo",
		"minall": "MinOfAll", "min-of-all": "MinOfAll",
	} {
		lb, err := LoadBalancerByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lb.String() != want {
			t.Errorf("%s -> %s, want %s", name, lb, want)
		}
	}
	if _, err := LoadBalancerByName("bogus"); err == nil {
		t.Error("bogus name accepted")
	}
}

// Property: every balancer returns a valid index and honors exclusion
// whenever possible.
func TestLBValidityProperty(t *testing.T) {
	lbs := []LoadBalancer{RandomLB{}, MinOfTwoLB{}, MinOfAllLB{}}
	f := func(seed uint64, nRaw, exRaw uint8) bool {
		n := int(nRaw%10) + 1
		r := stats.NewRNG(seed)
		lengths := make([]int, n)
		for i := range lengths {
			lengths[i] = r.Intn(10)
		}
		exclude := int(exRaw%(uint8(n)+1)) - 1 // -1 .. n-1
		for _, lb := range lbs {
			got := lb.Pick(r, lengths, exclude)
			if got < 0 || got >= n {
				return false
			}
			if n > 1 && got == exclude {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHashedLBPlacement checks HashedLB's contract on a plain
// cluster: every query's primary goes to hashReplica(id, n). The
// chosen server is not directly observable, so the test marks each
// server with a distinct speed factor and runs at near-zero load:
// the primary's response then equals service * speed of its server.
func TestHashedLBPlacement(t *testing.T) {
	// Speed factors pick out the chosen server: at zero load, the
	// primary's response time is service * speed[hashReplica(id, n)].
	const n = 64
	speeds := []float64{1, 2, 4}
	times := make([]float64, n)
	for i := range times {
		times[i] = 1
	}
	cl, err := New(Config{
		Servers:      3,
		ArrivalRate:  0.001, // essentially sequential: no queueing
		Queries:      n,
		Source:       &TraceSource{Times: times},
		SpeedFactors: speeds,
		LB:           HashedLB{},
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.RunDetailed(reissue.None{})
	for i, rec := range res.Log.Records {
		want := speeds[hashReplica(i, 3)]
		if math.Abs(rec.Primary-want) > 1e-9 {
			t.Fatalf("query %d: primary response %v, want %v (hashed placement)", i, rec.Primary, want)
		}
	}
}

// TestPolicySeedDecouplesCoins checks the PolicySeed override: same
// Seed, different PolicySeed must flip different coins while keeping
// the arrival stream identical; PolicySeed zero preserves the
// historical stream bit for bit.
func TestPolicySeedDecouplesCoins(t *testing.T) {
	mk := func(policySeed uint64) *Result {
		cfg := shardedBase(400)
		cfg.LB = nil // default RandomLB, the historical configuration
		cfg.Source = shardTraces(400, 1)[0]
		cfg.PolicySeed = policySeed
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cl.RunDetailed(reissue.SingleR{D: 0, Q: 0.5})
	}
	legacy, again := mk(0), mk(0)
	for i := range legacy.Log.Records {
		if legacy.Log.Records[i].Reissued != again.Log.Records[i].Reissued {
			t.Fatal("PolicySeed=0 runs are not reproducible")
		}
	}
	other := mk(0xfeedface)
	same := 0
	for i := range legacy.Log.Records {
		if legacy.Log.Records[i].Arrival != other.Log.Records[i].Arrival {
			t.Fatal("PolicySeed changed the arrival stream")
		}
		if legacy.Log.Records[i].Reissued == other.Log.Records[i].Reissued {
			same++
		}
	}
	if frac := float64(same) / float64(len(legacy.Log.Records)); frac > 0.65 {
		t.Fatalf("coin agreement %.2f with a different PolicySeed, want ~0.5", frac)
	}
}

// TestHashReplicaMatchesPrimaryReplica pins hashReplica against the
// live runtime's backend.PrimaryReplica bit for bit — the duplication
// exists only because this package cannot import the backend without
// inverting the dependency direction, and HashedLB's whole point is
// reproducing the live placement exactly.
func TestHashReplicaMatchesPrimaryReplica(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17} {
		for i := 0; i < 5000; i++ {
			if got, want := hashReplica(i, n), backend.PrimaryReplica(i, n); got != want {
				t.Fatalf("hashReplica(%d, %d) = %d, backend.PrimaryReplica = %d", i, n, got, want)
			}
		}
	}
}
