package cluster

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

func chaosConfig(queries int, plan *FaultPlan) Config {
	dist := stats.NewExponential(0.1) // mean 10 model-ms
	return Config{
		Servers:     3,
		ArrivalRate: ArrivalRateForUtilization(0.3, 3, dist.Mean()),
		Queries:     queries,
		Source:      DistSource{Dist: dist},
		LB:          HashedLB{},
		Seed:        11,
		Faults:      plan,
	}
}

func TestFaultPlanValidation(t *testing.T) {
	dist := stats.NewExponential(0.1)
	bad := []Config{
		// Chaos needs a finite fleet to route over.
		{Queries: 10, ArrivalRate: 1, Source: DistSource{Dist: dist},
			Faults: &FaultPlan{Profiles: []fault.Profile{{Replica: 0, Kind: fault.Crash}}}},
		// Profile replica out of range.
		chaosConfig(10, &FaultPlan{Profiles: []fault.Profile{{Replica: 3, Kind: fault.Crash}}}),
		// ErrorRate without a rate.
		chaosConfig(10, &FaultPlan{Profiles: []fault.Profile{{Replica: 0, Kind: fault.ErrorRate}}}),
		// Breaker armed without a cooldown.
		chaosConfig(10, &FaultPlan{BreakerThreshold: 2}),
		// Negative threshold.
		chaosConfig(10, &FaultPlan{BreakerThreshold: -1, BreakerCooldown: 10}),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad chaos config %d accepted", i)
		}
	}
}

// TestChaosCrashBreakerDeterministic pins the breaker mirror's exact
// counters under a permanent crash: the faulted server absorbs
// exactly Threshold dispatch failures, trips once, never half-opens
// (cooldown outlives the run), and every later copy intended for it
// re-routes and succeeds.
func TestChaosCrashBreakerDeterministic(t *testing.T) {
	c := mustCluster(t, chaosConfig(2000, &FaultPlan{
		Profiles:         []fault.Profile{{Replica: 0, Kind: fault.Crash}},
		BreakerThreshold: 3,
		BreakerCooldown:  1e9,
	}))
	res := c.RunDetailed(reissue.None{})

	if res.FaultedCopies != 3 {
		t.Errorf("FaultedCopies = %d, want exactly Threshold=3 (rest re-routed)", res.FaultedCopies)
	}
	if got := res.BreakerTrips[0]; got != 1 {
		t.Errorf("BreakerTrips[0] = %d, want 1", got)
	}
	if res.BreakerTrips[1] != 0 || res.BreakerTrips[2] != 0 {
		t.Errorf("healthy servers tripped: %v", res.BreakerTrips)
	}
	if !res.BreakerOpen[0] || res.BreakerOpen[1] || res.BreakerOpen[2] {
		t.Errorf("BreakerOpen = %v, want [true false false]", res.BreakerOpen)
	}
	if res.ReroutedCopies == 0 {
		t.Error("ReroutedCopies = 0, want copies steered off the dead server")
	}
	if len(res.Failed) != 3 {
		t.Errorf("len(Failed) = %d, want the 3 pre-trip casualties", len(res.Failed))
	}
	if want := 3.0 / 2000.0; res.FailureRate != want {
		t.Errorf("FailureRate = %v, want %v", res.FailureRate, want)
	}
	if got := res.Log.Len(); got != 2000-3 {
		t.Errorf("log has %d records, want %d — failed queries must not log", got, 2000-3)
	}
}

// TestChaosStallReissueRescues: a stalled primary never completes,
// but the hashed reissue lands one server over and answers; no query
// fails and stalled copies are dropped, not queued.
func TestChaosStallReissueRescues(t *testing.T) {
	c := mustCluster(t, chaosConfig(1500, &FaultPlan{
		Profiles: []fault.Profile{{Replica: 0, Kind: fault.Stall}},
	}))
	res := c.RunDetailed(reissue.SingleR{D: 0.01, Q: 1})

	if res.StalledCopies == 0 {
		t.Fatal("StalledCopies = 0, want the dead server's copies stalled")
	}
	if len(res.Failed) != 0 {
		t.Errorf("len(Failed) = %d, want 0 — the reissue rescues every stalled primary", len(res.Failed))
	}
	if got := res.Log.Len(); got != 1500 {
		t.Errorf("log has %d records, want 1500", got)
	}
}

// TestChaosErrorRateAndSlowDeterministic: the coin stream and the
// slow-edge stretch are pure functions of the seed and script, so two
// identical runs agree bit-for-bit, and the stretch moves the tail
// without failing anything.
func TestChaosErrorRateAndSlowDeterministic(t *testing.T) {
	plan := &FaultPlan{Profiles: []fault.Profile{
		{Replica: 1, Kind: fault.ErrorRate, Rate: 0.3, Seed: 7},
		{Replica: 2, Kind: fault.Slow, Factor: 4},
	}}
	run := func() *Result {
		return mustCluster(t, chaosConfig(3000, plan)).RunDetailed(reissue.SingleR{D: 5, Q: 0.3})
	}
	a, b := run(), run()
	if a.FaultedCopies != b.FaultedCopies || len(a.Failed) != len(b.Failed) ||
		a.FailureRate != b.FailureRate || a.ReissueRate != b.ReissueRate {
		t.Errorf("chaos runs diverged: %+v vs %+v", a, b)
	}
	if a.FaultedCopies == 0 {
		t.Error("FaultedCopies = 0, want error-rate coin flips landing")
	}

	clean := mustCluster(t, chaosConfig(3000, nil)).RunDetailed(reissue.SingleR{D: 5, Q: 0.3})
	slowTail := stats.Summarize(a.Log.ResponseTimes()).Max
	cleanTail := stats.Summarize(clean.Log.ResponseTimes()).Max
	if slowTail <= cleanTail {
		t.Errorf("slow-fault max response %v <= clean max %v, want a stretched tail", slowTail, cleanTail)
	}
}

// TestGraphLeafUnderFaults is the regression test for a graph leaf
// whose FaultPlan fails queries: the leaf used to index its log by
// position and panic on the missing records. A failed query must
// read +Inf in the graph, its reissues must count in the leaf rate,
// and a single-leaf graph must reproduce the plain Cluster's failure
// rate, reissue rate and answered responses bit for bit.
func TestGraphLeafUnderFaults(t *testing.T) {
	const n, warmup = 500, 100
	plan := &FaultPlan{Profiles: []fault.Profile{{Replica: 1, Kind: fault.ErrorRate, Rate: 0.6, Seed: 3}}}
	pol := reissue.SingleR{D: 8, Q: 0.5}

	cfg := chaosConfig(n, plan)
	cfg.Warmup = warmup
	want := mustCluster(t, cfg).RunDetailed(pol)
	if len(want.Failed) == 0 {
		t.Fatal("the fault plan failed no measured query; the test exercises nothing")
	}

	cfg.Queries, cfg.Warmup = n+warmup, 0
	leaf, err := NewGraphLeaf("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(leaf, n, warmup)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Run(polConst(pol))

	var answered []float64
	failed := 0
	for _, rt := range got.Query {
		if math.IsInf(rt, 1) {
			failed++
			continue
		}
		answered = append(answered, rt)
	}
	if rate := float64(failed) / float64(n); rate != want.FailureRate {
		t.Errorf("graph failure rate %v, cluster %v", rate, want.FailureRate)
	}
	if got.LeafRates[""] != want.ReissueRate {
		t.Errorf("graph leaf reissue rate %v, cluster %v", got.LeafRates[""], want.ReissueRate)
	}
	rts := want.Log.ResponseTimes()
	if len(answered) != len(rts) || len(got.LeafResp[""]) != len(rts) {
		t.Fatalf("graph answered %d queries (leaf log %d), cluster %d", len(answered), len(got.LeafResp[""]), len(rts))
	}
	for i := range rts {
		if answered[i] != rts[i] || got.LeafResp[""][i] != rts[i] {
			t.Fatalf("answered query %d: graph %v (leaf log %v), cluster %v", i, answered[i], got.LeafResp[""][i], rts[i])
		}
	}
}
