package topo

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

// chaosSpeeds is the chaos and batch fleets' heterogeneity: one
// permanently slow replica.
var chaosSpeeds = []float64{1, 1, 1, 2.5}

// chaosPolicy sits in the flat tail of the response CDF and keeps the
// budget lean: live scheduling overhead (heavier still under -race)
// shifts latencies by a fraction of a model-ms, and a delay on the
// steep part of the CDF — or a fat budget multiplying that shift —
// would turn it into a reissue-rate gap bigger than the physics being
// cross-validated.
var chaosPolicy = reissue.SingleR{D: 12, Q: 0.2}

// batchConfig is the batched fleets' serving configuration: the
// inference workload's default cost model.
var batchConfig = sched.BatchConfig{Size: 4, LingerMS: 2, Cost: sched.BatchCost{Scale: 0.15, PerItem: 0.05}}

// crashPlan kills replica 1 from query from on, with the breaker armed.
func crashPlan(from int) *cluster.FaultPlan {
	return &cluster.FaultPlan{
		Profiles:         []fault.Profile{{Replica: 1, Kind: fault.Crash, From: from}},
		BreakerThreshold: 5,
		BreakerCooldown:  400,
	}
}

// TestRunSimMatchesCluster is the oracle for a root fleet's simulator
// twin: RunSim, which replays every query through a graph leaf and
// trims warmup at the root, must equal a plain cluster.RunDetailed
// run of the post-warmup window on the same effective trace, speeds,
// seed, fault script and batch configuration — failure and reissue
// rates, breaker verdicts and every answered response, bit for bit.
func TestRunSimMatchesCluster(t *testing.T) {
	const n, warmup = 900, 150
	w := testWorkload(t, n)
	cases := []struct {
		name  string
		fleet FleetSpec
	}{
		{"crash", FleetSpec{Faults: crashPlan(300)}},
		{"error-rate", FleetSpec{Faults: &cluster.FaultPlan{Profiles: []fault.Profile{{Replica: 2, Kind: fault.ErrorRate, Rate: 0.2, Seed: 9}}}}},
		{"slow", FleetSpec{Faults: &cluster.FaultPlan{Profiles: []fault.Profile{{Replica: 0, Kind: fault.Slow, Factor: 2.5}}}}},
		{"batch", FleetSpec{Batch: &batchConfig}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := tc.fleet
			fs.Replicas, fs.SpeedFactors = len(chaosSpeeds), chaosSpeeds
			tp, err := Build(KV(w), Spec{Fleet: &fs}, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer tp.Close()
			lambda, err := tp.ArrivalRate(0.3, "")
			if err != nil {
				t.Fatal(err)
			}
			rs := RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 61, Policies: map[string]reissue.Policy{"": chaosPolicy}}
			got, err := tp.RunSim(rs)
			if err != nil {
				t.Fatal(err)
			}

			cfg := cluster.Config{
				Servers:      fs.Replicas,
				SpeedFactors: chaosSpeeds,
				ArrivalRate:  lambda,
				Queries:      n - warmup,
				Warmup:       warmup,
				Source:       &cluster.TraceSource{Times: tp.leaves[""].trace},
				LB:           cluster.HashedLB{},
				Seed:         rs.Seed,
				Faults:       fs.Faults,
			}
			if fs.Batch != nil {
				cfg.Discipline, cfg.Batch = cluster.Batch, *fs.Batch
			}
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := c.RunDetailed(chaosPolicy)
			t.Logf("failure %.4f reissue %.4f trips %v", want.FailureRate, want.ReissueRate, want.BreakerTrips)

			if tc.name == "error-rate" && want.FailureRate == 0 {
				t.Error("the error-rate script failed no query; the case exercises nothing")
			}
			if got.FailureRate != want.FailureRate {
				t.Errorf("failure rate %v, cluster %v", got.FailureRate, want.FailureRate)
			}
			if got.LeafRates[""] != want.ReissueRate {
				t.Errorf("reissue rate %v, cluster %v", got.LeafRates[""], want.ReissueRate)
			}
			if !slices.Equal(got.BreakerTrips, want.BreakerTrips) || !slices.Equal(got.BreakerOpen, want.BreakerOpen) {
				t.Errorf("breaker trips %v open %v, cluster trips %v open %v",
					got.BreakerTrips, got.BreakerOpen, want.BreakerTrips, want.BreakerOpen)
			}
			if !slices.Equal(got.Query, want.Log.ResponseTimes()) {
				t.Errorf("post-warmup responses differ from the cluster's (%d vs %d answered)", len(got.Query), want.Log.Len())
			}
		})
	}
}

// TestChaosSimLiveAgreement runs the SAME fault script through the
// live goroutine stack (fault.Injector over real replicas) and the
// virtual-time twin (cluster.FaultPlan), on the same workload trace
// and arrival rate: failure and reissue rates must agree within
// metrics.AgreementBand, and under a crash with the breaker armed the
// per-replica breaker verdicts must match exactly.
func TestChaosSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos agreement runs seconds of wall clock; skipped in -short")
	}
	const n, warmup = 1500, 250
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{NumSets: 200, NumQueries: n, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		plan    *cluster.FaultPlan
		rho     float64
		breaker bool
	}{
		// Replica 1 dies mid-run with the breaker armed: both worlds
		// must absorb exactly Threshold failures, trip exactly once,
		// and re-route everything after. Re-routing doubles the next
		// replica's load, so the run starts from a lower utilization
		// to keep the survivor where live and sim queueing agree.
		{name: "crash", plan: crashPlan(400), rho: 0.22, breaker: true},
		// Bernoulli copy failures off the shared Decide coin stream;
		// no breaker, so every faulted copy is visible.
		{name: "error-rate", plan: &cluster.FaultPlan{Profiles: []fault.Profile{{Replica: 2, Kind: fault.ErrorRate, Rate: 0.2, Seed: 9}}}, rho: 0.28},
		// A degraded replica: latency stretched 2.5x, nothing fails —
		// agreement shows up in the reissue rate the stretched tail
		// provokes.
		{name: "slow", plan: &cluster.FaultPlan{Profiles: []fault.Profile{{Replica: 0, Kind: fault.Slow, Factor: 2.5}}}, rho: 0.28},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Fleet: &FleetSpec{Replicas: len(chaosSpeeds), SpeedFactors: chaosSpeeds, Faults: tc.plan}}
			tp, err := Build(KV(w), spec, Options{Unit: 2 * time.Millisecond, MinServiceMS: 1.0})
			if err != nil {
				t.Fatal(err)
			}
			defer tp.Close()
			lambda, err := tp.ArrivalRate(tc.rho, "")
			if err != nil {
				t.Fatal(err)
			}
			rs := RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 61, Policies: map[string]reissue.Policy{"": chaosPolicy}}
			live, err := tp.RunLive(rs)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := tp.RunSim(rs)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("live: failure=%.4f reissue=%.4f p99=%.1f trips=%v open=%v",
				live.FailureRate, live.LeafRates[""], live.TailLatency(0.99), live.BreakerTrips, live.BreakerOpen)
			t.Logf("sim:  failure=%.4f reissue=%.4f p99=%.1f trips=%v open=%v",
				sim.FailureRate, sim.LeafRates[""], sim.TailLatency(0.99), sim.BreakerTrips, sim.BreakerOpen)

			if d := math.Abs(live.FailureRate - sim.FailureRate); d > metrics.AgreementBand {
				t.Errorf("failure rates diverge: live %.4f vs sim %.4f (|d|=%.4f > %.3f)",
					live.FailureRate, sim.FailureRate, d, metrics.AgreementBand)
			}
			if d := math.Abs(live.LeafRates[""] - sim.LeafRates[""]); d > metrics.AgreementBand {
				t.Errorf("reissue rates diverge: live %.4f vs sim %.4f (|d|=%.4f > %.3f)",
					live.LeafRates[""], sim.LeafRates[""], d, metrics.AgreementBand)
			}
			if !tc.breaker {
				return
			}
			if len(live.BreakerTrips) != len(chaosSpeeds) || len(sim.BreakerTrips) != len(chaosSpeeds) {
				t.Fatalf("breaker verdicts missing: live %v, sim %v", live.BreakerTrips, sim.BreakerTrips)
			}
			for r := range chaosSpeeds {
				want := 0
				if r == 1 {
					want = 1
				}
				if live.BreakerTrips[r] != want || sim.BreakerTrips[r] != want {
					t.Errorf("replica %d trips: live %d, sim %d, want %d (probes re-arm, never re-trip)",
						r, live.BreakerTrips[r], sim.BreakerTrips[r], want)
				}
				if live.BreakerOpen[r] != sim.BreakerOpen[r] {
					t.Errorf("replica %d end-state: live open=%v, sim open=%v", r, live.BreakerOpen[r], sim.BreakerOpen[r])
				}
			}
			if !live.BreakerOpen[1] {
				t.Error("crashed replica 1 ended the run with a closed breaker")
			}
		})
	}
}

// TestBatchSimLiveAgreement cross-validates the batched serving
// regime: a fleet under the Batch discipline in both worlds, on the
// same trace, replica heterogeneity, batch configuration and open-loop
// Poisson rate. "rates": the same fixed moderate-delay policy must
// reissue at the same rate in both worlds within the shared 0.025
// band, and neither world may fail a query. (The exact batch-membership
// check lives in reissue/hedge/backend.)
func TestBatchSimLiveAgreement(t *testing.T) {
	t.Run("rates", func(t *testing.T) {
		if testing.Short() {
			t.Skip("live runs take wall-clock seconds")
		}
		const n, warmup = 1500, 250
		spec := Spec{Fleet: &FleetSpec{Replicas: len(chaosSpeeds), SpeedFactors: chaosSpeeds, Batch: &batchConfig}}
		tp, err := Build(KV(agreeWorkload(t, n)), spec, Options{Unit: 2 * time.Millisecond, MinServiceMS: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		defer tp.Close()
		lambda, err := tp.ArrivalRate(0.3, "")
		if err != nil {
			t.Fatal(err)
		}
		// Fixed moderate-delay policy: the low-variance rate statistic,
		// as in the fleet agreement tests.
		rs := RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: liveSeed,
			Policies: map[string]reissue.Policy{"": reissue.SingleR{D: 5, Q: 0.25}}}
		live, err := tp.RunLive(rs)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := tp.RunSim(rs)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("batched reissue rate: live %.4f, sim %.4f", live.LeafRates[""], sim.LeafRates[""])
		t.Logf("batched P99 model-ms: live %.2f, sim %.2f", live.TailLatency(0.99), sim.TailLatency(0.99))
		if len(live.Query) != n-warmup || len(sim.Query) != n-warmup {
			t.Errorf("failed queries: live answered %d, sim %d of %d", len(live.Query), len(sim.Query), n-warmup)
		}
		if d := math.Abs(live.LeafRates[""] - sim.LeafRates[""]); d > metrics.AgreementBand {
			t.Errorf("batched fixed-policy reissue rates disagree: live %.4f, sim %.4f (|d| %.4f > %.3f)",
				live.LeafRates[""], sim.LeafRates[""], d, metrics.AgreementBand)
		}
	})
}
