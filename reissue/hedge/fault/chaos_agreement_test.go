// Chaos cross-validation: the SAME fault script through the live
// goroutine stack (fault.Injector over real replicas) and the
// virtual-time cluster twin (cluster.FaultPlan), on the same workload
// trace and arrival process, must produce the same failure and
// reissue rates — and, under a crash with the breaker armed, the same
// deterministic breaker verdicts.
package fault_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/chaoslab"
	"repro/internal/metrics"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

func baseScenario() chaoslab.Scenario {
	return chaoslab.Scenario{
		Replicas: 4,
		Speeds:   []float64{1, 1, 1, 2.5},
		N:        1500,
		Warmup:   250,
		Rho:      0.28,
		// D sits in the flat tail of the response CDF and Q keeps the
		// budget lean: live scheduling overhead (heavier still under
		// -race) shifts latencies by a fraction of a model-ms, and a
		// delay on the steep part of the CDF — or a fat budget
		// multiplying that shift — would turn it into a reissue-rate
		// gap bigger than the physics being cross-validated.
		Policy:       reissue.SingleR{D: 12, Q: 0.2},
		Seed:         61,
		Unit:         2 * time.Millisecond,
		MinServiceMS: 1.0,
	}
}

func TestChaosSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos agreement runs seconds of wall clock; skipped in -short")
	}
	cases := []struct {
		name    string
		mutate  func(*chaoslab.Scenario)
		breaker bool
	}{
		{
			// Replica 1 dies mid-run with the breaker armed: both
			// worlds must absorb exactly Threshold failures, trip
			// exactly once, and re-route everything after.
			name: "crash",
			mutate: func(sc *chaoslab.Scenario) {
				sc.Profiles = []fault.Profile{{Replica: 1, Kind: fault.Crash, From: 400}}
				sc.BreakerThreshold = 5
				sc.BreakerCooldownMS = 400
				// Re-routing doubles the next replica's load; start
				// from a lower utilization so the survivor stays in
				// the regime where live and sim queueing agree.
				sc.Rho = 0.22
			},
			breaker: true,
		},
		{
			// Bernoulli copy failures off the shared Decide coin
			// stream; no breaker, so every faulted copy is visible.
			name: "error-rate",
			mutate: func(sc *chaoslab.Scenario) {
				sc.Profiles = []fault.Profile{{Replica: 2, Kind: fault.ErrorRate, Rate: 0.2, Seed: 9}}
			},
		},
		{
			// A degraded replica: latency stretched 2.5x, nothing
			// fails — agreement shows up in the reissue rate the
			// stretched tail provokes.
			name: "slow",
			mutate: func(sc *chaoslab.Scenario) {
				sc.Profiles = []fault.Profile{{Replica: 0, Kind: fault.Slow, Factor: 2.5}}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := baseScenario()
			tc.mutate(&sc)
			lab, err := chaoslab.New(sc)
			if err != nil {
				t.Fatal(err)
			}
			live, err := lab.RunLive()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := lab.RunSim()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("live: failure=%.4f reissue=%.4f p99=%.1f injector=%+v",
				live.FailureRate, live.ReissueRate, live.P99, live.Injector)
			t.Logf("sim:  failure=%.4f reissue=%.4f p99=%.1f trips=%v open=%v",
				sim.FailureRate, sim.ReissueRate, sim.P99, sim.BreakerTrips, sim.BreakerTripped)

			if d := math.Abs(live.FailureRate - sim.FailureRate); d > metrics.AgreementBand {
				t.Errorf("failure rates diverge: live %.4f vs sim %.4f (|d|=%.4f > %.3f)",
					live.FailureRate, sim.FailureRate, d, metrics.AgreementBand)
			}
			if d := math.Abs(live.ReissueRate - sim.ReissueRate); d > metrics.AgreementBand {
				t.Errorf("reissue rates diverge: live %.4f vs sim %.4f (|d|=%.4f > %.3f)",
					live.ReissueRate, sim.ReissueRate, d, metrics.AgreementBand)
			}
			if tc.breaker {
				for r := 0; r < sc.Replicas; r++ {
					want := 0
					if r == 1 {
						want = 1
					}
					if live.BreakerTrips[r] != want || sim.BreakerTrips[r] != want {
						t.Errorf("replica %d trips: live %d, sim %d, want %d (probes re-arm, never re-trip)",
							r, live.BreakerTrips[r], sim.BreakerTrips[r], want)
					}
					if live.BreakerTripped[r] != sim.BreakerTripped[r] {
						t.Errorf("replica %d end-state: live tripped=%v, sim tripped=%v",
							r, live.BreakerTripped[r], sim.BreakerTripped[r])
					}
				}
				if !live.BreakerTripped[1] {
					t.Error("crashed replica 1 ended the run with a closed breaker")
				}
			}
		})
	}
}

// TestChaosStallContainment is the live-only stall scenario: a wedged
// replica answers nothing, and only the per-attempt timeout keeps the
// run bounded. Every query must still complete or fail in finite time
// — the open loop must never hang on a stalled copy.
func TestChaosStallContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live fleet; skipped in -short")
	}
	sc := baseScenario()
	sc.N, sc.Warmup = 400, 50
	sc.Profiles = []fault.Profile{{Replica: 1, Kind: fault.Stall}}
	sc.AttemptTimeoutMS = 30
	lab, err := chaoslab.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan chaoslab.Outcome, 1)
	go func() {
		out, err := lab.RunLive()
		if err != nil {
			t.Errorf("RunLive: %v", err)
		}
		done <- out
	}()
	select {
	case out := <-done:
		if out.Injector.Stalled == 0 {
			t.Fatalf("injector stalled no copies: %+v", out.Injector)
		}
		t.Logf("contained: failure=%.4f stalled=%d", out.FailureRate, out.Injector.Stalled)
	case <-time.After(2 * time.Minute):
		t.Fatal("stalled copies hung the run — attempt timeout did not contain the stall")
	}
}
