package backend

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/reissue"
)

func percentile(xs []float64, k float64) float64 {
	return metrics.TailLatency(xs, k*100)
}

// TestSimLiveAgreement cross-validates the goroutine hedging runtime
// against the discrete-event cluster simulator: the same workload
// trace, replica count, heterogeneity, and open-loop Poisson arrival
// rate, with the same data-driven procedure — measure a no-reissue
// baseline, tune SingleR on its response-time log with
// reissue.ComputeOptimalSingleR at a fixed budget, rerun hedged — run
// over each system through the shared reissue.System interface. The
// two implementations share semantics (completion check before
// reissuing, losers run to completion, reissues routed off the
// primary's server), so the tuned policies' measured reissue rates
// must agree with each other and stay at or under the budget (hedging
// lightens its own tail, so the realized rate lands slightly below
// the rate the optimizer bound on the baseline), and both systems
// must show the hedged tail beating the unhedged tail.
func TestSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs take tens of wall-clock seconds")
	}
	const (
		replicas = 4
		rho      = 0.28
		n        = 1800
		warmup   = 250
		K        = 0.99
		B        = 0.05
		liveUnit = 2 * time.Millisecond
	)
	// One permanently slow replica (degraded disk, older hardware) is
	// the tail driver: requests queued behind it are rescued by their
	// reissue landing on a fast replica. With a replayed trace the
	// service times of primary and reissue are identical, so this
	// queueing asymmetry is precisely what hedging can fix — and both
	// the live backend and the simulator model it the same way.
	speeds := []float64{1, 1, 1, 2.5}
	w := kvWorkload(t, n)
	back, err := NewKV(w, Config{
		Replicas: replicas, Unit: liveUnit, SpeedFactors: speeds,
		// Keep every hold above the kernel sleep floor so the live
		// replicas and the simulator see the same service times.
		MinServiceMS: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	lambda := back.ArrivalRate(rho)

	// A fixed moderate-delay policy for the rate-agreement check: its
	// delay sits in a dense region of the response-time distribution,
	// so the measured rate Q·Pr(X > D) is a low-variance statistic —
	// unlike a tail-tuned policy, whose delay lands where a handful
	// of samples decide the rate.
	fixedPol := reissue.SingleR{D: 5, Q: 0.25}

	// --- Live: baseline, fixed policy, tuned policy — all over real
	// goroutines ---
	liveSys := &LiveSystem{Back: back, N: n, Warmup: warmup, Lambda: lambda, Seed: 21}
	liveBase := liveSys.Run(reissue.None{})
	liveFixed := liveSys.Run(fixedPol)
	livePol, _, err := reissue.ComputeOptimalSingleR(liveBase.Query, nil, K, B)
	if err != nil {
		t.Fatal(err)
	}
	liveHedge := liveSys.Run(livePol)

	// --- Simulator: same procedure at the same load on the same
	// trace. The sim replays the *effective* service times — the
	// nominal trace passed through the machine's measured sleep
	// response — the calibration step that makes "matched load"
	// meaningful on a timer-resolution-limited kernel.
	sim, err := cluster.New(cluster.Config{
		Servers:      replicas,
		ArrivalRate:  lambda,
		Queries:      n - warmup,
		Warmup:       warmup,
		Source:       &cluster.TraceSource{Times: back.EffectiveModelTimes()},
		SpeedFactors: speeds,
		Seed:         77,
	})
	if err != nil {
		t.Fatal(err)
	}
	simBase := sim.Run(reissue.None{})
	simFixed := sim.Run(fixedPol)
	simPol, _, err := reissue.ComputeOptimalSingleR(simBase.Query, nil, K, B)
	if err != nil {
		t.Fatal(err)
	}
	simHedge := sim.Run(simPol)

	liveBaseP99 := percentile(liveBase.Query, K)
	liveHedgeP99 := percentile(liveHedge.Query, K)
	simBaseP99 := percentile(simBase.Query, K)
	simHedgeP99 := percentile(simHedge.Query, K)
	t.Logf("policies: live %v, sim %v", livePol, simPol)
	t.Logf("P99 model-ms: live %.2f -> %.2f, sim %.2f -> %.2f",
		liveBaseP99, liveHedgeP99, simBaseP99, simHedgeP99)
	t.Logf("fixed-policy reissue rate: live %.4f, sim %.4f (expected %.3f·Pr(X>%.0f))",
		liveFixed.ReissueRate, simFixed.ReissueRate, fixedPol.Q, fixedPol.D)
	t.Logf("tuned-policy reissue rate: live %.4f, sim %.4f, budget %.2f",
		liveHedge.ReissueRate, simHedge.ReissueRate, B)

	// Rate agreement at matched load, on the low-variance statistic:
	// the same fixed policy must reissue at the same rate in both
	// systems, within 2.5 percentage points.
	if d := math.Abs(liveFixed.ReissueRate - simFixed.ReissueRate); d > metrics.AgreementBand {
		t.Errorf("fixed-policy reissue rates differ by %.3f: live=%.4f sim=%.4f",
			d, liveFixed.ReissueRate, simFixed.ReissueRate)
	}

	// Tuned policies: the realized rate is a tail statistic with real
	// run-to-run variance, so only sanity-band it around the budget.
	for name, rate := range map[string]float64{
		"live": liveHedge.ReissueRate, "sim": simHedge.ReissueRate,
	} {
		if rate <= 0 || rate > 2.5*B {
			t.Errorf("%s tuned reissue rate %.4f outside (0, %.3f]", name, rate, 2.5*B)
		}
	}

	// Both implementations must show hedging improving the P99.
	if liveHedgeP99 >= 0.97*liveBaseP99 {
		t.Errorf("live hedging did not improve P99: %.2f -> %.2f", liveBaseP99, liveHedgeP99)
	}
	if simHedgeP99 >= 0.97*simBaseP99 {
		t.Errorf("sim hedging did not improve P99: %.2f -> %.2f", simBaseP99, simHedgeP99)
	}
}

// TestLiveSystemRunResult checks the System adapter's measurement
// plumbing at light load, with the simulator's semantics: every
// post-warmup query contributes a primary response time, reissues
// contribute reissue response times, warmup is excluded everywhere,
// and the reported reissue rate matches the copy log.
func TestLiveSystemRunResult(t *testing.T) {
	w := kvWorkload(t, 400)
	back, err := NewKV(w, Config{Replicas: 3, Unit: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	sys := &LiveSystem{Back: back, N: 400, Warmup: 50, Lambda: back.ArrivalRate(0.2), Seed: 5}
	run := sys.Run(reissue.SingleR{D: 0, Q: 0.5})
	if len(run.Primary) != 350 {
		t.Fatalf("got %d primary samples, want 350 (warmup excluded)", len(run.Primary))
	}
	if len(run.Query) != 350 {
		t.Fatalf("got %d query samples, want 350", len(run.Query))
	}
	if len(run.Reissue) == 0 {
		t.Fatal("no reissue response times collected")
	}
	wantRate := float64(len(run.Reissue)) / 350
	if math.Abs(run.ReissueRate-wantRate) > 1e-9 {
		t.Fatalf("reissue rate %.4f does not match %d collected copies (%.4f)",
			run.ReissueRate, len(run.Reissue), wantRate)
	}
	// With D=0 the completion check never suppresses the planned
	// copy, so the rate must equal the coin-flip probability Q.
	if math.Abs(run.ReissueRate-0.5) > 0.08 {
		t.Fatalf("reissue rate %.4f far from Q=0.5", run.ReissueRate)
	}
}
