package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/reissue"
)

// These tests hold the discrete-event simulator to closed-form
// queueing theory: if the substrate cannot reproduce M/M/1, M/M/c,
// and M/G/1, none of the paper's experiments on top of it mean
// anything.

// simulateQueue runs a no-reissue workload and returns the measured
// mean response time.
func simulateQueue(t *testing.T, servers int, lambda float64, dist stats.Dist, lb LoadBalancer, seed uint64) float64 {
	t.Helper()
	c, err := New(Config{
		Servers:     servers,
		ArrivalRate: lambda,
		Queries:     60000,
		Warmup:      6000,
		Source:      DistSource{Dist: dist},
		LB:          lb,
		Seed:        seed,
		FreshPerRun: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunDetailed(reissue.None{})
	return stats.Summarize(res.Log.ResponseTimes()).Mean
}

func TestSimulatorMatchesMM1(t *testing.T) {
	// One server, Poisson arrivals, exponential service: M/M/1.
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		mu := 1.0
		lambda := rho * mu
		q, err := queueing.NewMM1(lambda, mu)
		if err != nil {
			t.Fatal(err)
		}
		got := simulateQueue(t, 1, lambda, stats.NewExponential(mu), nil, 101)
		want := q.MeanResponse()
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("rho=%v: simulated mean response %v, M/M/1 predicts %v",
				rho, got, want)
		}
	}
}

func TestSimulatorMatchesMG1Deterministic(t *testing.T) {
	// M/D/1: deterministic service halves the M/M/1 queueing delay.
	const lambda, meanS = 0.7, 1.0
	q, err := queueing.NewMG1(lambda, meanS, meanS*meanS)
	if err != nil {
		t.Fatal(err)
	}
	got := simulateQueue(t, 1, lambda, stats.Deterministic{Value: meanS}, nil, 103)
	want := q.MeanResponse()
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("M/D/1 simulated %v, theory %v", got, want)
	}
}

func TestSimulatorMatchesMG1LogNormal(t *testing.T) {
	// M/G/1 with log-normal service: E[S^2] = exp(2mu + 2sigma^2).
	const lambda = 0.12
	ln := stats.NewLogNormal(1, 0.7)
	meanS := ln.Mean()
	secondS := math.Exp(2*ln.Mu + 2*ln.Sigma*ln.Sigma)
	q, err := queueing.NewMG1(lambda, meanS, secondS)
	if err != nil {
		t.Fatal(err)
	}
	got := simulateQueue(t, 1, lambda, ln, nil, 107)
	want := q.MeanResponse()
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("M/G/1(lognormal) simulated %v, PK predicts %v", got, want)
	}
}

func TestSimulatorMatchesMMCWithSharedQueueApprox(t *testing.T) {
	// Our servers have private queues, so min-of-all dispatch (join
	// the shortest queue) is the closest realization of M/M/c. JSQ is
	// known to perform close to (slightly worse than) the central
	// queue; require the simulated mean to land between the M/M/c
	// prediction and the random-dispatch (independent M/M/1s) bound.
	const c0, mu = 10, 1.0
	for _, rho := range []float64{0.5, 0.7} {
		lambda := rho * mu * c0
		mmc, err := queueing.NewMMC(lambda, mu, c0)
		if err != nil {
			t.Fatal(err)
		}
		mm1, err := queueing.NewMM1(rho*mu, mu)
		if err != nil {
			t.Fatal(err)
		}
		got := simulateQueue(t, c0, lambda, stats.NewExponential(mu), MinOfAllLB{}, 109)
		lower := mmc.MeanResponse()
		upper := mm1.MeanResponse()
		if got < lower*0.95 || got > upper*1.05 {
			t.Errorf("rho=%v: JSQ simulated %v outside [M/M/c %v, M/M/1 %v]",
				rho, got, lower, upper)
		}
	}
}

func TestSimulatorRandomDispatchMatchesIndependentMM1(t *testing.T) {
	// Random dispatch over c servers decomposes into c independent
	// M/M/1 queues at per-server rate lambda/c.
	const c0, mu, rho = 10, 1.0, 0.6
	lambda := rho * mu * c0
	mm1, err := queueing.NewMM1(rho*mu, mu)
	if err != nil {
		t.Fatal(err)
	}
	got := simulateQueue(t, c0, lambda, stats.NewExponential(mu), RandomLB{}, 113)
	want := mm1.MeanResponse()
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("random dispatch simulated %v, independent M/M/1 predicts %v", got, want)
	}
}

// tailRun holds the measured wait and response times of one
// no-reissue run.
type tailRun struct{ wait, resp []float64 }

// simulateTails runs a no-reissue workload with exponential(mu)
// service times and returns each measured query's wait and response
// time. The service times are drawn up front into a TraceSource (one
// per query, warmup included), so a query's wait is its response time
// minus its known service time.
func simulateTails(t *testing.T, servers int, lambda, mu float64, lb LoadBalancer, seed uint64) tailRun {
	t.Helper()
	const queries, warmup = 60000, 6000
	r := stats.NewRNG(seed ^ 0x7a11)
	dist := stats.NewExponential(mu)
	times := make([]float64, queries+warmup)
	for i := range times {
		times[i] = dist.Sample(r)
	}
	c, err := New(Config{
		Servers:     servers,
		ArrivalRate: lambda,
		Queries:     queries,
		Warmup:      warmup,
		Source:      &TraceSource{Times: times},
		LB:          lb,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunDetailed(reissue.None{})
	var out tailRun
	for _, rec := range res.Log.Records {
		out.resp = append(out.resp, rec.Response)
		out.wait = append(out.wait, rec.Response-times[rec.ID])
	}
	return out
}

// The paper's metric is a tail quantile, so the analytic anchor checks
// P95 and P99 too, of both the wait and the response time. Each
// tolerance is about 4 SDs of the statistic's relative error, measured
// on seeds 1-30 of this same setup (60 000 queries after 6 000 of
// warmup); the largest SD over the four statistics at each load sets
// the band:
//
//	M/M/1, rho 0.3: SD 0.010-0.021, worst seed 0.057 -> 0.10
//	M/M/1, rho 0.6: SD 0.024-0.045, worst seed 0.119 -> 0.20
//	M/M/1, rho 0.8: SD 0.046-0.079, worst seed 0.163 -> 0.35
//	10 servers, random dispatch, rho 0.5: SD 0.018-0.030, worst 0.075 -> 0.15
//	10 servers, random dispatch, rho 0.7: SD 0.032-0.052, worst 0.117 -> 0.25
//
// The seeds below are the ones the mean tests above use.
func checkTails(t *testing.T, label string, run tailRun, wait queueing.MMC, resp queueing.MM1, tol float64) {
	t.Helper()
	for _, p := range []float64{95, 99} {
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"wait", metrics.TailLatency(run.wait, p), wait.WaitQuantile(p / 100)},
			{"response", metrics.TailLatency(run.resp, p), resp.ResponseQuantile(p / 100)},
		} {
			if math.Abs(c.got/c.want-1) > tol {
				t.Errorf("%s: P%v %s %v, theory %v (tolerance %v)", label, p, c.what, c.got, c.want, tol)
			}
		}
	}
}

func TestSimulatorMatchesMM1Quantiles(t *testing.T) {
	for _, tc := range []struct{ rho, tol float64 }{{0.3, 0.10}, {0.6, 0.20}, {0.8, 0.35}} {
		resp, err := queueing.NewMM1(tc.rho, 1)
		if err != nil {
			t.Fatal(err)
		}
		// M/M/1 is M/M/c with c = 1: its wait quantile goes through
		// Erlang C, which is rho there.
		wait, err := queueing.NewMMC(tc.rho, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := simulateTails(t, 1, tc.rho, 1, nil, 101)
		checkTails(t, fmt.Sprintf("M/M/1 rho=%v", tc.rho), run, wait, resp, tc.tol)
	}
}

func TestSimulatorMatchesMMCQuantiles(t *testing.T) {
	const c0 = 10
	for _, tc := range []struct{ rho, tol float64 }{{0.5, 0.15}, {0.7, 0.25}} {
		// Random dispatch splits the cluster into c independent M/M/1
		// queues at the per-server rate: exact quantiles.
		resp, err := queueing.NewMM1(tc.rho, 1)
		if err != nil {
			t.Fatal(err)
		}
		wait1, err := queueing.NewMMC(tc.rho, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := simulateTails(t, c0, tc.rho*c0, 1, RandomLB{}, 113)
		checkTails(t, fmt.Sprintf("random dispatch rho=%v", tc.rho), run, wait1, resp, tc.tol)

		// Join-the-shortest-queue over private queues sits between the
		// shared-queue M/M/c (Erlang C) and random dispatch. Over seeds
		// 1-30 its P99 wait was 2.6-4.2 times M/M/c's and 0.10-0.21
		// times random dispatch's, so the bracket has no tolerance.
		mmc, err := queueing.NewMMC(tc.rho*c0, 1, c0)
		if err != nil {
			t.Fatal(err)
		}
		jsq := metrics.TailLatency(simulateTails(t, c0, tc.rho*c0, 1, MinOfAllLB{}, 109).wait, 99)
		if lo, hi := mmc.WaitQuantile(0.99), wait1.WaitQuantile(0.99); jsq < lo || jsq > hi {
			t.Errorf("rho=%v: JSQ P99 wait %v outside [M/M/c %v, M/M/1 %v]", tc.rho, jsq, lo, hi)
		}
	}
}
