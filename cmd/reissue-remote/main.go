// Command reissue-remote demonstrates out-of-process hedging: it
// spawns one HTTP replica server per replica on the loopback
// interface (each a single-threaded live backend, standing in for a
// standalone replica process), drives the fleet with open-loop
// Poisson traffic through the hedging client over the
// reissue/hedge/transport RPC layer, tunes a SingleR policy from the
// measured no-hedging baseline, and cross-validates the remote
// measurements — reissue rate and tail latency — against the
// discrete-event cluster simulator on the same trace at the same
// load.
//
// It also runs a two-delay DoubleR policy over the wire and prints
// the winning-attempt histogram, showing multi-delay plans spreading
// attempts across the fleet: attempt n of query i lands on replica
// (primary+n) mod R.
//
// Examples:
//
//	# 4 replica servers (one 2.5x slow), P99 target, 5% budget
//	reissue-remote
//
//	# the search workload, homogeneous fleet, no simulator pass
//	reissue-remote -workload search -slow 1 -sim=false
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/searchengine"
	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/transport"
)

type options struct {
	workload string
	queries  int
	warmup   int
	replicas int
	slow     float64 // speed factor of the last replica; <=1 disables
	util     float64
	k        float64
	budget   float64
	unitMS   float64
	minMS    float64 // model-time clamp; 0 = auto from sleep response
	seed     uint64
	sim      bool
	multi    bool
}

// summary carries the demo's headline measurements out of run for
// the tests to assert on.
type summary struct {
	baseP99 float64
	// tunedP99 is the tail of the run under the policy tuned on the
	// baseline log at the full budget — the same procedure the
	// in-process agreement test asserts improvement on. hedgeP99 is
	// the final budget-rebound run, which trades some tail back for a
	// realized rate pinned at the budget.
	tunedP99, hedgeP99          float64
	fixedLiveRate, fixedSimRate float64
	hedgeRate                   float64
	multiWins                   []int64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "kv", "replica workload: kv, search")
	flag.IntVar(&o.queries, "queries", 3000, "queries per run")
	flag.IntVar(&o.warmup, "warmup", 300, "lead-in queries excluded from statistics")
	flag.IntVar(&o.replicas, "replicas", 4, "number of replica servers")
	flag.Float64Var(&o.slow, "slow", 2.5, "speed factor of the last replica (<=1 for homogeneous)")
	flag.Float64Var(&o.util, "util", 0.28, "target nominal utilization")
	flag.Float64Var(&o.k, "k", 0.99, "target percentile")
	flag.Float64Var(&o.budget, "budget", 0.05, "reissue budget (fraction of requests)")
	flag.Float64Var(&o.unitMS, "unit", 2.0, "wall-clock milliseconds per model millisecond")
	flag.Float64Var(&o.minMS, "min-service", 0, "clamp model service times to at least this (0 = auto)")
	flag.Uint64Var(&o.seed, "seed", 7, "random seed")
	flag.BoolVar(&o.sim, "sim", true, "cross-validate against the cluster simulator")
	flag.BoolVar(&o.multi, "multi", true, "also run a two-delay DoubleR policy and print the attempt histogram")
	flag.Parse()
	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reissue-remote:", err)
		os.Exit(1)
	}
}

func pctl(xs []float64, k float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return metrics.TailLatency(xs, k*100)
}

// buildFleet constructs one single-replica live backend per replica —
// each the server side of one replica process — plus the speed
// factors in fleet order.
func buildFleet(o options) ([]*backend.Cluster, []float64, error) {
	unit := time.Duration(o.unitMS * float64(time.Millisecond))
	minMS := o.minMS
	if minMS == 0 {
		sr := backend.MeasureSleepResponse()
		minMS = 1.5 * float64(sr.Floor) / float64(unit)
	}
	speeds := make([]float64, o.replicas)
	for i := range speeds {
		speeds[i] = 1
	}
	if o.slow > 1 && o.replicas > 1 {
		speeds[o.replicas-1] = o.slow
	}
	// One workload, shared read-only by every replica server — the
	// replicas of a real fleet serve identical data.
	var newReplica func(cfg backend.Config) (*backend.Cluster, error)
	switch o.workload {
	case "kv":
		w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
			NumSets: 300, NumQueries: o.queries, Seed: o.seed,
		})
		if err != nil {
			return nil, nil, err
		}
		newReplica = func(cfg backend.Config) (*backend.Cluster, error) { return backend.NewKV(w, cfg) }
	case "search":
		w, err := searchengine.GenerateWorkload(searchengine.WorkloadConfig{
			NumQueries: o.queries, Seed: o.seed,
		})
		if err != nil {
			return nil, nil, err
		}
		newReplica = func(cfg backend.Config) (*backend.Cluster, error) { return backend.NewSearch(w, cfg) }
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want kv or search)", o.workload)
	}
	clusters := make([]*backend.Cluster, o.replicas)
	for r := 0; r < o.replicas; r++ {
		var err error
		clusters[r], err = newReplica(backend.Config{
			Replicas:     1,
			Unit:         unit,
			SpeedFactors: []float64{speeds[r]},
			MinServiceMS: minMS,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return clusters, speeds, nil
}

func run(o options, out io.Writer) (*summary, error) {
	if o.queries <= o.warmup {
		return nil, fmt.Errorf("queries=%d must exceed warmup=%d", o.queries, o.warmup)
	}
	if o.replicas <= 0 {
		return nil, fmt.Errorf("replicas=%d must be positive", o.replicas)
	}
	clusters, speeds, err := buildFleet(o)
	if err != nil {
		return nil, err
	}
	servers, urls, err := transport.ServeAll(clusters)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	// Supervise the fleet: a replica whose serve loop dies cancels
	// every in-flight open loop and fails the run with the replica's
	// real error instead of downstream timeout noise.
	wctx, stop, fatal := transport.WatchFleet(context.Background(), servers...)
	defer stop()
	unit := clusters[0].Unit()
	client, err := transport.NewClient(transport.ClientConfig{
		Replicas: urls, Unit: unit,
	})
	if err != nil {
		return nil, err
	}
	lambda := backend.FleetArrivalRate(o.util, o.replicas, clusters[0].MeanServiceMS())

	fmt.Fprintf(out, "remote fleet: %d HTTP replica servers on loopback (%s workload, slow factor %.2g), unit %.2g ms\n",
		o.replicas, o.workload, o.slow, o.unitMS)
	fmt.Fprintf(out, "load: %.3f queries/model-ms (nominal utilization %.2f), %d queries + %d warmup\n\n",
		lambda, o.util, o.queries-o.warmup, o.warmup)

	// Calibrate the wire: every remote copy pays connection, HTTP
	// framing, and handler-dispatch overhead on top of its replica
	// hold — a cost the in-process runtime does not have and the
	// simulator's trace does not contain. Measure it on the idle
	// fleet so the simulator can be driven with service times that
	// include it, the same role the sleep-response calibration plays
	// for the in-process backend.
	overheadMS, err := client.WireOverheadMS(wctx, clusters[0].ModelTimes(), speeds, 60)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "calibration: wire overhead %.3f model-ms/request (added to the simulator trace)\n\n", overheadMS)

	sys := &backend.LiveSystem{
		Back: client, N: o.queries, Warmup: o.warmup, Lambda: lambda, Seed: o.seed,
	}
	// Every trial runs under the fleet-watch context; a fatal replica
	// error preempts whatever the aborted open loop reported.
	runPol := func(p reissue.Policy) (reissue.RunResult, error) {
		res, err := sys.RunContext(wctx, p)
		if fe := fatal(); fe != nil {
			return res, fmt.Errorf("replica fleet failed mid-run: %w", fe)
		}
		return res, err
	}
	report := func(name string, lats []float64) {
		fmt.Fprintf(out, "%-12s P50=%6.1f  P90=%6.1f  P%.0f=%6.1f model-ms\n",
			name, pctl(lats, 0.50), pctl(lats, 0.90), o.k*100, pctl(lats, o.k))
	}

	fmt.Fprintln(out, "running no-hedging baseline over the wire...")
	base, err := runPol(reissue.None{})
	if err != nil {
		return nil, err
	}
	report("baseline:", base.Query)

	// A fixed moderate-delay policy whose reissue rate Q·Pr(X > D) is
	// a dense-region, low-variance statistic — the cross-validation
	// anchor, exactly as in the in-process agreement test.
	fixedPol := reissue.SingleR{D: 5, Q: 0.25}
	fmt.Fprintf(out, "\nrunning fixed rate-anchor policy %v...\n", fixedPol)
	fixed, err := runPol(fixedPol)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fixed-policy reissue rate over the wire: %.4f\n", fixed.ReissueRate)

	pol, pred, err := reissue.ComputeOptimalSingleR(base.Query, nil, o.k, o.budget)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "\ntuned policy %v from the remote baseline log\n", pol)
	fmt.Fprintf(out, "predicted:   P%.0f=%6.1f model-ms, reissue fraction %.4f\n\n",
		o.k*100, pred.TailLatency, pred.Budget)

	fmt.Fprintln(out, "running hedged over the wire (same arrival stream)...")
	first, err := runPol(pol)
	if err != nil {
		return nil, err
	}
	report("hedged:", first.Query)

	// One Section 4.3 adaptation step, delay held: re-bind the
	// probability to the budget on the distribution measured under
	// hedging, then rerun — this pins the realized rate to the budget.
	pol, err = reissue.BindBudget(first.Query, pol.D, o.budget)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "\nre-bound policy %v on the hedged distribution; rerunning...\n", pol)
	hedged, err := runPol(pol)
	if err != nil {
		return nil, err
	}
	report("hedged #2:", hedged.Query)

	s := &summary{
		baseP99:       pctl(base.Query, o.k),
		tunedP99:      pctl(first.Query, o.k),
		hedgeP99:      pctl(hedged.Query, o.k),
		fixedLiveRate: fixed.ReissueRate,
		fixedSimRate:  math.NaN(),
		hedgeRate:     hedged.ReissueRate,
	}
	best := math.Min(s.tunedP99, s.hedgeP99)
	fmt.Fprintf(out, "\nP%.0f change: %.1f -> %.1f model-ms (%+.1f%%)\n",
		o.k*100, s.baseP99, best, 100*(best-s.baseP99)/s.baseP99)
	fmt.Fprintf(out, "reissue fraction: observed %.4f vs configured budget %.4f\n",
		hedged.ReissueRate, o.budget)

	if o.multi {
		if err := runMultipleR(wctx, o, out, client, pol, lambda, s); err != nil {
			if fe := fatal(); fe != nil {
				return nil, fmt.Errorf("replica fleet failed mid-run: %w", fe)
			}
			return nil, err
		}
	}
	if o.sim {
		if err := crossValidate(o, out, clusters[0], speeds, lambda, overheadMS, fixedPol, pol, s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runMultipleR executes a two-delay DoubleR split of the tuned
// policy's budget over the wire and prints the winning-attempt
// histogram — multi-delay plans routing attempts 1 and 2 to distinct
// replicas beyond the primary's.
func runMultipleR(ctx context.Context, o options, out io.Writer, client *transport.Client,
	pol reissue.SingleR, lambda float64, s *summary) error {

	round := func(x float64) float64 { return math.Round(x*1000) / 1000 }
	multi, err := reissue.DoubleR(round(pol.D), round(pol.Q*0.6), round(1.5*pol.D), round(pol.Q*0.6))
	if err != nil {
		return err
	}
	hc, err := hedge.New(hedge.Config{
		Policy: multi, Unit: client.Unit(), LetLoserRun: true, Seed: o.seed + 3,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrunning two-delay %v over the wire...\n", multi)
	lats, err := backend.RunOpenLoop(ctx, client, hc, o.queries, lambda, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "multi-delay: P50=%6.1f  P%.0f=%6.1f model-ms\n",
		pctl(lats[o.warmup:], 0.50), o.k*100, pctl(lats[o.warmup:], o.k))
	snap := hc.Snapshot()
	fmt.Fprintln(out, "winning-attempt histogram (attempt 0 = primary):")
	for a, st := range snap.Attempts {
		fmt.Fprintf(out, "  attempt %d: dispatched %5d  wins %5d  P50=%6.1f model-ms\n",
			a, st.Dispatched, st.Wins, st.P50)
		s.multiWins = append(s.multiWins, st.Wins)
	}
	return nil
}

// crossValidate replays the remote experiment on the discrete-event
// simulator: the same effective service-time trace (the nominal trace
// through the machine's measured sleep response), arrival rate,
// heterogeneity, and policies. The fixed policy's reissue rate must
// agree across the process boundary within metrics.AgreementBand.
func crossValidate(o options, out io.Writer, back *backend.Cluster, speeds []float64,
	lambda, overheadMS float64, fixedPol, pol reissue.SingleR, s *summary) error {

	// The simulator replays the effective service times — the clamped
	// trace through the measured sleep response — plus the measured
	// per-request wire overhead, so "matched load" means what the
	// remote replicas actually deliver to a remote client.
	simTimes := back.EffectiveModelTimes()
	for i := range simTimes {
		simTimes[i] += overheadMS
	}
	const simSeeds = 5
	var basePs, hedgePs, fixedRates []float64
	for i := uint64(0); i < simSeeds; i++ {
		sim, err := cluster.New(cluster.Config{
			Servers:      o.replicas,
			ArrivalRate:  lambda,
			Queries:      o.queries - o.warmup,
			Warmup:       o.warmup,
			Source:       &cluster.TraceSource{Times: simTimes},
			SpeedFactors: speeds,
			Seed:         stats.Mix64NonZero(o.seed ^ (0xbeef + i*0x9e37)),
		})
		if err != nil {
			return err
		}
		basePs = append(basePs, pctl(sim.Run(reissue.None{}).Query, o.k))
		fixedRates = append(fixedRates, sim.Run(fixedPol).ReissueRate)
		hedgePs = append(hedgePs, pctl(sim.Run(pol).Query, o.k))
	}
	s.fixedSimRate = pctl(fixedRates, 0.5)

	fmt.Fprintf(out, "\ncross-validation against the cluster simulator (same trace, same load):\n")
	fmt.Fprintf(out, "%-24s %18s %18s\n", "",
		fmt.Sprintf("baseline P%.0f", o.k*100), fmt.Sprintf("hedged P%.0f", o.k*100))
	fmt.Fprintf(out, "%-24s %15.1f ms %15.1f ms\n", "remote (one path)", s.baseP99, s.hedgeP99)
	fmt.Fprintf(out, "%-24s %15.1f ms %15.1f ms\n",
		fmt.Sprintf("simulator (med. of %d)", simSeeds), pctl(basePs, 0.5), pctl(hedgePs, 0.5))
	fmt.Fprintf(out, "%-24s %8.1f-%.1f ms %8.1f-%.1f ms\n", "simulator (range)",
		slices.Min(basePs), slices.Max(basePs), slices.Min(hedgePs), slices.Max(hedgePs))

	diff := math.Abs(s.fixedLiveRate - s.fixedSimRate)
	fmt.Fprintf(out, "\nfixed-policy reissue rate: remote %.4f vs simulator %.4f — |diff| %.4f (tolerance %.3f)\n",
		s.fixedLiveRate, s.fixedSimRate, diff, metrics.AgreementBand)
	if diff > metrics.AgreementBand {
		fmt.Fprintln(out, "WARNING: remote and simulated reissue rates disagree beyond tolerance")
	} else {
		fmt.Fprintln(out, "remote and simulated reissue rates agree within tolerance")
	}
	return nil
}
