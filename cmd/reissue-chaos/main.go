// Command reissue-chaos sweeps deterministic fault injection across
// the live hedging stack and cross-validates every point against the
// cluster simulator's chaos mirror. Each sweep point runs ONE fault
// scenario — a profile kind at a severity — through both worlds on
// the same workload trace, arrival process, and fault script
// (internal/chaoslab), then compares failure and reissue rates.
//
// Profile severities map as:
//
//	crash:      the replica is dead for the last <rate> fraction of
//	            the run (breaker armed: evict, probe, re-route)
//	error-rate: each copy on the replica fails with probability <rate>
//	slow:       the replica's latency is inflated 1 + 3*<rate> x
//
// Examples:
//
//	# default sweep: {crash, error-rate, slow} x {0.1, 0.3}
//	reissue-chaos
//
//	# one quick cross-validated point (the CI smoke)
//	reissue-chaos -profiles error-rate -rates 0.2 -queries 600 -warmup 100
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaoslab"
	"repro/internal/metrics"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

type options struct {
	profiles string // comma-separated: crash, error-rate, slow
	rates    string // comma-separated severities in (0, 1]
	queries  int
	warmup   int
	replicas int
	slow     float64 // speed factor of the last replica
	util     float64
	unitMS   float64
	seed     uint64
	sim      bool

	breakerThreshold int
	breakerCooldown  float64 // model-ms
	attemptTimeout   float64 // model-ms, 0 = none
}

// point carries one sweep point's two-world measurements.
type point struct {
	kind                  string
	rate                  float64
	live, sim             chaoslab.Outcome
	failDiff, reissueDiff float64
	agree                 bool
}

func parseList(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("reissue-chaos: bad rate %q: %v", p, err)
		}
		if math.IsNaN(v) || v <= 0 || v > 1 {
			return nil, fmt.Errorf("reissue-chaos: rate %v outside (0, 1]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// scenario builds the chaoslab scenario for one (kind, severity)
// sweep point.
func scenario(o options, kind string, rate float64) (chaoslab.Scenario, error) {
	sc := chaoslab.Scenario{
		Replicas:     o.replicas,
		N:            o.queries,
		Warmup:       o.warmup,
		Rho:          o.util,
		Policy:       reissue.SingleR{D: 12, Q: 0.2},
		Seed:         o.seed,
		Unit:         time.Duration(o.unitMS * float64(time.Millisecond)),
		MinServiceMS: 1.0,
	}
	if o.slow > 1 && o.replicas > 1 {
		sc.Speeds = make([]float64, o.replicas)
		for i := range sc.Speeds {
			sc.Speeds[i] = 1
		}
		sc.Speeds[o.replicas-1] = o.slow
	}
	victim := 1 % o.replicas
	switch kind {
	case "crash":
		// Dead for the last <rate> fraction of the measured run.
		from := o.queries - int(rate*float64(o.queries-o.warmup))
		sc.Profiles = []fault.Profile{{Replica: victim, Kind: fault.Crash, From: from}}
		sc.BreakerThreshold = o.breakerThreshold
		sc.BreakerCooldownMS = o.breakerCooldown
	case "error-rate":
		sc.Profiles = []fault.Profile{{Replica: victim, Kind: fault.ErrorRate, Rate: rate, Seed: o.seed + 9}}
	case "slow":
		sc.Profiles = []fault.Profile{{Replica: victim, Kind: fault.Slow, Factor: 1 + 3*rate}}
	default:
		return sc, fmt.Errorf("reissue-chaos: unknown profile %q (want crash, error-rate, slow)", kind)
	}
	sc.AttemptTimeoutMS = o.attemptTimeout
	return sc, nil
}

func run(o options, w io.Writer) ([]point, error) {
	rates, err := parseList(o.rates)
	if err != nil {
		return nil, err
	}
	kinds := strings.Split(o.profiles, ",")
	var pts []point
	for _, kindRaw := range kinds {
		kind := strings.TrimSpace(kindRaw)
		for _, rate := range rates {
			sc, err := scenario(o, kind, rate)
			if err != nil {
				return nil, err
			}
			lab, err := chaoslab.New(sc)
			if err != nil {
				return nil, err
			}
			live, err := lab.RunLive()
			if err != nil {
				return nil, fmt.Errorf("reissue-chaos: %s @ %.2f live: %w", kind, rate, err)
			}
			pt := point{kind: kind, rate: rate, live: live}
			fmt.Fprintf(w, "%s @ %.2f\n", kind, rate)
			fmt.Fprintf(w, "  live: failure %.4f  reissue %.4f  p99 %.1f ms  faults %+v\n",
				live.FailureRate, live.ReissueRate, live.P99, live.Injector)
			if len(live.BreakerTrips) > 0 {
				fmt.Fprintf(w, "  live breaker: trips %v  tripped %v\n", live.BreakerTrips, live.BreakerTripped)
			}
			if o.sim {
				sim, err := lab.RunSim()
				if err != nil {
					return nil, fmt.Errorf("reissue-chaos: %s @ %.2f sim: %w", kind, rate, err)
				}
				pt.sim = sim
				pt.failDiff = math.Abs(live.FailureRate - sim.FailureRate)
				pt.reissueDiff = math.Abs(live.ReissueRate - sim.ReissueRate)
				pt.agree = pt.failDiff <= metrics.AgreementBand && pt.reissueDiff <= metrics.AgreementBand
				verdict := "agree"
				if !pt.agree {
					verdict = "DIVERGE"
				}
				fmt.Fprintf(w, "  sim:  failure %.4f  reissue %.4f  p99 %.1f ms\n",
					sim.FailureRate, sim.ReissueRate, sim.P99)
				if len(sim.BreakerTrips) > 0 {
					fmt.Fprintf(w, "  sim breaker:  trips %v  tripped %v\n", sim.BreakerTrips, sim.BreakerTripped)
				}
				fmt.Fprintf(w, "  cross-validation: %s (|failure d| %.4f, |reissue d| %.4f, band %.3f)\n",
					verdict, pt.failDiff, pt.reissueDiff, metrics.AgreementBand)
			} else {
				pt.agree = true
				pt.failDiff, pt.reissueDiff = math.NaN(), math.NaN()
			}
			pts = append(pts, pt)
		}
	}
	if o.sim {
		agreed := 0
		for _, p := range pts {
			if p.agree {
				agreed++
			}
		}
		fmt.Fprintf(w, "sweep summary: %d/%d points agree sim-vs-live within %.3f\n",
			agreed, len(pts), metrics.AgreementBand)
	}
	return pts, nil
}

func main() {
	var o options
	flag.StringVar(&o.profiles, "profiles", "crash,error-rate,slow", "comma-separated fault profiles to sweep")
	flag.StringVar(&o.rates, "rates", "0.1,0.3", "comma-separated severities in (0, 1]")
	flag.IntVar(&o.queries, "queries", 1500, "queries per run")
	flag.IntVar(&o.warmup, "warmup", 250, "lead-in queries excluded from statistics")
	flag.IntVar(&o.replicas, "replicas", 4, "number of replica servers")
	flag.Float64Var(&o.slow, "slow", 2.5, "speed factor of the last replica (<=1 for homogeneous)")
	flag.Float64Var(&o.util, "util", 0.24, "target nominal utilization")
	flag.Float64Var(&o.unitMS, "unit", 2.0, "wall-clock milliseconds per model millisecond")
	flag.Uint64Var(&o.seed, "seed", 61, "base RNG seed")
	flag.BoolVar(&o.sim, "sim", true, "cross-validate each point against the cluster simulator")
	flag.IntVar(&o.breakerThreshold, "breaker-threshold", 5, "consecutive failures before eviction (crash profile; 0 disables)")
	flag.Float64Var(&o.breakerCooldown, "breaker-cooldown", 400, "breaker open window in model ms")
	flag.Float64Var(&o.attemptTimeout, "attempt-timeout", 0, "per-attempt timeout in model ms (0 = none)")
	flag.Parse()

	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
