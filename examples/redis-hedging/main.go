// Redis hedging, live: reduce the P99 latency of a Redis-like
// set-intersection service with a tiny reissue budget — using real
// goroutines, not the simulator.
//
// The example stands up four single-threaded replicas of an in-memory
// set store (one runs 2.5x slow, the way a real fleet always has a
// degraded box), drives them with open-loop Poisson traffic through
// the hedging client, tunes a SingleR policy from the measured
// no-hedging baseline with the paper's optimizer, and reruns the same
// arrival stream hedged. The reissue rescues queries stuck behind the
// slow replica's queue while spending only ~5% extra requests. Run
// with:
//
//	go run ./examples/redis-hedging
//
// For the full experiment — a fixed-rate anchor, simulator
// cross-validation, the search workload — see
// "go run ./cmd/reissue-topo -topo fleet"; for the self-tuning online
// client, see examples/online-tracking; for the same hedging over
// out-of-process HTTP replicas, see examples/search-hedging and
// "go run ./cmd/reissue-topo -topo fleet -http".
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/kvstore"
	"repro/reissue"
	"repro/reissue/hedge/backend"
)

func main() {
	if err := run(2500, 300, time.Millisecond, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run replays a queries-long trace (with warmup lead-in) at the given
// wall-clock unit per model millisecond.
func run(queries, warmup int, unit time.Duration, out io.Writer) error {
	const (
		util = 0.25
		K    = 0.99 // target percentile
		B    = 0.05 // reissue budget
	)

	fmt.Fprintln(out, "building synthetic Redis workload (300 sets, real SINTER queries)...")
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 300, NumQueries: queries, Seed: 7,
	})
	if err != nil {
		return err
	}

	back, err := backend.NewKV(w, backend.Config{
		Replicas:     4,
		Unit:         unit,
		SpeedFactors: []float64{1, 1, 1, 2.5},
		MinServiceMS: 1.5 * float64(backend.MeasureSleepResponse().Floor) / float64(unit),
	})
	if err != nil {
		return err
	}
	sys := &backend.LiveSystem{
		Back: back, N: queries, Warmup: warmup,
		Lambda: back.ArrivalRate(util), Seed: 7,
	}

	fmt.Fprintln(out, "running live no-hedging baseline...")
	base := sys.Run(reissue.None{})
	baseP50, baseP99 := base.TailLatency(0.50), base.TailLatency(K)
	fmt.Fprintf(out, "no hedging:  P50=%.1f ms  P99=%.1f ms\n", baseP50, baseP99)

	// Tune SingleR for P99 with a 5% budget on the measured log.
	pol, pred, err := reissue.ComputeOptimalSingleR(base.Query, nil, K, B)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tuned %v (predicted P99 %.1f ms at %.1f%% reissues)\n",
		pol, pred.TailLatency, 100*pred.Budget)

	fmt.Fprintln(out, "running live hedged (same arrival stream)...")
	hedged := sys.Run(pol)
	hedgeP50, hedgeP99 := hedged.TailLatency(0.50), hedged.TailLatency(K)
	fmt.Fprintf(out, "hedged:      P50=%.1f ms  P99=%.1f ms  (reissue rate %.3f)\n",
		hedgeP50, hedgeP99, hedged.ReissueRate)

	fmt.Fprintf(out, "\nP99: %.1f -> %.1f ms (%+.1f%%) for %.1f%% extra requests\n",
		baseP99, hedgeP99, 100*(hedgeP99-baseP99)/baseP99, 100*hedged.ReissueRate)
	fmt.Fprintln(out, "\nThe reissue lands on a fast replica while the primary waits out the")
	fmt.Fprintln(out, "slow one's queue — randomized hedging buys the tail back cheaply.")
	return nil
}
