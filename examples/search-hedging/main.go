// Search hedging over HTTP: reissue policies on a Lucene-like
// full-text search service whose replicas live behind a real network
// transport, across utilization levels.
//
// Where examples/redis-hedging drives in-process goroutine replicas,
// this example spawns each replica as its own HTTP server on the
// loopback interface (the out-of-process topology of
// reissue/hedge/transport) and routes every hedged copy over the
// wire: attempt n of query i lands on replica (primary+n) mod R, and
// cancelling a losing copy aborts its HTTP request. The search
// workload contrasts with Redis: its service times are mild (mean
// ~40 ms, sd ~21 ms), so with homogeneous replicas the no-reissue
// tail is driven by queueing alone — yet a ~2% reissue budget still
// buys a P99 reduction, and the benefit shrinks as utilization grows
// because the reissues themselves add load. Run with:
//
//	go run ./examples/search-hedging
//
// For simulator cross-validation over the same transport, see
// "go run ./cmd/reissue-topo -topo fleet -http -workload search".
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/searchengine"
	"repro/reissue"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/transport"
)

func main() {
	if err := run(1200, 150, 100*time.Microsecond, []float64{0.20, 0.40, 0.60}, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run measures baseline vs tuned SingleR tails over an HTTP replica
// fleet at each utilization level.
func run(queries, warmup int, unit time.Duration, utils []float64, out io.Writer) error {
	const replicas = 4
	fmt.Fprintln(out, "building synthetic search workload (inverted index, real top-K queries)...")
	w, err := searchengine.GenerateWorkload(searchengine.WorkloadConfig{
		NumQueries: queries, Seed: 11,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-6s  %14s  %14s  %8s\n", "util", "P99 baseline", "P99 SingleR", "rate")
	for _, util := range utils {
		if err := runRow(w, util, queries, warmup, replicas, unit, out); err != nil {
			return err
		}
	}
	return nil
}

// runRow stands up a fresh HTTP fleet — one single-replica live
// backend per server, all serving the same index — measures one
// utilization level, and tears the fleet down.
func runRow(w *searchengine.Workload, util float64, queries, warmup, replicas int,
	unit time.Duration, out io.Writer) error {

	const (
		K = 0.99
		B = 0.02
	)
	clusters := make([]*backend.Cluster, replicas)
	for r := range clusters {
		var err error
		clusters[r], err = backend.NewSearch(w, backend.Config{Replicas: 1, Unit: unit})
		if err != nil {
			return err
		}
	}
	servers, urls, err := transport.ServeAll(clusters)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	// A replica server dying mid-row fails the row immediately with
	// the replica's own error.
	wctx, stop, fatal := transport.WatchFleet(context.Background(), servers...)
	defer stop()
	client, err := transport.NewClient(transport.ClientConfig{Replicas: urls, Unit: unit})
	if err != nil {
		return err
	}
	lambda := backend.FleetArrivalRate(util, replicas, clusters[0].MeanServiceMS())
	sys := &backend.LiveSystem{
		Back: client, N: queries, Warmup: warmup,
		Lambda: lambda, Seed: 11,
	}
	runPol := func(p reissue.Policy) (reissue.RunResult, error) {
		res, err := sys.RunContext(wctx, p)
		if fe := fatal(); fe != nil {
			return res, fmt.Errorf("replica fleet failed mid-run: %w", fe)
		}
		return res, err
	}
	base, err := runPol(reissue.None{})
	if err != nil {
		return err
	}
	pol, _, err := reissue.ComputeOptimalSingleR(base.Query, nil, K, B)
	if err != nil {
		return err
	}
	// The reissues add load, which matters more the hotter the
	// system runs — re-bind the probability to the budget on the
	// distribution measured under hedging (Section 4.3) before the
	// reported run.
	first, err := runPol(pol)
	if err != nil {
		return err
	}
	pol, err = reissue.BindBudget(first.Query, pol.D, B)
	if err != nil {
		return err
	}
	hedged, err := runPol(pol)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-6.2f  %11.0f ms  %11.0f ms  %8.3f\n",
		util, base.TailLatency(K), hedged.TailLatency(K), hedged.ReissueRate)
	return nil
}
