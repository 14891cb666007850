package main

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/stats"
)

// errWrong marks a query that completed with an answer other than the
// one precomputed in set-up.
var errWrong = errors.New("wrong answer")

// poissonSchedule returns the intended send offsets of Poisson
// arrivals at perSec per second over [0, d), conditioned on their
// count being exactly perSec·d: sorted independent uniform instants.
// Fixing the count gives every seed the same offered load; the
// slowest replica runs close enough to saturation that a few percent
// more arrivals would move the latency tail by far more.
func poissonSchedule(rng *stats.RNG, perSec float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(perSec*d.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	slices.Sort(out)
	return out
}

// loopResult is one open-loop window's outcome.
type loopResult struct {
	latMS  []float64 // successful queries, from intended send to completion
	lagMS  []float64 // every query: actual minus intended send
	sent   int
	failed int // errors, wrong answers, and queries cut off at the drain limit
	wrong  int // queries that completed with a wrong answer
	use    usage
}

// drainLimit bounds how long a window waits for its last queries
// after the final send; queries still running then are cancelled and
// count as failed.
const drainLimit = 30 * time.Second

// openLoop sends query k at the window start plus sched[k],
// each from its own goroutine, whether or not earlier queries have
// finished. Latency is measured from the intended send time, so a
// stall that delays later sends is charged to them (no coordinated
// omission); how late each send actually left is reported as lag.
//
// do executes one query; parent is the index of the query's gen.send
// span, or -1 untraced. waitInFlight blocks until every copy the
// system under test started has ended (losing copies included), and
// runs before the window's usage is read.
func openLoop(sched []time.Duration, tr *tracer,
	do func(ctx context.Context, k, parent int) error, waitInFlight func()) loopResult {

	n := len(sched)
	lat := make([]float64, n)
	lag := make([]float64, n)
	errs := make([]error, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	p0 := takeProbe()
	start := p0.at
	for k, off := range sched {
		intended := start.Add(off)
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		lag[k] = float64(sent.Sub(intended)) / 1e6
		parent := tr.begin(span{Name: "gen.send", Parent: -1, Query: k,
			Shard: -1, Attempt: -1, Replica: -1, Worker: -1, Start: intended})
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := do(ctx, k, parent)
			lat[k] = float64(time.Since(intended)) / 1e6
			errs[k] = err
			tr.finish(parent, err == nil)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainLimit):
		cancel()
		<-done
	}
	waitInFlight()
	res := loopResult{lagMS: lag, sent: n, use: since(p0)}
	for k := range lat {
		if errs[k] != nil {
			res.failed++
			if errors.Is(errs[k], errWrong) {
				res.wrong++
			}
			continue
		}
		res.latMS = append(res.latMS, lat[k])
	}
	return res
}

// answerInt reads an integer answer that may have crossed a JSON
// boundary (numbers decode as float64).
func answerInt(v any) (int, bool) {
	switch x := v.(type) {
	case int:
		return x, true
	case float64:
		if x == math.Trunc(x) {
			return int(x), true
		}
	}
	return 0, false
}
