// Package shard executes reissue policies on the canonical
// production topology of "The Tail at Scale" (Dean & Barroso): a
// partitioned fleet. Where reissue/hedge serves a query from one
// replicated service, a sharded deployment splits the data over S
// shards — each shard its own replicated fleet — fans every query
// out to all S shards in parallel, and completes when the slowest
// shard answers. Reissue happens per shard: each shard runs its own
// hedge.Client over its own replicas, so a straggling sub-query is
// rescued inside its shard without touching the others.
//
// The topology changes the economics of hedging. A single-service
// P99 is one draw from the response-time distribution; a fan-out
// query's response is the MAX over S draws, so the probability that
// at least one shard straggles grows like S times the per-shard tail
// probability — Dean and Barroso's "at scale, the slower servers
// dominate" observation. Trimming each shard's tail with a small
// per-shard reissue budget therefore pays super-linearly on the
// end-to-end latency, which is precisely what reissue/hedge/topo's
// shard agreement test and `reissue-topo -topo shard` measure.
//
// The package composes the existing layers rather than re-building
// them: each shard is any backend.Source (an in-process
// backend.Cluster slice-of-the-data, or a transport.Client fronting
// per-shard HTTP replica fleets), each sub-query is hedged by an
// ordinary hedge.Client, and a shard node of the composed cluster
// simulator (internal/cluster.Graph) replays the same topology on
// virtual time for cross-validation.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

// Config parametrizes a sharded fan-out router.
type Config struct {
	// Shards is the partitioned fleet: one execution substrate per
	// shard, each serving that shard's slice of the data. All shards
	// must share one Unit.
	Shards []backend.Source
	// Hedge is the per-shard hedging client template: Policy (or
	// Online), LetLoserRun, quantile-tracker parameters, and the base
	// Seed. Shard 0 runs the template's seed untouched; every other
	// shard's coin stream is salted per shard, so the S clients flip
	// independent coins — reissue decisions are per shard, as in a
	// real fan-out deployment. If Hedge.Unit is zero it is taken from
	// the shards; otherwise it must match them.
	Hedge hedge.Config
	// Deadline, in model milliseconds, is the query's end-to-end
	// budget: Do wraps its context with a timeout of Deadline×Unit,
	// and every shard's sub-query — hedged copies included — inherits
	// the remainder through the context chain. An exhausted budget
	// cancels all in-flight copies and counts as Cancelled, not a
	// Failure, matching tier.Config.Deadline. Zero means no budget.
	Deadline float64
}

// Router fans queries out over a partitioned fleet, hedging each
// shard's sub-query independently. All methods are safe for
// concurrent use; a single Router is meant to be shared by every
// goroutine issuing queries.
type Router struct {
	shards   []backend.Source
	clients  []*hedge.Client
	unit     time.Duration
	deadline time.Duration

	issued    atomic.Int64
	completed atomic.Int64
	failures  atomic.Int64
	cancelled atomic.Int64

	mu      sync.Mutex
	tracker *reissue.WindowedQuantile
}

// New validates the configuration and builds the router with one
// hedging client per shard.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: no shards configured")
	}
	unit := cfg.Hedge.Unit
	for s, src := range cfg.Shards {
		if src == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", s)
		}
		if unit == 0 {
			unit = src.Unit()
		}
		if su := src.Unit(); su != unit {
			return nil, fmt.Errorf("shard: shard %d Unit %v differs from %v — one wall-clock scale per fleet", s, su, unit)
		}
	}
	// Zero slips past the mismatch check above (every source agrees on
	// 0) and the per-shard hedge clients would then silently fall back
	// to hedge's 1ms default — a wall-clock scale unrelated to the
	// sources'. Units must be positive at this seam.
	if unit <= 0 {
		return nil, fmt.Errorf("shard: fleet Unit %v must be positive", unit)
	}
	if math.IsNaN(cfg.Deadline) || math.IsInf(cfg.Deadline, 0) || cfg.Deadline < 0 {
		return nil, fmt.Errorf("shard: Deadline=%v must be a non-negative finite model-ms budget", cfg.Deadline)
	}
	r := &Router{
		shards:   cfg.Shards,
		clients:  make([]*hedge.Client, len(cfg.Shards)),
		unit:     unit,
		deadline: time.Duration(cfg.Deadline * float64(unit)),
	}
	qw, qe := cfg.Hedge.QuantileWindow, cfg.Hedge.QuantileEps
	if qw <= 0 {
		qw = hedge.DefaultQuantileWindow
	}
	if qe <= 0 {
		qe = hedge.DefaultQuantileEps
	}
	r.tracker = reissue.NewWindowedQuantile(qe, qw)
	for s := range cfg.Shards {
		hcfg := cfg.Hedge
		hcfg.Unit = unit
		if s > 0 {
			// stats.ShardSalt decorrelates shard s's coins from the
			// template seed, as the simulator graph salts its shard
			// leaves; the correspondence is structural (independent
			// streams over a shared base), not a bit-identical coin
			// sequence — the two worlds draw through different
			// generators.
			hcfg.Seed ^= stats.ShardSalt(s)
		}
		client, err := hedge.New(hcfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		r.clients[s] = client
	}
	return r, nil
}

// NumShards returns the number of shards.
func (r *Router) NumShards() int { return len(r.shards) }

// Client returns shard s's hedging client — per-shard counters,
// attempt histograms, and quantiles live there.
func (r *Router) Client(s int) *hedge.Client { return r.clients[s] }

// Unit returns the wall-clock duration of one model millisecond.
func (r *Router) Unit() time.Duration { return r.unit }

// Do executes one fan-out query: sub-query i is dispatched to every
// shard in parallel, each hedged by that shard's client, and Do
// returns when all shards have answered — the query's latency is the
// max over its sub-queries by construction. The returned slice holds
// each shard's response in shard order (the per-shard slice of the
// full answer; merging is workload-specific and left to the caller).
//
// One sub-query runs inline in the calling goroutine rather than
// being spawned, so a fan-out adds S-1 goroutine hops, not S — on a
// loaded box the inline path measurably tightens dispatch.
//
// If any shard fails, the query fails with the first error in shard
// order after every shard has settled. Cancellations are not
// Failures: a cancelled or expired parent context reports ctx.Err()
// (a context already done on entry short-circuits before any fan-out
// reaches the shard clients), and a sub-query error wrapping
// context.Canceled or DeadlineExceeded — the transport's 499, a
// composed sub-graph's own loser cancellation — counts as Cancelled
// too, matching hedge.Do and tier.Do.
func (r *Router) Do(ctx context.Context, i int) ([]any, error) {
	r.issued.Add(1)
	if err := ctx.Err(); err != nil {
		// The caller walked away before anything was fanned out: the
		// router counts one cancelled query and the per-shard clients
		// never see it — the same entry short-circuit tier.Do applies
		// to its sub-clients.
		r.completed.Add(1)
		r.cancelled.Add(1)
		return nil, err
	}
	start := time.Now()
	// Arm the deadline budget: every shard's sub-query inherits the
	// remainder through the shadowed context, and since Do waits for
	// all shards inline the deferred release cannot cut a straggler
	// short — there are none by the time Do returns.
	if r.deadline > 0 {
		dctx, cancelBudget := context.WithTimeout(ctx, r.deadline)
		defer cancelBudget()
		ctx = dctx
	}
	n := len(r.clients)
	vals := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sub := func(s int) {
		vals[s], errs[s] = r.clients[s].Do(ctx, r.shards[s].Request(i))
	}
	wg.Add(n - 1)
	for s := 0; s < n-1; s++ {
		go func(s int) {
			defer wg.Done()
			sub(s)
		}(s)
	}
	sub(n - 1)
	wg.Wait()

	r.completed.Add(1)
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			r.cancelled.Add(1)
			return vals, ctx.Err()
		}
		// A sub-query error that wraps a cancellation — the
		// transport's 499, or a composed sub-graph cancelling its own
		// losers — is a cancellation even with the parent context
		// live: the same taxonomy hedge.Do and tier.Do apply.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			r.cancelled.Add(1)
			return vals, err
		}
		r.failures.Add(1)
		return vals, fmt.Errorf("shard: %w", err)
	}
	rt := float64(time.Since(start)) / float64(r.unit)
	r.mu.Lock()
	r.tracker.Add(rt)
	r.mu.Unlock()
	return vals, nil
}

// Request adapts the router to the backend.Source seam, so a
// partitioned fleet can sit anywhere a single fleet goes — as a
// tier's store (one cache over a sharded store), behind an outer
// hedging client, or under a deeper composition. The returned Fn
// executes fan-out query i via Do — the caller's context cancels
// every shard's in-flight copies exactly as a direct Do call would,
// and the query index propagates unchanged so warmup exclusion by
// index composes at every level. The value is the []any of per-shard
// responses in shard order.
//
// The attempt argument is ignored: replica diversity lives inside
// each shard's own hedge client, so an outer reissue would re-execute
// the whole fan-out — outer clients over composite sources should run
// reissue.None (the topo builder enforces this; the simulator has no
// twin for reissue-the-whole-subgraph).
func (r *Router) Request(i int) hedge.Fn {
	return func(ctx context.Context, _ int) (any, error) {
		vals, err := r.Do(ctx, i)
		if err != nil {
			return nil, err
		}
		return vals, nil
	}
}

// The router is itself a backend.Source, closing the composition
// algebra.
var _ backend.Source = (*Router)(nil)

// Wait blocks until every in-flight copy on every shard has finished.
// Call it before shutdown or before asserting on final counters; new
// Do calls must not race with Wait.
func (r *Router) Wait() {
	for _, c := range r.clients {
		c.Wait()
	}
}

// Snapshot is a point-in-time view of the router and its per-shard
// clients.
type Snapshot struct {
	// Shards holds each shard's hedging-client snapshot, in shard
	// order: per-shard reissue rates, win counters, attempt
	// histograms, and sub-query latency quantiles.
	Shards []hedge.Snapshot
	// Issued and Completed count fan-out queries through Do; Failures
	// counts queries where some shard's sub-query failed outright, and
	// Cancelled queries abandoned by the caller's context — the same
	// taxonomy as hedge.Snapshot, lifted to the fan-out level.
	Issued, Completed, Failures, Cancelled int64
	// MeanReissueRate is the mean of the per-shard reissue rates —
	// the statistic a per-shard reissue budget bounds.
	MeanReissueRate float64
	// P50, P95, P99 are end-to-end (max-over-shards) query latencies
	// in policy time units over the sliding window, successful
	// queries only (NaN until data arrives).
	P50, P95, P99 float64
}

// Snapshot merges the per-shard client snapshots with the router's
// fan-out counters and end-to-end quantiles.
func (r *Router) Snapshot() Snapshot {
	s := Snapshot{
		Shards:    make([]hedge.Snapshot, len(r.clients)),
		Issued:    r.issued.Load(),
		Completed: r.completed.Load(),
		Failures:  r.failures.Load(),
		Cancelled: r.cancelled.Load(),
	}
	for i, c := range r.clients {
		s.Shards[i] = c.Snapshot()
		s.MeanReissueRate += s.Shards[i].ReissueRate / float64(len(r.clients))
	}
	r.mu.Lock()
	s.P50 = r.tracker.Quantile(0.50)
	s.P95 = r.tracker.Quantile(0.95)
	s.P99 = r.tracker.Quantile(0.99)
	r.mu.Unlock()
	return s
}
