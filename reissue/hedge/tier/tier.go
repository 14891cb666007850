// Package tier executes reissue policies across the canonical
// two-tier topology of "Tail at Scale"-style services: a fast but
// fallible cache tier backed by a slow but authoritative store tier.
// A query goes to the cache tier first; when the cache misses (the
// key is not cached), fails, or simply has not answered by a
// configured tier-reissue delay, a store sub-query dispatches — and
// the query completes with the first tier to produce a valid answer.
//
// The tier-reissue delay is the same knob the paper turns within a
// single fleet, lifted one level up: math.Inf(1) is pure fall-through
// (the store is consulted only after a miss is observed, serializing
// the miss path), 0 fans every query out to both tiers at once
// (minimum latency, maximum store load), and a delay near the cache's
// tail proactively hedges against the store exactly when the cache
// looks like it is straggling — trading store capacity for miss-path
// and slow-hit latency.
//
// Each tier runs its own hedge.Client over any backend.Source, so
// within-tier reissue policies compose with the tier-level hedge: a
// cache sub-query stuck behind a slow cache replica is rescued inside
// the cache tier, and the whole cache tier is hedged against the
// store. A tier node of the composed cluster simulator
// (internal/cluster.Graph) replays the same topology on virtual
// time — sharing the cache-hit Bernoulli stream bit for bit, so both
// worlds miss on the same queries — for sim-vs-live
// cross-validation; reissue/hedge/topo builds both worlds from one
// spec, and `reissue-topo -topo tier` runs them.
package tier

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

// Miss is the value a cache-tier request returns for a query whose
// result the cache does not hold. It is a successful response at the
// hedging layer — a fast "not here" from any cache replica resolves
// the cache sub-query — that the tier client translates into a
// store-tier fall-through.
type Miss struct{}

// IsMiss reports whether a cache-tier response value is the miss
// sentinel — the default Config.IsMiss.
func IsMiss(v any) bool {
	_, ok := v.(Miss)
	return ok
}

// Config parametrizes a two-tier client.
type Config struct {
	// Cache and Store are the two tiers' execution substrates: any
	// backend.Source (an in-process backend.Cluster, a
	// transport.Client over HTTP replicas, a MeasuredSource wrapping
	// either). They must share one Unit.
	Cache, Store backend.Source
	// CacheHedge and StoreHedge are the per-tier hedging-client
	// templates: Policy (or Online), LetLoserRun, quantile
	// parameters, Seed. The store client's coin stream is salted
	// (stats.TierSalt, mirrored by the simulator graph's store
	// PolicySeed) so the two tiers flip independent coins over the
	// shared base seed. Unit is taken from the sources.
	CacheHedge, StoreHedge hedge.Config
	// TierDelay is the tier-reissue delay in model milliseconds: the
	// store sub-query dispatches this long after the query starts
	// unless the cache already produced a valid answer (the
	// completion check) — or earlier, the moment the cache reports a
	// miss or fails. math.Inf(1) disables the proactive hedge (pure
	// fall-through); 0 sends every query to both tiers at once.
	TierDelay float64
	// IsMiss classifies a cache-tier response value as a miss;
	// defaults to the package-level IsMiss.
	IsMiss func(v any) bool
	// Deadline, in model milliseconds, is the query's end-to-end
	// budget: Do runs both tiers under a context with this timeout, so
	// the budget propagates through every sub-tier and copy (a nested
	// composition inherits the shrinking remainder via the context
	// chain — the standard deadline-propagation discipline). Queries
	// that exhaust the budget count under Cancelled. 0 means no
	// tier-imposed deadline.
	Deadline float64
	// Degrade, when set, arms brown-out containment for the store
	// tier: after Threshold consecutive store sub-query failures the
	// store is declared down, and until a Cooldown-spaced probe
	// succeeds, miss-path queries fail fast with an error wrapping
	// hedge.ErrDegraded instead of stalling on a dead store — while
	// cache hits keep being served untouched. The machinery is a
	// single-replica hedge.Breaker, so the state machine (and its
	// half-open probe semantics) is the same one the transport and
	// fault layers run per replica.
	Degrade *DegradeConfig
}

// DegradeConfig parametrizes the store tier's brown-out breaker.
type DegradeConfig struct {
	// Threshold is the consecutive store-failure count that declares
	// the store down. Must be > 0.
	Threshold int
	// Cooldown, in model milliseconds, is how long misses fail fast
	// before a probe sub-query re-tests the store. Must be > 0.
	Cooldown float64
}

// ErrExhausted wraps the terminal error when no tier produced a valid
// answer: the cache missed or failed, and the store sub-query failed
// (or was never dispatched because the caller walked away).
var ErrExhausted = errors.New("tier: every tier failed or missed")

// Client is a concurrent two-tier hedging client. All methods are
// safe for concurrent use; a single Client is meant to be shared by
// every goroutine issuing queries.
type Client struct {
	cache, store backend.Source
	cacheC       *hedge.Client
	storeC       *hedge.Client
	unit         time.Duration
	tierDelay    time.Duration
	noProactive  bool // TierDelay = +Inf: fall-through only
	isMiss       func(any) bool
	deadline     time.Duration
	degrade      *hedge.Breaker // single-replica store brown-out breaker, nil when disarmed

	issued, completed    atomic.Int64
	hits, misses         atomic.Int64
	storeDispatched      atomic.Int64
	cacheWins, storeWins atomic.Int64
	failures, cancelled  atomic.Int64
	degraded             atomic.Int64

	wg sync.WaitGroup

	mu      sync.Mutex
	tracker *reissue.WindowedQuantile
}

// New validates the configuration and builds the client with one
// hedging client per tier.
func New(cfg Config) (*Client, error) {
	if cfg.Cache == nil || cfg.Store == nil {
		return nil, fmt.Errorf("tier: both Cache and Store must be set")
	}
	unit := cfg.Cache.Unit()
	if su := cfg.Store.Unit(); su != unit {
		return nil, fmt.Errorf("tier: store Unit %v differs from cache Unit %v — one wall-clock scale per deployment", su, unit)
	}
	// A zero unit would pass the equality check and then collapse any
	// finite TierDelay to 0 below (immediate full fan-out), so units
	// must be positive at this seam.
	if unit <= 0 {
		return nil, fmt.Errorf("tier: source Unit %v must be positive", unit)
	}
	if math.IsNaN(cfg.TierDelay) || cfg.TierDelay < 0 {
		return nil, fmt.Errorf("tier: TierDelay=%v must be non-negative (math.Inf(1) disables the proactive hedge)", cfg.TierDelay)
	}
	c := &Client{
		cache:       cfg.Cache,
		store:       cfg.Store,
		unit:        unit,
		noProactive: math.IsInf(cfg.TierDelay, 1),
		isMiss:      cfg.IsMiss,
	}
	if !c.noProactive {
		c.tierDelay = time.Duration(cfg.TierDelay * float64(unit))
	}
	if c.isMiss == nil {
		c.isMiss = IsMiss
	}
	if math.IsNaN(cfg.Deadline) || math.IsInf(cfg.Deadline, 0) || cfg.Deadline < 0 {
		return nil, fmt.Errorf("tier: Deadline=%v must be a non-negative finite model-ms budget", cfg.Deadline)
	}
	c.deadline = time.Duration(cfg.Deadline * float64(unit))
	if cfg.Degrade != nil {
		b, err := hedge.NewBreaker(1, hedge.BreakerConfig{
			Threshold: cfg.Degrade.Threshold,
			Cooldown:  time.Duration(cfg.Degrade.Cooldown * float64(unit)),
		})
		if err != nil {
			return nil, fmt.Errorf("tier: Degrade: %w", err)
		}
		c.degrade = b
	}
	cacheCfg := cfg.CacheHedge
	cacheCfg.Unit = unit
	cacheC, err := hedge.New(cacheCfg)
	if err != nil {
		return nil, fmt.Errorf("tier: cache client: %w", err)
	}
	storeCfg := cfg.StoreHedge
	storeCfg.Unit = unit
	// stats.TierSalt decorrelates the store tier's coins from the
	// cache tier's, as the simulator graph salts its store leaves'
	// PolicySeed: independent streams over a shared base, not a
	// bit-identical coin sequence.
	storeCfg.Seed ^= stats.TierSalt()
	storeC, err := hedge.New(storeCfg)
	if err != nil {
		return nil, fmt.Errorf("tier: store client: %w", err)
	}
	c.cacheC, c.storeC = cacheC, storeC
	qw, qe := cfg.CacheHedge.QuantileWindow, cfg.CacheHedge.QuantileEps
	if qw <= 0 {
		qw = hedge.DefaultQuantileWindow
	}
	if qe <= 0 {
		qe = hedge.DefaultQuantileEps
	}
	c.tracker = reissue.NewWindowedQuantile(qe, qw)
	return c, nil
}

// Unit returns the wall-clock duration of one model millisecond.
func (c *Client) Unit() time.Duration { return c.unit }

// CacheClient and StoreClient return the per-tier hedging clients —
// within-tier reissue counters, attempt histograms, and sub-query
// quantiles live there.
func (c *Client) CacheClient() *hedge.Client { return c.cacheC }
func (c *Client) StoreClient() *hedge.Client { return c.storeC }

// DegradeBreaker returns the store tier's brown-out breaker (a
// single-replica hedge.Breaker), or nil when Config.Degrade is unset.
// Tests and supervisors inspect its state; the tier client itself
// reports outcomes.
func (c *Client) DegradeBreaker() *hedge.Breaker { return c.degrade }

// outcome is one tier's terminal report for a query.
type outcome struct {
	store   bool
	v       any
	err     error
	skipped bool // store sub-query was never dispatched
}

// noteCache counts a resolved cache sub-query under Hits or Misses —
// called exactly once per cache outcome, whether it is consumed by
// the collect loop or the drain goroutine.
func (c *Client) noteCache(o outcome) {
	if o.err != nil {
		return
	}
	if c.isMiss(o.v) {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
}

// Do executes query i across the tiers: the cache sub-query is
// dispatched immediately through the cache tier's hedging client, and
// the store sub-query at TierDelay — or the moment the cache reports
// a miss or fails, whichever comes first — unless the cache already
// answered (the completion check). Do returns the first valid answer:
// a cache hit, or the store's response. Misses and cache failures are
// never answers; a proactive store copy racing a slow cache hit is,
// whichever side wins.
//
// The losing tier's sub-query runs to completion in the background
// (its own hedging client still observes it), matching the
// run-to-completion execution model of the paper and the tiered
// simulator. If no tier produces a valid answer, Do returns an error
// wrapping ErrExhausted; a cancelled or expired caller context — or a
// backend reporting the copies cancelled-while-queued — reports
// ctx's error and counts under Cancelled.
func (c *Client) Do(ctx context.Context, i int) (any, error) {
	c.issued.Add(1)
	if err := ctx.Err(); err != nil {
		// The caller walked away before the cache copy could go out.
		c.completed.Add(1)
		c.cancelled.Add(1)
		return nil, err
	}
	start := time.Now()
	// The deadline budget wraps BOTH tiers' contexts, so it propagates
	// down the whole composition: every sub-tier, hedged copy, and
	// wire request of this query inherits the shrinking remainder.
	dctx, cancelBudget := ctx, func() {}
	if c.deadline > 0 {
		dctx, cancelBudget = context.WithTimeout(ctx, c.deadline)
	}
	ctx = dctx
	results := make(chan outcome, 2)
	fallThrough := make(chan struct{}) // closed when the cache misses or fails
	var ftOnce sync.Once
	won := make(chan struct{}) // closed when a valid answer exists
	var done atomic.Bool

	// The store scheduler waits out the tier delay (or an early
	// fall-through) and, like the hedging client's own timer
	// goroutine, dispatches the store sub-query INLINE — no extra
	// runqueue hop on the latency-critical dispatch path.
	var timerC <-chan time.Time
	var timer *time.Timer
	if !c.noProactive {
		timer = time.NewTimer(c.tierDelay)
		timerC = timer.C
	}
	stopTimer := func() {
		if timer != nil && !timer.Stop() {
			<-timer.C
		}
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case <-timerC:
		case <-fallThrough:
			stopTimer()
		case <-won:
			stopTimer()
			results <- outcome{store: true, skipped: true}
			return
		case <-ctx.Done():
			stopTimer()
			results <- outcome{store: true, err: ctx.Err(), skipped: true}
			return
		}
		// The completion check: a query the cache already answered
		// does not reach the store.
		if done.Load() {
			results <- outcome{store: true, skipped: true}
			return
		}
		// A fall-through racing the caller's cancellation can reach
		// here with ctx already done; the store hedging client would
		// short-circuit without sending anything, so it must not be
		// counted as a dispatched store sub-query.
		if err := ctx.Err(); err != nil {
			results <- outcome{store: true, err: err, skipped: true}
			return
		}
		if c.degrade != nil {
			if _, rerr := c.degrade.Route(0); rerr != nil {
				// Brown-out: the store is declared down, so the miss
				// path fails fast in bounded time instead of stalling
				// — and a cache hit in flight is entirely unaffected.
				c.degraded.Add(1)
				results <- outcome{store: true, err: fmt.Errorf("tier: store tier browned out: %w", hedge.ErrDegraded)}
				return
			}
		}
		c.storeDispatched.Add(1)
		v, err := c.storeC.Do(ctx, c.store.Request(i))
		if c.degrade != nil {
			switch {
			case err == nil:
				c.degrade.Report(0, true)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// Cancellations say nothing about store health.
			default:
				c.degrade.Report(0, false)
			}
		}
		results <- outcome{store: true, v: v, err: err}
	}()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		v, err := c.cacheC.Do(ctx, c.cache.Request(i))
		results <- outcome{store: false, v: v, err: err}
	}()

	var winner outcome
	var wonFlag bool
	var cacheErr, storeErr error
	remaining := 2
	for remaining > 0 {
		o := <-results
		remaining--
		if !o.store {
			c.noteCache(o)
			switch {
			case o.err != nil:
				cacheErr = o.err
				ftOnce.Do(func() { close(fallThrough) })
			case c.isMiss(o.v):
				ftOnce.Do(func() { close(fallThrough) })
			default:
				winner, wonFlag = o, true
			}
		} else if !o.skipped {
			if o.err != nil {
				storeErr = o.err
			} else {
				winner, wonFlag = o, true
			}
		}
		if wonFlag {
			break
		}
	}

	if wonFlag {
		done.Store(true)
		close(won)
		if remaining > 0 {
			// Hand the losing tier to a drain goroutine: it runs to
			// completion in the background, and its hit/miss
			// classification is still recorded. The budget context is
			// released only once the loser has drained, so Deadline
			// does not cut the run-to-completion loser short.
			c.wg.Add(1)
			go func(rem int) {
				defer c.wg.Done()
				defer cancelBudget()
				for ; rem > 0; rem-- {
					if o := <-results; !o.store {
						c.noteCache(o)
					}
				}
			}(remaining)
		} else {
			cancelBudget()
		}
		if winner.store {
			c.storeWins.Add(1)
		} else {
			c.cacheWins.Add(1)
		}
		c.completed.Add(1)
		rt := float64(time.Since(start)) / float64(c.unit)
		c.mu.Lock()
		c.tracker.Add(rt)
		c.mu.Unlock()
		return winner.v, nil
	}

	// No tier produced a valid answer. Distinguish the caller walking
	// away (directly, or surfacing as backend cancelled-while-queued
	// reports) from a genuine all-tiers outcome. An exhausted Deadline
	// budget surfaces here as ctx.Err() == DeadlineExceeded and counts
	// under Cancelled: the budget is the caller's, not the backend's.
	cancelBudget()
	c.completed.Add(1)
	if err := ctx.Err(); err != nil {
		c.cancelled.Add(1)
		return nil, err
	}
	for _, err := range []error{storeErr, cacheErr} {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			c.cancelled.Add(1)
			return nil, err
		}
	}
	c.failures.Add(1)
	why := storeErr
	if why == nil {
		why = cacheErr
	}
	if why == nil {
		why = errors.New("cache missed and the store was not consulted")
	}
	return nil, fmt.Errorf("%w: %w", ErrExhausted, why)
}

// Request adapts the tier client to the backend.Source seam, so a
// composed graph can put a cache→store tier anywhere a replicated
// fleet goes: behind an outer hedging client, as one shard of a
// shard.Router (per-shard caches), or under another tier. The
// returned Fn executes query i through the whole tier graph via Do —
// the caller's context cancels both tiers' in-flight copies exactly
// as a direct Do call would, and the query index propagates
// unchanged so warmup exclusion by index composes at every level.
//
// The attempt argument is ignored: replica diversity lives inside
// the sub-graph (each tier's own hedge client routes its copies), so
// an outer reissue would re-execute the composed query end to end —
// outer clients over composite sources should run reissue.None (the
// topo builder enforces this; the simulator has no twin for
// reissue-the-whole-subgraph).
func (c *Client) Request(i int) hedge.Fn {
	return func(ctx context.Context, _ int) (any, error) {
		return c.Do(ctx, i)
	}
}

// The tier client is itself a backend.Source, closing the
// composition algebra.
var _ backend.Source = (*Client)(nil)

// Wait blocks until every in-flight sub-query and copy on both tiers
// has finished — losing tiers and within-tier losers included. Call
// it before shutdown or before asserting on final counters; new Do
// calls must not race with Wait.
func (c *Client) Wait() {
	c.wg.Wait()
	c.cacheC.Wait()
	c.storeC.Wait()
}

// Snapshot is a point-in-time view of the tier client and its
// per-tier hedging clients.
type Snapshot struct {
	// Cache and Store are the per-tier hedging-client snapshots:
	// within-tier reissue rates, attempt histograms, and sub-query
	// latency quantiles.
	Cache, Store hedge.Snapshot
	// Issued and Completed count queries through Do. Hits and Misses
	// classify the resolved cache sub-queries. StoreDispatched counts
	// store sub-queries actually sent — fall-throughs plus proactive
	// hedges; TierRate is StoreDispatched over Completed, the
	// tier-level analogue of a hedging client's ReissueRate.
	Issued, Completed, Hits, Misses, StoreDispatched int64
	TierRate                                         float64
	// CacheWins and StoreWins count which tier answered first;
	// Failures counts queries no tier could answer, and Cancelled
	// queries abandoned by the caller — the same taxonomy as
	// hedge.Snapshot, lifted to the tier level.
	CacheWins, StoreWins, Failures, Cancelled int64
	// Degraded counts store sub-queries refused by the brown-out
	// breaker (Config.Degrade): the store was declared down, so the
	// miss path failed fast with hedge.ErrDegraded instead of
	// dispatching. A query can still succeed on a cache hit while its
	// proactive store copy is refused, so Degraded is not a subset of
	// Failures.
	Degraded int64
	// P50, P95, P99 are end-to-end query latencies in policy time
	// units over the sliding window, successful queries only (NaN
	// until data arrives).
	P50, P95, P99 float64
}

// Snapshot merges the per-tier client snapshots with the tier-level
// counters and end-to-end quantiles.
func (c *Client) Snapshot() Snapshot {
	s := Snapshot{
		Cache:           c.cacheC.Snapshot(),
		Store:           c.storeC.Snapshot(),
		Issued:          c.issued.Load(),
		Completed:       c.completed.Load(),
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		StoreDispatched: c.storeDispatched.Load(),
		CacheWins:       c.cacheWins.Load(),
		StoreWins:       c.storeWins.Load(),
		Failures:        c.failures.Load(),
		Cancelled:       c.cancelled.Load(),
		Degraded:        c.degraded.Load(),
	}
	if s.Completed > 0 {
		s.TierRate = float64(s.StoreDispatched) / float64(s.Completed)
	}
	c.mu.Lock()
	s.P50 = c.tracker.Quantile(0.50)
	s.P95 = c.tracker.Quantile(0.95)
	s.P99 = c.tracker.Quantile(0.99)
	c.mu.Unlock()
	return s
}

// NewKVCache stands a kvstore cache view up as a live replicated
// cache-tier backend: every replica holds the precomputed results of
// the workload's hit queries, a request executes the real lookup
// inside the calibrated cache-tier hold, and a query absent from the
// cache answers Miss — the live side of the shared Bernoulli miss
// stream (kvstore.CacheWorkload.Hits) the tiered simulator replays.
func NewKVCache(cw *kvstore.CacheWorkload, cfg backend.Config) (*backend.Cluster, error) {
	if cw == nil || len(cw.Queries) == 0 {
		return nil, fmt.Errorf("tier: nil or empty cache workload")
	}
	return backend.NewCustom(cw.Times, func(i int) (any, error) {
		set, ok := cw.Lookup(i)
		if !ok {
			return Miss{}, nil
		}
		return len(set), nil
	}, cfg)
}
