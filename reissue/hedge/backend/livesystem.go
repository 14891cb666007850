package backend

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/reissue"
	"repro/reissue/hedge"
)

// LiveSystem adapts a live replicated backend plus a load profile to
// the reissue.System interface, so the paper's data-driven machinery
// — AdaptiveOptimize, BudgetSearch, MinimizeBudgetForSLA — runs
// unchanged against real goroutine traffic instead of the simulator.
// Each Run stands up a fresh hedging client for the trial's policy,
// replays the workload open-loop at the configured arrival rate, and
// reports the measured per-copy and end-to-end response times.
//
// Measurement follows the simulator's semantics: the Warmup lead-in
// queries (queues ramping up from empty) are excluded from the
// per-copy logs, the end-to-end latency log, and the reissue rate,
// so a live RunResult and a simulated one are the same statistic.
//
// Losing copies run to completion (hedge.Config.LetLoserRun): that is
// the paper's execution model, it matches the simulator's default,
// and it is what gives the optimizer a full reissue response-time
// log.
type LiveSystem struct {
	// Back is the replicated backend to drive: an in-process *Cluster
	// or any other Source, such as a transport.Client fronting
	// out-of-process HTTP replicas.
	Back Source
	// N is the number of queries per trial; Warmup of them lead-in
	// excluded from every reported statistic.
	N, Warmup int
	// Lambda is the open-loop Poisson arrival rate in queries per
	// model millisecond.
	Lambda float64
	// Seed drives arrivals and policy coin flips. Every Run replays
	// the identical Poisson arrival stream (common random numbers,
	// exactly like the simulator), so two policies are compared on the
	// same sample path — the variance reduction that makes
	// baseline-vs-hedged comparisons and adaptive refinement converge
	// at practical run lengths.
	Seed uint64
}

// MeasuredSource wraps a Source to collect the simulator's
// measurement semantics on the live path: per-copy response times
// (successful copies only, from each copy's own dispatch) and the
// dispatched-reissue count, restricted to post-warmup queries.
// Copies of warmup queries pass through unrecorded. It is the one
// implementation of the live measurement contract, shared by
// LiveSystem and the sharded fan-out's per-shard measurement
// (reissue/hedge/shard) — the single-shard and sharded statistics
// must stay the same statistic. Safe for concurrent use; one
// MeasuredSource accumulates across one trial.
type MeasuredSource struct {
	Source
	warmup    int
	unit      time.Duration
	primaries atomic.Int64
	reissues  atomic.Int64
	mu        sync.Mutex
	rx, ry    []float64
}

// NewMeasuredSource wraps src, recording copies of queries with
// index >= warmup.
func NewMeasuredSource(src Source, warmup int) *MeasuredSource {
	return &MeasuredSource{Source: src, warmup: warmup, unit: src.Unit()}
}

// Request implements Source, instrumenting post-warmup queries.
func (m *MeasuredSource) Request(i int) hedge.Fn {
	fn := m.Source.Request(i)
	if i < m.warmup {
		return fn
	}
	return func(ctx context.Context, attempt int) (any, error) {
		if attempt > 0 {
			m.reissues.Add(1)
		} else {
			m.primaries.Add(1)
		}
		t0 := time.Now()
		v, err := fn(ctx, attempt)
		if err == nil {
			rt := float64(time.Since(t0)) / float64(m.unit)
			m.mu.Lock()
			if attempt > 0 {
				m.ry = append(m.ry, rt)
			} else {
				m.rx = append(m.rx, rt)
			}
			m.mu.Unlock()
		}
		return v, err
	}
}

// Reissues returns the number of post-warmup reissue copies
// dispatched so far.
func (m *MeasuredSource) Reissues() int64 { return m.reissues.Load() }

// Primaries returns the number of post-warmup primary copies
// dispatched so far. A single-tier open loop dispatches one primary
// per measured query, but a composition that routes only some
// queries through this source — the multi-tier client's store tier —
// needs the observed count as the denominator of this source's
// reissue rate.
func (m *MeasuredSource) Primaries() int64 { return m.primaries.Load() }

// Logs returns the accumulated per-copy response-time logs (primary
// and reissue copies, in model milliseconds). The returned slices
// are the accumulators themselves: call only after the trial's
// copies have drained.
func (m *MeasuredSource) Logs() (primary, reissue []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rx, m.ry
}

// Run implements reissue.System: one live trial under policy p.
// Configuration errors (invalid N, Warmup, Lambda) panic, since the
// System interface has no error path and a half-configured trial
// would silently corrupt every measurement derived from it. Run
// drives the trial under context.Background(); runners that need
// supervision — a transport.WatchFleet context that dies with a
// crashed replica — use RunContext.
func (s *LiveSystem) Run(p reissue.Policy) reissue.RunResult {
	//lint:allow ctxflow reissue.System.Run predates context; RunContext is the threaded path
	res, err := s.RunContext(context.Background(), p)
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext is Run with a caller-supplied base context and an error
// path: a context cancelled mid-trial (a caller deadline, or a
// WatchFleet context tripped by a dying replica server) aborts the
// open loop immediately and surfaces the driver error instead of
// panicking. Configuration errors still panic, as in Run.
func (s *LiveSystem) RunContext(ctx context.Context, p reissue.Policy) (reissue.RunResult, error) {
	if s.Warmup < 0 || s.Warmup >= s.N {
		panic(fmt.Sprintf("backend: LiveSystem Warmup=%d outside [0, N=%d)", s.Warmup, s.N))
	}
	src := NewMeasuredSource(s.Back, s.Warmup)
	client, err := hedge.New(hedge.Config{
		Policy:      p,
		Unit:        s.Back.Unit(),
		LetLoserRun: true,
		// The arrival process consumes the raw seed below; the policy
		// coins must come from a distinct stream, or the coin of query
		// i correlates with inter-arrival gap i (identical uniform
		// sequences) and hedging systematically targets bursts. The
		// simulator decorrelates its streams the same way.
		Seed: s.Seed ^ 0x94d049bb133111eb,
	})
	if err != nil {
		// Config errors are programming mistakes here (the policy
		// comes from the optimizer); surface them loudly.
		panic(err)
	}
	lats, err := RunOpenLoop(ctx, src, client, s.N, s.Lambda, s.Seed)
	if err != nil {
		return reissue.RunResult{}, err
	}
	rx, ry := src.Logs()
	return reissue.RunResult{
		Primary:     rx,
		Reissue:     ry,
		Query:       lats[s.Warmup:],
		ReissueRate: float64(src.Reissues()) / float64(s.N-s.Warmup),
	}, nil
}

// Unit returns the wall-clock duration of one model millisecond.
func (c *Cluster) Unit() time.Duration { return c.cfg.Unit }
