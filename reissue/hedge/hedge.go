// Package hedge executes reissue policies for real: a goroutine-based
// hedging client in the style of "The Tail at Scale" that wraps any
// request function, schedules redundant copies at the delays a
// reissue.Policy plans, returns the first response, and cancels the
// losing copy through context cancellation.
//
// Where the cluster simulator (internal/cluster) evaluates policies
// on virtual time, a Client issues real concurrent requests on wall
// time. The two are designed to agree: both check whether the query
// already completed before sending its reissue (the paper's client
// harness), both leave a copy that has started service to finish, and
// both measure per-copy response times from that copy's own dispatch.
// The agreement test in reissue/hedge/backend cross-validates the
// measured reissue rate and tail latency against the simulator at
// matched load.
//
// A Client can run a static policy, or — with Config.Online set — a
// self-tuning one: every completed copy's response time feeds a
// sliding-window quantile tracker and the reissue.OnlineAdapter,
// which re-solves the paper's offline optimizer each epoch so the
// reissue delay follows drifting load, exactly as in Section 4.4.
//
// Anything that exposes Request(i) Fn composes: the tier and shard
// subpackages wrap their clients back into backend.Source, and
// reissue/hedge/topo assembles those combinators into arbitrary
// service graphs built simultaneously with their simulator twins.
//
// The client also hardens the failure domain around each copy: a
// per-replica circuit breaker (Breaker), per-attempt timeouts and
// bounded retry-with-backoff kept strictly distinct from hedged
// reissue in the accounting, and typed degradation errors
// (ErrDegraded, ErrBreakerOpen, ErrAttemptTimeout). Deterministic
// fault injection for all of it lives in reissue/hedge/fault; see
// DESIGN.md's "Failure domains & chaos testing" for the taxonomy and
// the sim-vs-live cross-validation.
package hedge

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/reissue"
)

// Fn executes one copy of a request. attempt is 0 for the primary and
// identifies the policy slot of each reissue copy: for single-delay
// policies it is simply 1, and for multi-delay policies (DoubleR,
// MultipleR) attempt k is the copy sent at the policy's k-th
// configured delay — whether or not earlier delays' coins came up —
// so routing by attempt spreads the policy's reissue times over
// distinct replicas deterministically. Implementations should honor
// ctx cancellation — that is how the client reclaims the losing copy
// — and route different attempts to different replicas when they
// can, since a reissue only helps if it does not share the primary's
// fate.
type Fn func(ctx context.Context, attempt int) (any, error)

// Default quantile-tracker parameters, shared by the hedging client
// and the sharded router's end-to-end tracker so fan-out and
// per-shard quantiles are always computed with the same window and
// accuracy.
const (
	DefaultQuantileWindow = 4096
	DefaultQuantileEps    = 0.005
)

// Config parametrizes a hedging client.
type Config struct {
	// Policy is the static reissue policy to execute. Exactly one of
	// Policy and Online must be set.
	Policy reissue.Policy
	// Online, when set, makes the client self-tuning: it starts from
	// the immediate-reissue seed and re-tunes per the online adapter.
	Online *reissue.OnlineConfig
	// Unit is the wall-clock duration of one policy time unit. The
	// repository's policies and workloads are calibrated in
	// milliseconds, so the default is time.Millisecond; tests shrink
	// it to run the same schedules faster.
	Unit time.Duration
	// LetLoserRun, when true, lets the losing copy run to completion
	// instead of cancelling it on first response. Completed losers
	// contribute response-time observations (better data for the
	// optimizer, as the paper's measurement harness collects), at the
	// cost of the wasted work the paper's model assumes.
	LetLoserRun bool
	// QuantileWindow is the sliding window (in completed queries) of
	// the end-to-end latency tracker; default 4096.
	QuantileWindow int
	// QuantileEps is the tracker's rank error; default 0.005.
	QuantileEps float64
	// AttemptTimeout, in policy time units, bounds each individual try
	// of a copy: the copy's Fn runs under a child context with this
	// deadline, and a try that exceeds it fails with an error wrapping
	// ErrAttemptTimeout (retryable, counted under Faulted — not
	// Cancelled). 0 disables the per-attempt timeout.
	AttemptTimeout float64
	// MaxRetries is how many times a failed try of a copy is re-sent
	// before the copy is reported failed. Retries are failure
	// containment, distinct from hedged reissue: a retry re-runs the
	// SAME attempt slot and is counted only in Snapshot.Retried, never
	// in Reissued or Attempts[].Dispatched/Wins — the policy's
	// dispatch statistics must reflect the plan, not the retry storm.
	// 0 disables retries.
	MaxRetries int
	// RetryBackoff, in policy time units, is the wait before the first
	// retry, doubling on each subsequent retry. The wait is cancelled
	// with the copy's context. 0 retries immediately.
	RetryBackoff float64
	// OnCopyComplete, when set, is invoked for every copy that
	// actually completes successfully, with the copy's attempt number
	// (0 for the primary, n for the copy sent at the plan's n-th
	// delay) and its response time in policy units, measured from that
	// copy's own dispatch — the live counterpart of the simulator's
	// Config.OnRequestComplete. It is called from the client's
	// goroutines and must be safe for concurrent use.
	OnCopyComplete func(attempt int, rt float64)
	// Seed drives the policy's coin flips.
	Seed uint64
}

// Snapshot is a point-in-time view of a client's counters and
// latency tracker.
type Snapshot struct {
	// Issued is the number of Do calls started; Completed the number
	// that returned a result (success or failure).
	Issued, Completed int64
	// Reissued counts reissue copies actually dispatched. Planned
	// copies whose query completed before their delay elapsed are not
	// dispatched and not counted — the paper's completion check.
	Reissued int64
	// PrimaryWins and ReissueWins count which copy answered first.
	// Failures counts queries where every dispatched copy failed while
	// the caller still wanted the answer; Cancelled counts queries
	// abandoned because the caller's context was cancelled (or its
	// deadline expired) before any copy succeeded. The two are
	// disjoint: a caller walking away is not a backend failure.
	PrimaryWins, ReissueWins, Failures, Cancelled int64
	// Faulted counts dispatched copies that terminally failed with a
	// backend fault (after exhausting any retries); copies that ended
	// because the caller or the winner cancelled them are excluded.
	// Retried counts individual retry sends performed under
	// Config.MaxRetries — deliberately NOT part of Reissued or the
	// Attempts table, so retry containment never skews the policy's
	// win/dispatch statistics. BreakerOpen counts copies rejected
	// because every candidate replica's circuit breaker was open;
	// Degraded counts copies failed fast by a browned-out composite
	// tier (errors wrapping ErrDegraded). BreakerOpen and Degraded are
	// subsets of Faulted.
	Faulted, Retried, BreakerOpen, Degraded int64
	// ReissueRate is Reissued / Completed — directly comparable to
	// the simulator's Result.ReissueRate and the policy's configured
	// budget q·Pr(X > d).
	ReissueRate float64
	// P50, P95, P99 are end-to-end query latencies in policy time
	// units over the sliding window (NaN until data arrives).
	P50, P95, P99 float64
	// Policy is the current policy (the adapter's latest parameters
	// when self-tuning).
	Policy string
	// Epochs is the number of online re-tuning epochs run (0 for
	// static policies).
	Epochs int
	// Attempts holds per-attempt execution statistics, indexed by
	// attempt number: Attempts[0] is the primary, Attempts[n] the
	// copy sent at the plan's n-th delay. Multi-delay policies
	// (DoubleR, MultipleR) populate entries beyond index 1; the
	// winning-attempt histogram is the Wins column.
	Attempts []AttemptStats
}

// AttemptStats aggregates one attempt slot's counters and response
// times across all queries a Client has executed.
type AttemptStats struct {
	// Dispatched counts copies of this attempt actually sent. A
	// planned copy suppressed by the completion check (or cancelled
	// before its delay elapsed) is not dispatched.
	Dispatched int64
	// Wins counts queries this attempt answered first.
	Wins int64
	// P50 and P99 are response-time quantiles of this attempt's
	// completed copies, in policy units over the sliding window (NaN
	// until data arrives).
	P50, P99 float64
}

// Client is a concurrent hedging client. All methods are safe for
// concurrent use; a single Client is meant to be shared by every
// goroutine issuing requests to the same backend.
type Client struct {
	cfg  Config
	unit time.Duration

	mu      sync.Mutex // guards rng, adapter, all trackers, attempts growth
	rng     *reissue.RNG
	static  reissue.Policy
	adapter *reissue.OnlineAdapter
	tracker *reissue.WindowedQuantile
	// attempts is the per-attempt aggregate table, indexed by attempt
	// number. It is grown copy-on-write under mu (in plan, before any
	// copy of the query runs), and the published slice and its
	// entries' counters are safe to read lock-free — dispatch
	// accounting happens on every copy's hot path.
	attempts atomic.Pointer[[]*attemptAgg]

	issued      atomic.Int64
	completed   atomic.Int64
	reissued    atomic.Int64
	primaryWins atomic.Int64
	reissueWins atomic.Int64
	failures    atomic.Int64
	cancelled   atomic.Int64
	faulted     atomic.Int64
	retried     atomic.Int64
	breakerOpen atomic.Int64
	degraded    atomic.Int64

	wg sync.WaitGroup // all copy and drain goroutines
}

// New validates the configuration and returns a Client.
func New(cfg Config) (*Client, error) {
	if (cfg.Policy == nil) == (cfg.Online == nil) {
		return nil, fmt.Errorf("hedge: exactly one of Policy and Online must be set")
	}
	if cfg.Unit < 0 {
		return nil, fmt.Errorf("hedge: negative Unit %v", cfg.Unit)
	}
	if cfg.Unit == 0 {
		cfg.Unit = time.Millisecond
	}
	if cfg.QuantileWindow <= 0 {
		cfg.QuantileWindow = DefaultQuantileWindow
	}
	if cfg.QuantileEps <= 0 {
		cfg.QuantileEps = DefaultQuantileEps
	}
	if cfg.AttemptTimeout < 0 {
		return nil, fmt.Errorf("hedge: negative AttemptTimeout %v", cfg.AttemptTimeout)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("hedge: negative MaxRetries %d", cfg.MaxRetries)
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("hedge: negative RetryBackoff %v", cfg.RetryBackoff)
	}
	c := &Client{
		cfg:     cfg,
		unit:    cfg.Unit,
		rng:     reissue.NewRNG(cfg.Seed),
		static:  cfg.Policy,
		tracker: reissue.NewWindowedQuantile(cfg.QuantileEps, cfg.QuantileWindow),
	}
	c.attempts.Store(&[]*attemptAgg{{
		tracker: reissue.NewWindowedQuantile(cfg.QuantileEps, cfg.QuantileWindow),
	}})
	if cfg.Online != nil {
		a, err := reissue.NewOnlineAdapter(*cfg.Online)
		if err != nil {
			return nil, err
		}
		c.adapter = a
	}
	return c, nil
}

// Policy returns the policy currently in force — the static policy,
// or the online adapter's latest SingleR parameters.
func (c *Client) Policy() reissue.Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.currentPolicy()
}

func (c *Client) currentPolicy() reissue.Policy {
	if c.adapter != nil {
		return c.adapter.Policy()
	}
	return c.static
}

// plan samples the current policy's reissue schedule into delays and
// slots (appending, so a caller passing reusable buffers plans
// without allocating) and maps each sampled delay to its attempt
// number. For MultipleR (and DoubleR) the attempt number is the
// configured delay's slot — 1 + its index in Delays — so a copy's
// routing and the winning-attempt histogram identify which of the
// policy's reissue times fired. For every other policy the attempt
// number is the position in the sampled plan.
func (c *Client) plan(delays []float64, slots []int) ([]float64, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pol := c.static
	if c.adapter != nil {
		pol = c.adapter.Policy()
	}
	switch p := pol.(type) {
	case reissue.MultipleR:
		delays, slots = p.AppendPlanSlots(c.rng, delays, slots)
	case reissue.PlanAppender:
		delays = p.AppendPlan(c.rng, delays)
	default:
		delays = append(delays, pol.Plan(c.rng)...)
	}
	for i := len(slots); i < len(delays); i++ {
		slots = append(slots, i+1)
	}
	// Cover every slot this query can dispatch (slots are ascending)
	// while the lock is held, so the per-copy accounting on the hot
	// path is lock-free.
	max := 0
	if len(slots) > 0 {
		max = slots[len(slots)-1]
	}
	c.growAttempts(max)
	return delays, slots
}

// observeCopy feeds one completed copy's response time (in policy
// units) to the online adapter and the copy's attempt tracker. It
// sits on every copy's completion path, so both observations share
// one lock acquisition.
func (c *Client) observeCopy(attempt int, rt float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.adapter != nil {
		if attempt > 0 {
			c.adapter.ObserveReissue(rt)
		} else {
			c.adapter.ObservePrimary(rt)
		}
	}
	(*c.attempts.Load())[attempt].tracker.Add(rt)
}

// observeWin records which attempt answered the query and the query's
// end-to-end latency, under one lock acquisition.
func (c *Client) observeWin(attempt int, rt float64) {
	(*c.attempts.Load())[attempt].wins.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracker.Add(rt)
}

// attemptAgg accumulates one attempt slot's counters and response
// times. The counters are atomics (bumped lock-free on the copy hot
// path); the tracker is guarded by Client.mu.
type attemptAgg struct {
	dispatched atomic.Int64
	wins       atomic.Int64
	tracker    *reissue.WindowedQuantile
}

// growAttempts ensures the aggregate table covers attempt numbers up
// to max, copy-on-write so published slices stay valid for lock-free
// readers. Caller holds c.mu.
func (c *Client) growAttempts(max int) []*attemptAgg {
	cur := *c.attempts.Load()
	if len(cur) > max {
		return cur
	}
	grown := make([]*attemptAgg, max+1)
	copy(grown, cur)
	for i := len(cur); i <= max; i++ {
		grown[i] = &attemptAgg{
			tracker: reissue.NewWindowedQuantile(c.cfg.QuantileEps, c.cfg.QuantileWindow),
		}
	}
	c.attempts.Store(&grown)
	return grown
}

// noteDispatch records, lock-free, that a copy of the given attempt
// number was actually sent. plan() grew the table to cover every
// slot of this query's schedule before any copy was started.
func (c *Client) noteDispatch(attempt int) {
	(*c.attempts.Load())[attempt].dispatched.Add(1)
}

// planBySlotDelay sorts a sampled plan's delays ascending, carrying
// each delay's slot along so attribution stays correct.
type planBySlotDelay struct {
	delays []float64
	slots  []int
}

func (p *planBySlotDelay) Len() int           { return len(p.delays) }
func (p *planBySlotDelay) Less(i, j int) bool { return p.delays[i] < p.delays[j] }
func (p *planBySlotDelay) Swap(i, j int) {
	p.delays[i], p.delays[j] = p.delays[j], p.delays[i]
	p.slots[i], p.slots[j] = p.slots[j], p.slots[i]
}

// outcome is one copy's terminal report, or a release report for
// planned copies that will never be dispatched.
type outcome struct {
	attempt int
	val     any
	err     error
	rt      float64 // response time in policy units, valid when executed
	// released, when positive, marks a report for that many planned
	// copies settled undispatched (query done, or cancelled first);
	// no copy ran and the other fields are unset.
	released int
}

// ErrAllCopiesFailed wraps the primary's error when every dispatched
// copy of a query failed.
var ErrAllCopiesFailed = errors.New("hedge: all copies failed")

// inlinePlan is the plan length a call holds without allocating: the
// repository's policies plan at most a few reissue times.
const inlinePlan = 4

// call is one Do invocation's state, allocated once per query. The
// primary goroutine, the plan timer's callbacks and the collector
// share it; everything but done, next and results is written before
// the goroutine or timer that reads it is started.
type call struct {
	c     *Client
	fn    Fn
	start time.Time
	// ctx is the copies' context: cancelled when a winner exists
	// (unless LetLoserRun) and once every dispatched copy has
	// reported.
	ctx     context.Context
	cancel  context.CancelFunc
	results chan outcome
	// done is the completion flag the plan timer checks before
	// dispatching a copy (the paper's client harness).
	done atomic.Bool

	// plan/slots are the sorted sampled delays and their attempt
	// numbers, backed by the inline buffers when they fit.
	plan    []float64
	slots   []int
	planBuf [inlinePlan]float64
	slotBuf [inlinePlan]int
	// timer fires at plan[next]; nil when nothing is planned. next is
	// atomic because a settling collector reads it after Stop, which
	// orders nothing for the race detector.
	timer *time.Timer
	next  atomic.Int32
}

// Do executes one request under the hedging policy: it dispatches fn
// as the primary immediately, schedules a redundant copy at each
// delay the policy plans (skipping copies whose query already
// completed — the paper's completion check), and returns the first
// successful response. The losing copy's context is cancelled as soon
// as a winner exists unless Config.LetLoserRun is set, in which case
// it runs to completion in the background and its response time is
// still observed.
//
// If every dispatched copy fails, Do returns an error wrapping
// ErrAllCopiesFailed and the primary's error. If ctx is cancelled
// before any copy succeeds, Do returns ctx.Err().
func (c *Client) Do(ctx context.Context, fn Fn) (any, error) {
	c.issued.Add(1)
	// A caller whose context is already done at entry has walked away
	// before the primary could be dispatched: short-circuit under
	// Cancelled without sampling a plan, dispatching a copy, or
	// bumping Attempts[0].Dispatched — sending a doomed wire request
	// for an abandoned query would burn backend capacity and skew the
	// dispatch accounting.
	if err := ctx.Err(); err != nil {
		c.completed.Add(1)
		c.cancelled.Add(1)
		return nil, err
	}
	cl := &call{c: c, fn: fn, start: time.Now()}
	cl.plan, cl.slots = c.plan(cl.planBuf[:0], cl.slotBuf[:0])
	cl.ctx, cl.cancel = context.WithCancel(ctx)
	copies := 1 + len(cl.plan)
	cl.results = make(chan outcome, copies)

	c.noteDispatch(0)
	c.wg.Add(1)
	go cl.run(0)

	if len(cl.plan) > 0 {
		// The Policy contract says plans are ascending, and every
		// in-repo family complies; the one-timer walk in fire depends
		// on it, so restore order for a foreign policy that violates
		// the contract rather than silently dispatching its earlier
		// delays late.
		if !sort.Float64sAreSorted(cl.plan) {
			sort.Sort(&planBySlotDelay{cl.plan, cl.slots})
		}
		// The plan holds one WaitGroup count until every planned copy
		// is dispatched or released, so Wait covers the timer too.
		c.wg.Add(1)
		// Created idle and armed only once stored: fire reads
		// cl.timer, and Reset orders the store before the callback.
		cl.timer = time.AfterFunc(math.MaxInt64, cl.fire)
		cl.timer.Reset(cl.delay(0))
	}

	// Collect until a winner emerges; then hand the rest to a drain
	// goroutine so Do can return without leaking copies.
	var winner outcome
	var won bool
	var primaryErr error
	pending := copies
	callerDone := ctx.Done()
	for pending > 0 && !won {
		select {
		case o := <-cl.results:
			if o.released > 0 {
				pending -= o.released
				continue
			}
			pending--
			c.record(o, &primaryErr)
			if o.err == nil {
				winner, won = o, true
			}
		case <-callerDone:
			// The caller walked away: release the undispatched plan
			// now (the dispatched copies unwind through cl.ctx, a
			// child of ctx) and keep collecting.
			callerDone = nil
			pending -= cl.settle()
		}
	}

	if won {
		pending -= cl.settle()
		if !c.cfg.LetLoserRun {
			cl.cancel()
		}
		if pending > 0 {
			c.wg.Add(1)
			go cl.drain(pending)
		} else {
			cl.cancel()
		}
		switch winner.attempt {
		case 0:
			c.primaryWins.Add(1)
		default:
			c.reissueWins.Add(1)
		}
		c.completed.Add(1)
		c.observeWin(winner.attempt, float64(time.Since(cl.start))/float64(c.unit))
		return winner.val, nil
	}

	// No copy succeeded. A cancelled or expired caller context is the
	// caller walking away, not an all-copies-failed backend outcome —
	// count the two separately so Failures keeps meaning what it says.
	cl.cancel()
	c.completed.Add(1)
	if err := ctx.Err(); err != nil {
		c.cancelled.Add(1)
		return nil, err
	}
	if errors.Is(primaryErr, context.Canceled) || errors.Is(primaryErr, context.DeadlineExceeded) {
		// The backend reported the copy cancelled-while-queued — a
		// replica observing the peer's abort (the transport's 499)
		// can race ahead of the caller's own ctx error surfacing
		// here. That is still the caller walking away, not a backend
		// failure.
		c.cancelled.Add(1)
		return nil, primaryErr
	}
	c.failures.Add(1)
	return nil, fmt.Errorf("%w: %w", ErrAllCopiesFailed, primaryErr)
}

// run executes one dispatched copy and reports its outcome; it owns
// one WaitGroup count, taken by whoever dispatched it.
func (cl *call) run(attempt int) {
	defer cl.c.wg.Done()
	t0 := time.Now()
	v, err := cl.c.execute(cl.ctx, cl.fn, attempt)
	cl.results <- outcome{attempt: attempt, val: v, err: err,
		rt: float64(time.Since(t0)) / float64(cl.c.unit)}
}

// delay is how long from now plan slot i is due. Delays are relative
// to Do's start, so waiting for earlier slots is not added onto later
// ones.
func (cl *call) delay(i int) time.Duration {
	d := time.Duration(cl.plan[i]*float64(cl.c.unit)) - time.Since(cl.start)
	if d < 0 {
		d = 0
	}
	return d
}

// fire is the plan timer's callback for slot next. It runs in the
// goroutine the timer starts and runs the dispatched copy there, so
// the dispatch path has exactly one wakeup: on a loaded small machine
// an extra runqueue hop measurably delays (and so suppresses)
// reissues. Before running the copy it re-arms the timer for the next
// slot, so later slots do not wait for this copy.
//
// Undispatched slots are released exactly once. The collector sets
// done and then calls Stop; when Stop returns true the timer was
// pending and the collector subtracts the remaining slots itself.
// When it returns false a callback is running or about to run: one
// that has not yet checked the query releases the slots below, and
// one that already dispatched and re-armed checks again after Reset
// and releases them if its own Stop wins.
func (cl *call) fire() {
	c := cl.c
	i := int(cl.next.Load())
	// The paper's client checks a completion flag before actually
	// sending the reissue.
	if cl.decided() {
		cl.release()
		return
	}
	attempt := cl.slots[i]
	c.reissued.Add(1)
	c.noteDispatch(attempt)
	// The copy's count is taken before the plan's own count can be
	// released, so the WaitGroup never touches zero while Wait may be
	// running.
	c.wg.Add(1)
	if i+1 < len(cl.plan) {
		cl.next.Store(int32(i + 1))
		cl.timer.Reset(cl.delay(i + 1))
		if cl.decided() && cl.timer.Stop() {
			cl.release()
		}
	} else {
		c.wg.Done() // plan exhausted
	}
	cl.run(attempt)
}

// decided reports whether the query needs no more copies: it was
// settled, or the caller walked away. The caller's cancellation
// reaches cl.ctx synchronously, so a timer firing before the
// collector wakes to settle does not send a doomed copy.
func (cl *call) decided() bool {
	return cl.done.Load() || cl.ctx.Err() != nil
}

// release reports the plan slots from next on as never dispatched and
// drops the plan's WaitGroup count. next is read here, not passed in:
// a Stop that wins against a later callback's re-arm must release
// from that callback's slot.
func (cl *call) release() {
	cl.results <- outcome{released: len(cl.plan) - int(cl.next.Load())}
	cl.c.wg.Done()
}

// settle marks the query done and, if the plan timer was still
// pending, stops it and returns how many planned slots will now never
// report (dropping the plan's WaitGroup count). It returns 0 when
// nothing is planned, the plan is exhausted, or a running callback
// will release the rest itself; calling it again returns 0.
func (cl *call) settle() int {
	cl.done.Store(true)
	if cl.timer == nil || !cl.timer.Stop() {
		return 0
	}
	released := len(cl.plan) - int(cl.next.Load())
	cl.c.wg.Done()
	return released
}

// drain collects the reports still pending after Do returned, feeding
// losers' measurements to the trackers, then cancels the copies'
// context.
func (cl *call) drain(pending int) {
	defer cl.c.wg.Done()
	defer cl.cancel()
	var discard error
	for pending > 0 {
		o := <-cl.results
		if o.released > 0 {
			pending -= o.released
			continue
		}
		pending--
		cl.c.record(o, &discard)
	}
}

// execute runs one copy to its terminal outcome, applying the
// per-attempt timeout and the bounded retry-with-backoff policy.
// Retries are containment, not reissue: each retry re-runs the same
// attempt slot, bumps only the retried counter, and the copy's
// response time (measured by the caller from first dispatch) absorbs
// the retry rounds — exactly one outcome per attempt slot reaches
// the collector either way.
func (c *Client) execute(ctx context.Context, fn Fn, attempt int) (any, error) {
	backoff := c.cfg.RetryBackoff
	for try := 0; ; try++ {
		v, err := c.tryOnce(ctx, fn, attempt)
		if err == nil || try >= c.cfg.MaxRetries || !retryable(ctx, err) {
			return v, err
		}
		c.retried.Add(1)
		if backoff > 0 {
			t := time.NewTimer(time.Duration(backoff * float64(c.unit)))
			select {
			case <-ctx.Done():
				t.Stop()
				return v, err
			case <-t.C:
			}
			backoff *= 2
		}
	}
}

// tryOnce runs a single try of one copy under Config.AttemptTimeout.
func (c *Client) tryOnce(ctx context.Context, fn Fn, attempt int) (any, error) {
	if c.cfg.AttemptTimeout <= 0 {
		return fn(ctx, attempt)
	}
	d := time.Duration(c.cfg.AttemptTimeout * float64(c.unit))
	actx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	v, err := fn(actx, attempt)
	if err != nil && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		// The per-attempt budget expired while the caller still wanted
		// the answer: a fault of this try, not the caller walking
		// away. %v (not %w) on the cause keeps DeadlineExceeded out of
		// the chain so classification and retry treat it as a fault.
		return nil, fmt.Errorf("%w (%v): %v", ErrAttemptTimeout, d, err)
	}
	return v, err
}

// retryable reports whether a failed try should be re-sent: the copy
// must still be wanted, and the error must be a backend fault rather
// than a cancellation the backend observed and echoed back.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// record feeds a completed copy's measurements to the adapter,
// classifies terminal failures into the fault taxonomy, and remembers
// the primary's error for failure reporting.
func (c *Client) record(o outcome, primaryErr *error) {
	if o.err == nil {
		c.observeCopy(o.attempt, o.rt)
		if c.cfg.OnCopyComplete != nil {
			c.cfg.OnCopyComplete(o.attempt, o.rt)
		}
		return
	}
	if !errors.Is(o.err, context.Canceled) && !errors.Is(o.err, context.DeadlineExceeded) {
		// A genuine fault of this copy — loser cancellations and
		// caller-deadline unwinds stay out of the taxonomy.
		c.faulted.Add(1)
		switch {
		case errors.Is(o.err, ErrBreakerOpen):
			c.breakerOpen.Add(1)
		case errors.Is(o.err, ErrDegraded):
			c.degraded.Add(1)
		}
	}
	if o.attempt == 0 && *primaryErr == nil {
		*primaryErr = o.err
	}
}

// Unit returns the wall-clock duration of one policy time unit —
// the configured Unit, or the 1ms default when none was given. With
// Request-side sources this makes the client itself Source-shaped
// enough for unit-consistency checks at composition seams.
func (c *Client) Unit() time.Duration { return c.unit }

// Wait blocks until every in-flight copy and drain goroutine has
// finished — losing copies included. Call it before shutdown, or in
// tests that assert on goroutine counts or final counter values. New
// Do calls must not race with Wait.
func (c *Client) Wait() { c.wg.Wait() }

// Snapshot returns the client's current counters and window
// quantiles.
func (c *Client) Snapshot() Snapshot {
	c.mu.Lock()
	p50 := c.tracker.Quantile(0.50)
	p95 := c.tracker.Quantile(0.95)
	p99 := c.tracker.Quantile(0.99)
	pol := c.currentPolicy().String()
	epochs := 0
	if c.adapter != nil {
		epochs = c.adapter.Epochs()
	}
	table := *c.attempts.Load()
	attempts := make([]AttemptStats, len(table))
	for i, a := range table {
		attempts[i] = AttemptStats{
			Dispatched: a.dispatched.Load(),
			Wins:       a.wins.Load(),
			P50:        a.tracker.Quantile(0.50),
			P99:        a.tracker.Quantile(0.99),
		}
	}
	c.mu.Unlock()

	s := Snapshot{
		Issued:      c.issued.Load(),
		Completed:   c.completed.Load(),
		Reissued:    c.reissued.Load(),
		PrimaryWins: c.primaryWins.Load(),
		ReissueWins: c.reissueWins.Load(),
		Failures:    c.failures.Load(),
		Cancelled:   c.cancelled.Load(),
		Faulted:     c.faulted.Load(),
		Retried:     c.retried.Load(),
		BreakerOpen: c.breakerOpen.Load(),
		Degraded:    c.degraded.Load(),
		P50:         p50,
		P95:         p95,
		P99:         p99,
		Policy:      pol,
		Epochs:      epochs,
		Attempts:    attempts,
	}
	if s.Completed > 0 {
		s.ReissueRate = float64(s.Reissued) / float64(s.Completed)
	}
	return s
}
