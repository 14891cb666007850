// Package cluster is the discrete-event cluster simulator used for
// every experiment in the repository: n single-threaded servers with
// configurable queue disciplines, a load balancer, an open-loop
// Poisson arrival process, and a reissue controller that executes any
// reissue.Policy — checking, like the paper's client harness, whether a
// query already completed before actually sending its reissue.
//
// The simulator replaces the paper's physical 10-server testbed; see
// DESIGN.md for the substitution argument.
//
// The hot path is allocation-free in steady state: a Cluster pools
// its event list, per-query records, dispatched-copy arena, and
// server queues across runs, and every simulation event is a typed
// des.ArgEvent rather than a fresh closure. Repeated Run calls (the
// adaptive optimizer's trials, figure sweeps) therefore cost no
// per-query allocations; only the measurement set returned to the
// caller is freshly allocated, pre-sized from Config. A Cluster is
// NOT safe for concurrent Run calls — run one simulation at a time
// per Cluster (this was always the case; the pooling makes it load-
// bearing).
package cluster

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/rangequery"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

// ServiceSource produces per-query service times. Sample returns the
// primary request's service time and the service time a reissue of
// the same query would have. Reset is called at the start of every
// run so trace-backed sources replay deterministically.
type ServiceSource interface {
	Sample(r *stats.RNG) (primary, reissue float64)
	Reset()
}

// DistSource draws service times from a distribution, with the
// paper's linear correlation model for reissues: Y = Corr*X + Z where
// Z is an independent draw (Section 5.1, Figure 4).
type DistSource struct {
	Dist stats.Dist
	Corr float64
}

// Sample draws X and Y = Corr*X + Z.
func (s DistSource) Sample(r *stats.RNG) (float64, float64) {
	x := s.Dist.Sample(r)
	return x, s.Corr*x + s.Dist.Sample(r)
}

// Reset is a no-op; distribution sources are stateless.
func (DistSource) Reset() {}

// TraceSource replays a fixed sequence of service times (for example,
// measured from the kvstore or searchengine workloads), cycling when
// exhausted. The reissue executes the same work as the primary, so it
// gets the same service time — the strongest form of service-time
// correlation, matching a replica re-executing an identical query.
type TraceSource struct {
	Times []float64
	next  int
}

// Sample returns the next recorded service time for both copies. An
// empty trace is a configuration error; Config validation (New)
// rejects it before any run starts.
func (s *TraceSource) Sample(*stats.RNG) (float64, float64) {
	t := s.Times[s.next]
	s.next = (s.next + 1) % len(s.Times)
	return t, t
}

// Reset rewinds the trace to the beginning.
func (s *TraceSource) Reset() { s.next = 0 }

// Config describes a simulated cluster and workload.
type Config struct {
	// Servers is the number of servers; 0 simulates infinitely many
	// (no queueing — the Independent and Correlated workload models).
	Servers int
	// ArrivalRate is the open-loop Poisson arrival rate in queries
	// per unit time. Ignored when Servers == 0.
	ArrivalRate float64
	// RateMultiplier optionally modulates the arrival rate over
	// simulated time (non-homogeneous Poisson by local rate): the
	// instantaneous rate at time t is ArrivalRate*RateMultiplier(t).
	// It models the diurnal/step load variation of the paper's
	// Section 4.4 "varying load" scenario. Must return positive
	// values and be a pure function of t: common random numbers
	// (FreshPerRun false) assume every run sees the same arrival
	// instants, and a run may replay the instants an earlier run
	// computed instead of calling it again. Nil means constant rate.
	RateMultiplier func(t float64) float64
	// OnRequestComplete, when set, is invoked each time a request
	// copy finishes service, with whether it was a reissue, its
	// response time, and the simulation time. Online adapters use it
	// to observe the live response-time stream mid-run. Requires
	// finite Servers: infinite-server runs are evaluated per query in
	// closed form, not in global time order.
	OnRequestComplete func(reissue bool, responseTime, now float64)
	// Queries is the number of queries to simulate, excluding warmup.
	Queries int
	// FanOut groups queries into batches of this size that arrive
	// simultaneously, modelling a partitioned request that fans out
	// to FanOut sub-requests and completes when the slowest responds
	// — the paper's motivating aggregation pattern ("the slower
	// servers typically dominate the response time"). 0 or 1 means
	// independent queries. Queries and Warmup must be multiples of
	// FanOut; Result.FanOutResponses then carries the per-batch
	// max-response times.
	FanOut int
	// Warmup queries are simulated before measurement starts, letting
	// queues reach steady state. They are excluded from all metrics.
	Warmup int
	// Source generates service times.
	Source ServiceSource
	// LB selects servers; defaults to RandomLB.
	LB LoadBalancer
	// Discipline orders each server's queue.
	Discipline Discipline
	// Batch parametrizes the Batch discipline (batch size, linger
	// window, size-dependent cost model); ignored — and unvalidated —
	// under every other discipline.
	Batch sched.BatchConfig
	// Connections is the number of client connections (round-robin
	// discipline only); defaults to 20.
	Connections int
	// ArrivalTimes, when set, replaces the Poisson arrival process
	// with an explicit non-decreasing schedule: query i arrives at
	// ArrivalTimes[i] (warmup queries included). Length must be at
	// least Queries+Warmup and FanOut at most 1. The sim-vs-live
	// batch-agreement tests use it to replay the exact instants a live
	// driver used, making batch membership comparable query by query
	// rather than only statistically.
	ArrivalTimes []float64
	// Seed drives all randomness.
	Seed uint64
	// PolicySeed, when non-zero, re-derives the policy-coin stream
	// from Seed XOR PolicySeed instead of from Seed alone, leaving the
	// arrival, service, placement, and connection streams untouched.
	// Graph leaves under a shard node use it (salted by
	// stats.ShardSalt) to give every shard the identical arrival
	// instants (same Seed) with independent reissue coins per shard —
	// the dependence structure of a live fan-out client running one
	// hedger per shard. Zero preserves the historical stream
	// derivation exactly.
	PolicySeed uint64
	// ServiceSeed is the same override for the service-time stream:
	// non-zero re-derives it from Seed XOR ServiceSeed. A Graph's
	// shard leaves set it per shard so stochastic sources (DistSource)
	// draw independent service times on every shard — a shard serves
	// its own slice of the data — instead of replaying shard 0's
	// draws; trace-backed sources ignore the stream entirely. Zero
	// preserves the historical derivation exactly.
	ServiceSeed uint64
	// SpeedFactors optionally gives each server a static service-time
	// multiplier (1 = nominal, 2 = half speed), modelling permanently
	// heterogeneous replicas — older hardware, a degraded disk, an
	// overloaded VM neighbour. Length must equal Servers when set.
	SpeedFactors []float64
	// Interference, when non-nil, models transient server slowdowns —
	// the background tasks, CPU shortages, and co-located work the
	// paper's introduction names as drivers of tail latency on real
	// testbeds. Each server independently alternates between normal
	// and slow states; requests that start service while the server
	// is slow take Factor times longer. Hedging pays precisely
	// because the replica serving the reissue is usually not slow at
	// the same moment.
	Interference *Interference
	// CancelOnComplete withdraws a query's outstanding copies as soon
	// as its first response arrives — Dean and Barroso's "tied
	// requests" optimization, an extension beyond the paper (which
	// lets redundant copies run to completion, wasting their service
	// time). Queued copies are dropped; a copy already in service is
	// not preempted. Note that cancelled copies yield no response
	// time, so the optimizer's RX/RY logs shrink accordingly.
	CancelOnComplete bool
	// Faults, when set, arms the chaos mirror: the live fault
	// injector's profile script replayed on virtual time, with an
	// optional per-server circuit breaker re-implementing
	// hedge.Breaker's transitions. See FaultPlan. Requires finite
	// Servers. Nil (the default) is a strict no-op — no chaos branch
	// touches the hot path.
	Faults *FaultPlan
	// FreshPerRun gives every successive Run its own random stream.
	// The default (false) applies common random numbers: every run
	// replays the identical arrival and service-time streams, so two
	// policies are compared on exactly the same sample path. With
	// heavy-tailed service times (the paper's Pareto(1.1) has
	// infinite variance) this variance reduction is what makes
	// policy comparisons and adaptive refinement converge at
	// practical sample sizes; policy coin flips still come from
	// their own stream and vary per policy.
	//
	// Because that draw (arrival instants, primary and reissue
	// service times, connections) is identical every run, a run does
	// not redraw it: it replays the values the previous run of the
	// same Cluster left in its pooled query records. Replay applies
	// only when all three hold: FreshPerRun is false; Source is a
	// DistSource (stateless sampling from the stream, unlike a
	// TraceSource or a graph leaf's masked source, whose service
	// times can change between runs); and the engine was not adopted
	// (AdoptState) since the draw. Results are bit-identical either
	// way. A DistSource's Dist must therefore sample from the RNG
	// alone, as every stats distribution does.
	FreshPerRun bool
}

// Interference parametrizes transient per-server slowdowns: slow
// periods begin at exponential rate Rate per server, last an
// exponentially distributed time with mean MeanDuration, and multiply
// the service times of requests starting during them by Factor.
type Interference struct {
	Rate         float64 // slow-period starts per unit time per server
	MeanDuration float64 // mean slow-period length
	Factor       float64 // service-time multiplier while slow, > 1
}

func (iv Interference) validate() error {
	if iv.Rate <= 0 || iv.MeanDuration <= 0 {
		return fmt.Errorf("cluster: interference rate %v and duration %v must be positive", iv.Rate, iv.MeanDuration)
	}
	if iv.Factor <= 1 {
		return fmt.Errorf("cluster: interference factor %v must exceed 1", iv.Factor)
	}
	return nil
}

func (c Config) validate() error {
	if c.Queries <= 0 {
		return fmt.Errorf("cluster: Queries=%d must be positive", c.Queries)
	}
	if c.Servers < 0 {
		return fmt.Errorf("cluster: Servers=%d must be non-negative", c.Servers)
	}
	if c.Servers > 0 && c.ArrivalTimes == nil && (c.ArrivalRate <= 0 || math.IsNaN(c.ArrivalRate)) {
		return fmt.Errorf("cluster: ArrivalRate=%v must be positive with finite servers", c.ArrivalRate)
	}
	if c.Servers == 0 && c.OnRequestComplete != nil {
		return fmt.Errorf("cluster: OnRequestComplete requires finite servers")
	}
	if c.ArrivalTimes != nil {
		if len(c.ArrivalTimes) < c.Queries+c.Warmup {
			return fmt.Errorf("cluster: %d arrival times for %d queries (+%d warmup)",
				len(c.ArrivalTimes), c.Queries, c.Warmup)
		}
		if c.FanOut > 1 {
			return fmt.Errorf("cluster: ArrivalTimes and FanOut=%d cannot be combined", c.FanOut)
		}
		for i := 1; i < c.Queries+c.Warmup; i++ {
			if c.ArrivalTimes[i] < c.ArrivalTimes[i-1] {
				return fmt.Errorf("cluster: ArrivalTimes must be non-decreasing (index %d: %v < %v)",
					i, c.ArrivalTimes[i], c.ArrivalTimes[i-1])
			}
		}
	}
	if c.Discipline == Batch {
		if err := c.Batch.Validate(); err != nil {
			return err
		}
	}
	if c.Source == nil {
		return fmt.Errorf("cluster: Source must be set")
	}
	if ts, ok := c.Source.(*TraceSource); ok && len(ts.Times) == 0 {
		return fmt.Errorf("cluster: TraceSource has no service times; record or generate a workload first")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("cluster: Warmup=%d must be non-negative", c.Warmup)
	}
	if c.Interference != nil {
		if err := c.Interference.validate(); err != nil {
			return err
		}
	}
	if c.FanOut < 0 {
		return fmt.Errorf("cluster: FanOut=%d must be non-negative", c.FanOut)
	}
	if c.FanOut > 1 {
		if c.Queries%c.FanOut != 0 || c.Warmup%c.FanOut != 0 {
			return fmt.Errorf("cluster: Queries=%d and Warmup=%d must be multiples of FanOut=%d",
				c.Queries, c.Warmup, c.FanOut)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Servers); err != nil {
			return err
		}
	}
	if c.SpeedFactors != nil {
		if len(c.SpeedFactors) != c.Servers {
			return fmt.Errorf("cluster: %d speed factors for %d servers", len(c.SpeedFactors), c.Servers)
		}
		for i, f := range c.SpeedFactors {
			if f <= 0 || math.IsNaN(f) {
				return fmt.Errorf("cluster: speed factor %v for server %d must be positive", f, i)
			}
		}
	}
	return nil
}

// Result is the detailed outcome of one simulated run. Its slices are
// freshly allocated per run (pre-sized from Config) and remain valid
// after subsequent runs of the same Cluster.
type Result struct {
	// Log has one record per measured (post-warmup) query.
	Log *trace.Log
	// Outcomes parallel Log for remediation-rate accounting.
	Outcomes []metrics.QueryOutcome
	// Pairs holds (primary, reissue) response-time pairs for measured
	// queries that were reissued.
	Pairs []rangequery.Point
	// ReissueRate counts reissues over measured queries.
	ReissueRate float64
	// Utilization is the measured per-server busy fraction over the
	// simulated duration (NaN for infinite servers).
	Utilization float64
	// Duration is the simulated time span.
	Duration float64
	// FanOutResponses holds, when Config.FanOut > 1, the response
	// time of each fan-out batch: the maximum over its sub-requests'
	// end-to-end responses.
	FanOutResponses []float64
	// Failed holds one record per measured query that ended with no
	// successful copy, in query order: its ID, Arrival and reissue
	// fields, with Response +Inf. FailureRate is len(Failed) over
	// measured queries. Failed queries have no Log record (they have
	// no response) but their dispatched reissues still count toward
	// ReissueRate — the live MeasuredSource counts dispatches the
	// same way. Empty without Config.Faults.
	Failed      []trace.Record
	FailureRate float64
	// FaultedCopies, StalledCopies, ReroutedCopies, and
	// RejectedCopies mirror the live injector's Snapshot accounting.
	FaultedCopies, StalledCopies, ReroutedCopies, RejectedCopies int
	// BreakerTrips and BreakerOpen are the per-server breaker-mirror
	// outcome: closed->open transition counts and whether each
	// server's breaker ended the run tripped (open or half-open). Nil
	// without a breaker-armed Config.Faults.
	BreakerTrips []int
	BreakerOpen  []bool
	// Batches logs every launched batch in launch order (warmup
	// included), Batch discipline only: the server it ran on and its
	// membership in admission order. The sim-vs-live agreement tests
	// compare it against the live replicas' batch logs.
	Batches []BatchRecord
}

// BatchRecord is one launched batch: where it ran and which request
// copies it served, in admission order.
type BatchRecord struct {
	Server  int
	Members []sched.Member
}

// Cluster is a reusable simulation harness. It implements
// reissue.System: each Run simulates the configured workload under the
// given policy with a fresh RNG stream. Runs reuse the cluster's
// pooled simulation state, so a Cluster must not execute two Runs
// concurrently.
type Cluster struct {
	cfg  Config
	runs uint64
	rs   *runState // pooled simulation state, reused across runs
}

// New validates the configuration and returns a Cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LB == nil {
		cfg.LB = RandomLB{}
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 20
	}
	return &Cluster{cfg: cfg}, nil
}

// Config returns the cluster's configuration.
//
//lint:allow deadexports the workload package's tests check option plumbing through the built configuration
func (c *Cluster) Config() Config { return c.cfg }

// AdoptState transfers prev's pooled simulation state — event slab,
// request arena, query records, server pool — into c, so a fresh
// Cluster starts allocation-warm instead of rebuilding its engine on
// the first run. The sweep harness uses it to keep one warm engine
// per worker while points construct their own Cluster values.
//
// Adoption moves the state: prev is left engine-less and lazily
// rebuilds if run again. Results are unaffected either way — every
// run re-derives its RNG streams from the Config seed and fully
// resets the pooled state, so an adopted engine replays the exact
// run a cold one would. Servers are rebuilt only when the adopting
// configuration changes their shape (count or discipline); all other
// pooled buffers carry over regardless of configuration.
func (c *Cluster) AdoptState(prev *Cluster) {
	if prev == nil || prev == c || prev.rs == nil || c.rs != nil {
		return
	}
	rs := prev.rs
	prev.rs = nil
	rs.cfg = &c.cfg
	rs.drawn = false
	n := c.cfg.Servers
	if n != len(rs.servers) || (n > 0 && (rs.servers[0].discipline != c.cfg.Discipline || rs.servers[0].bcfg != c.cfg.Batch)) {
		rs.buildServers(&c.cfg)
	}
	c.rs = rs
}

// Run implements reissue.System.
func (c *Cluster) Run(p reissue.Policy) reissue.RunResult {
	res := c.RunDetailed(p)
	out := reissue.RunResult{
		Primary:     res.Log.PrimaryTimes(),
		Reissue:     res.Log.ReissueTimes(),
		Pairs:       res.Pairs,
		Query:       res.Log.ResponseTimes(),
		ReissueRate: res.ReissueRate,
	}
	return out
}

// query tracks one logical query across its primary and reissue
// copies. Records live in the runState's pooled slice; requests refer
// to them by stable pointer (the slice is sized before any event
// fires and never grows mid-run).
type query struct {
	id       int
	measured bool
	draw

	done     bool
	response float64

	primaryDone   bool
	primaryResp   float64
	primaryServer int

	reissues     int
	reissueDelay float64
	reissueResp  float64
	reissueDone  bool

	// outstanding tracks dispatched copies for CancelOnComplete.
	outstanding []*request
}

// draw is one query's workload randomness: its arrival instant, the
// service times of its primary and of any reissue, and its client
// connection. It is drawn at schedule time, in query order, and kept
// in the pooled query record, from which RunDetailed replays it when
// the next run would draw the same values.
type draw struct {
	arrival      float64
	sPrim, sReis float64
	conn         int
}

// reqChunkShift sizes the request arena's chunks (512 records). The
// arena hands out stable pointers — chunks are never reallocated,
// only appended — so requests can be referenced across events while
// the backing memory is recycled run over run.
const reqChunkShift = 9

type reqArena struct {
	chunks [][]request
	n      int
}

func (a *reqArena) get() *request {
	ci, off := a.n>>reqChunkShift, a.n&(1<<reqChunkShift-1)
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]request, 1<<reqChunkShift))
	}
	idx := a.n
	a.n++
	r := &a.chunks[ci][off]
	*r = request{idx: int32(idx)}
	return r
}

func (a *reqArena) at(i int) *request {
	return &a.chunks[i>>reqChunkShift][i&(1<<reqChunkShift-1)]
}

func (a *reqArena) reset() { a.n = 0 }

// runState is a Cluster's pooled simulation machinery: the event
// list, query records, request arena, servers, and the shared typed
// event callbacks. One runState is built per Cluster and recycled by
// every run.
type runState struct {
	cfg *Config
	sim *des.Sim

	queries []query
	servers []*server
	lengths []int // published queue lengths, one slot per server
	arena   reqArena
	planBuf []float64
	timers  []timer // evaluate's per-query timer scratch

	policy    reissue.Policy
	policyRNG *stats.RNG
	lbRNG     *stats.RNG

	// batches is the current run's batch log (Batch discipline only).
	// It starts nil every run and is handed to the Result verbatim, so
	// logs survive later runs without copying.
	batches []BatchRecord

	// drawn reports that queries hold the workload draw of the
	// Cluster that owns this state, made by an earlier run that a
	// later run replays (see RunDetailed). AdoptState clears it.
	drawn bool

	// chaos is non-nil only while a Faults-configured run is active;
	// chaosPool is its pooled backing store.
	chaos     *chaosState
	chaosPool chaosState

	// Shared ArgEvent func values (one allocation each, at pool
	// construction) — the typed replacements for the per-query,
	// per-reissue, and per-toggle closures of the old controller.
	arriveFn    des.ArgEvent
	reissueFn   des.ArgEvent
	slowFn      des.ArgEvent
	chaosDoneFn des.ArgEvent
}

// state returns the cluster's pooled runState, reset for a new run.
func (c *Cluster) state() *runState {
	rs := c.rs
	if rs == nil {
		rs = &runState{cfg: &c.cfg, sim: des.New()}
		rs.arriveFn = rs.arrive
		rs.reissueFn = rs.reissueAt
		rs.slowFn = rs.setSlow
		rs.chaosDoneFn = rs.chaosComplete
		if c.cfg.Servers > 0 {
			rs.buildServers(&c.cfg)
		}
		c.rs = rs
	}
	rs.sim.Reset()
	rs.arena.reset()
	rs.batches = nil
	if c.cfg.Faults != nil {
		rs.chaosPool.reset(c.cfg.Faults, c.cfg.Servers)
		rs.chaos = &rs.chaosPool
	} else {
		rs.chaos = nil
	}
	total := c.cfg.Queries + c.cfg.Warmup
	if cap(rs.queries) < total {
		rs.queries = make([]query, total)
	} else {
		rs.queries = rs.queries[:total]
	}
	for i := range rs.servers {
		s := rs.servers[i]
		s.reset()
		if c.cfg.SpeedFactors != nil {
			s.baseSpeed = c.cfg.SpeedFactors[i]
		}
	}
	return rs
}

// recordBatch logs one launched batch's membership — the simulator's
// half of the batch-agreement evidence. Records are fresh per run
// (rs.batches starts nil) so results stay valid across runs.
func (rs *runState) recordBatch(server int, members []*request) {
	ms := make([]sched.Member, len(members))
	for i, r := range members {
		ms[i] = sched.Member{Query: r.q.id, Reissue: r.reissue}
	}
	rs.batches = append(rs.batches, BatchRecord{Server: server, Members: ms})
}

// buildServers makes cfg.Servers fresh servers, each publishing its
// queue length into its own slot of rs.lengths.
func (rs *runState) buildServers(cfg *Config) {
	n := cfg.Servers
	rs.servers = make([]*server, n)
	rs.lengths = make([]int, n)
	for i := range rs.servers {
		rs.servers[i] = newServer(i, cfg.Discipline, cfg.Batch, rs.sim, &rs.lengths[i], rs.onComplete, rs.recordBatch)
	}
}

// onComplete handles one finished request copy — it is the single
// completion callback shared by every server.
func (rs *runState) onComplete(r *request, now float64) {
	q := r.q
	if r.cancelled {
		// In-service when cancelled: finished anyway, but its
		// measurement was already forfeited.
		return
	}
	if rs.chaos != nil {
		if r.slowEdge > 1 && !r.deferred {
			// Slow fault: hold the completed copy for (Factor-1)x its
			// elapsed time before reporting it — the server has
			// already moved on, so capacity is untouched. This is the
			// virtual-time twin of the live injector's post-completion
			// stretch: both make response = Factor x (wait + service).
			r.deferred = true
			rs.sim.AfterArg((r.slowEdge-1)*(now-r.dispatch), rs.chaosDoneFn, int(r.idx), 0)
			return
		}
		// Success reports land at the (possibly stretched) completion
		// instant, mirroring the live injector reporting when the copy
		// returns to the hedger.
		rs.chaos.report(int(r.server), true, now)
	}
	rt := now - r.dispatch
	cfg := rs.cfg
	if cfg.OnRequestComplete != nil {
		cfg.OnRequestComplete(r.reissue, rt, now)
	}
	if r.reissue {
		if !q.reissueDone {
			q.reissueDone = true
			q.reissueResp = rt
		}
	} else {
		q.primaryDone = true
		q.primaryResp = rt
	}
	if !q.done {
		q.done = true
		q.response = now - q.arrival
		if cfg.CancelOnComplete {
			for _, other := range q.outstanding {
				if other != r && !other.inService {
					other.cancelled = true
				}
			}
		}
	}
}

// dispatch sends one request copy to a server, returning the chosen
// server index. Callers populate the request, including r.dispatch,
// before handing it over.
func (rs *runState) dispatch(r *request, now float64, exclude int) int {
	r.q.outstanding = append(r.q.outstanding, r)
	var idx int
	if qp, ok := rs.cfg.LB.(queryPlacer); ok {
		// Query-aware deterministic placement (HashedLB): the
		// capability interface is satisfied by value and pointer
		// forms alike, so no concrete-type special case here.
		reissues := 0
		if r.reissue {
			reissues = r.q.reissues
		}
		idx = qp.placeQuery(r.q.id, reissues, rs.cfg.Servers)
	} else {
		idx = rs.cfg.LB.Pick(rs.lbRNG, rs.lengths, exclude)
	}
	if rs.chaos != nil {
		routed, ok := rs.chaos.route(idx, now)
		if !ok {
			// Every server's breaker is open: the copy fails fast,
			// exactly like the live injector returning ErrBreakerOpen.
			rs.chaos.rejected++
			return idx
		}
		if routed != idx {
			rs.chaos.rerouted++
			idx = routed
		}
		out := fault.Decide(rs.chaos.plan.Profiles, idx, r.q.id, copyOrdinal(r))
		switch {
		case out.Fail:
			// Crash / flap / error-rate: the copy fails at dispatch and
			// never occupies the server; failures report immediately,
			// in deterministic event order.
			rs.chaos.failed++
			rs.chaos.report(idx, false, now)
			return idx
		case out.Stall:
			// The copy hangs forever: never enqueued, never completes.
			// Only its query's other copies can still answer.
			rs.chaos.stalled++
			return idx
		case out.Slow > 1:
			r.slowEdge = out.Slow
		}
		r.server = int32(idx)
	}
	rs.servers[idx].Enqueue(r, now)
	return idx
}

// chaosComplete fires at a slow-faulted copy's stretched completion
// instant and re-enters the ordinary completion path.
func (rs *runState) chaosComplete(now float64, reqIdx int, _ float64) {
	rs.onComplete(rs.arena.at(reqIdx), now)
}

// arrive fires when query qi's primary is dispatched. The reissue
// plan is sampled here (not at schedule time) so that policies whose
// parameters evolve during the run — the online adapter — see their
// current state; arrival events fire in query order, so the policy
// RNG stream is unaffected for static policies.
func (rs *runState) arrive(now float64, qi int, _ float64) {
	q := &rs.queries[qi]
	prim := rs.arena.get()
	prim.q = q
	prim.service = q.sPrim
	prim.dispatch = now
	prim.conn = q.conn
	q.primaryServer = rs.dispatch(prim, now, -1)
	// Arrivals fire in time order, so a fixed-delay plan's timers come
	// out sorted across queries and ride the event list's sorted lane;
	// the rare out-of-order timer falls back to the heap.
	for _, d := range rs.plan() {
		rs.sim.AtSorted(now+d, rs.reissueFn, qi, d)
	}
}

// plan samples the policy's reissue schedule, allocation-free when
// the policy implements the PlanAppender fast path (all the
// repository's families do); foreign policies fall back to Plan.
func (rs *runState) plan() []float64 {
	if pa, ok := rs.policy.(reissue.PlanAppender); ok {
		rs.planBuf = pa.AppendPlan(rs.policyRNG, rs.planBuf[:0])
		return rs.planBuf
	}
	return rs.policy.Plan(rs.policyRNG)
}

// timer is one planned reissue of an infinite-server query: its due
// time and its delay.
type timer struct{ t, d float64 }

// evaluate settles query q in closed form on infinite servers and
// returns the latest event time its run reaches. With no queueing a
// copy completes at its dispatch time plus its service time, so the
// event simulation of the query reduces to comparisons, made here with
// the same floating-point operations:
//
//   - the primary completes at a+sPrim;
//   - a timer due at a+d sends a reissue only if the query is still
//     unanswered. On a tie with the primary's completion the primary
//     wins (its event was scheduled first); on a tie with an earlier
//     reissue's completion the timer wins (that completion was
//     scheduled after every timer);
//   - timers are due in (time, plan index) order, and every reissue
//     has the same service time, so the first one sent completes
//     first and answers for the reissue side.
//
// The policy is sampled through rs.plan, in query order, as arrive
// samples it.
func (rs *runState) evaluate(q *query) float64 {
	a := q.arrival
	tp := a + q.sPrim
	q.primaryDone, q.primaryResp = true, tp-a
	ts := rs.timers[:0]
	for _, d := range rs.plan() {
		t := a + d
		if !(t >= a) {
			panic(fmt.Sprintf("cluster: reissue delay %v is negative or NaN", d))
		}
		ts = append(ts, timer{t, d})
	}
	// A stable insertion sort: linear on the sorted plans every policy
	// family yields.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].t < ts[j-1].t; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	rs.timers = ts
	last := tp
	firstReissue := math.Inf(1) // completion time of the first reissue sent
	for _, tm := range ts {
		if tm.t > last {
			last = tm.t
		}
		if tm.t >= tp || firstReissue < tm.t {
			continue
		}
		q.reissues++
		done := tm.t + q.sReis
		if q.reissues == 1 {
			q.reissueDelay, q.reissueResp, q.reissueDone = tm.d, done-tm.t, true
			firstReissue = done
		}
		if done > last {
			last = done
		}
	}
	q.done, q.response = true, math.Min(tp, firstReissue)-a
	return last
}

// reissueAt fires at one of query qi's planned reissue delays.
func (rs *runState) reissueAt(now float64, qi int, delay float64) {
	q := &rs.queries[qi]
	// The paper's client checks a completion flag before sending the
	// reissue.
	if q.done {
		return
	}
	q.reissues++
	if q.reissues == 1 {
		q.reissueDelay = delay
	}
	re := rs.arena.get()
	re.q = q
	re.service = q.sReis
	re.dispatch = now
	re.conn = q.conn
	re.reissue = true
	rs.dispatch(re, now, q.primaryServer)
}

// setSlow toggles a server's interference slowdown factor.
func (rs *runState) setSlow(_ float64, si int, factor float64) {
	rs.servers[si].slowFactor = factor
}

// scheduleInterference precomputes each server's slow-period toggle
// chain up to a horizon past the last arrival so the event list
// drains.
func (rs *runState) scheduleInterference(horizon float64, root *stats.RNG) {
	iv := rs.cfg.Interference
	if iv == nil {
		return
	}
	ivRNG := root.Split(6)
	for si := range rs.servers {
		t := ivRNG.ExpFloat64() / iv.Rate
		for t < horizon {
			start, dur := t, ivRNG.ExpFloat64()*iv.MeanDuration
			rs.sim.AtArg(start, rs.slowFn, si, iv.Factor)
			rs.sim.AtArg(start+dur, rs.slowFn, si, 1)
			t = start + dur + ivRNG.ExpFloat64()/iv.Rate
		}
	}
}

// RunDetailed simulates one run under policy p and returns the full
// measurement set.
func (c *Cluster) RunDetailed(p reissue.Policy) *Result {
	c.runs++
	cfg := c.cfg
	cfg.Source.Reset()
	seed := cfg.Seed
	if cfg.FreshPerRun {
		//lint:allow saltdiscipline pre-Mix64 reseed sequence pinned by the figure goldens and sim-live agreement tests
		seed += c.runs * 0x9e3779b9
	}
	rs := c.state()
	// A run that replays the workload draw (see Config.FreshPerRun)
	// reads no arrival, service or connection stream.
	replay := rs.drawn
	root := stats.NewRNG(seed)
	arrivalRNG := drawStream(root, 1, replay)
	serviceRNG := drawStream(root, 2, replay)
	if cfg.ServiceSeed != 0 && !replay {
		serviceRNG = stats.NewRNG(seed ^ cfg.ServiceSeed).Split(2)
	}
	policyRNG := root.Split(3)
	if cfg.PolicySeed != 0 {
		// XOR keeps FreshPerRun's per-run seed evolution (and common
		// random numbers without it) while decoupling the overridden
		// stream from the shared arrival seed.
		policyRNG = stats.NewRNG(seed ^ cfg.PolicySeed).Split(3)
	}
	lbRNG := root.Split(4)
	connRNG := drawStream(root, 5, replay)

	rs.policy = p
	rs.policyRNG = policyRNG
	rs.lbRNG = lbRNG
	total := cfg.Queries + cfg.Warmup

	// Schedule the open-loop arrival process. All workload randomness
	// (arrival gaps, service times, connections) is drawn here in
	// query order — the same stream order as the closure-based
	// controller — and parked in the pooled query records. Under
	// common random numbers every run draws the same values, so a
	// run after the first replays them from the records instead; the
	// replay rule is on Config.FreshPerRun.
	at, last := 0.0, 0.0
	fan := cfg.FanOut
	if fan < 1 {
		fan = 1
	}
	for i := 0; i < total; i++ {
		q := &rs.queries[i]
		d := q.draw
		if !replay {
			if cfg.ArrivalTimes != nil {
				// Explicit schedule: replay the caller's instants verbatim
				// (the live-agreement tests' shared trace).
				at = cfg.ArrivalTimes[i]
			} else if cfg.Servers > 0 && i > 0 && i%fan == 0 {
				// Sub-requests within a fan-out batch share one arrival time.
				rate := cfg.ArrivalRate
				if cfg.RateMultiplier != nil {
					m := cfg.RateMultiplier(at)
					if m <= 0 || math.IsNaN(m) {
						panic(fmt.Sprintf("cluster: RateMultiplier(%v) = %v must be positive", at, m))
					}
					rate *= m
				}
				at += arrivalRNG.ExpFloat64() / rate * float64(fan)
			}
			d.arrival = at
			d.sPrim, d.sReis = cfg.Source.Sample(serviceRNG)
			d.conn = connRNG.Intn(cfg.Connections)
		}
		at = d.arrival
		*q = query{id: i, measured: i >= cfg.Warmup, draw: d, outstanding: q.outstanding[:0]}
		if cfg.Servers == 0 {
			// Infinite servers: queries do not interact, so each one is
			// settled as soon as it is drawn, with no event list.
			last = math.Max(last, rs.evaluate(q))
			continue
		}
		// Arrival times are non-decreasing, so the whole arrival
		// process rides the event list's O(1) monotone lane and stays
		// out of the heap.
		rs.sim.AtMonotone(at, rs.arriveFn, i, 0)
	}
	_, stateless := cfg.Source.(DistSource)
	rs.drawn = stateless && !cfg.FreshPerRun

	if cfg.Servers > 0 {
		rs.scheduleInterference(at*1.25, root)
		rs.sim.Run()
		last = rs.sim.Now()
	}

	// Collect measurements over post-warmup queries into freshly
	// allocated, exactly-sized result slices (the pooled state stays
	// private; results must survive later runs).
	res := &Result{Log: &trace.Log{Records: make([]trace.Record, 0, cfg.Queries)}}
	res.Outcomes = make([]metrics.QueryOutcome, 0, cfg.Queries)
	npairs := 0
	for i := cfg.Warmup; i < total; i++ {
		q := &rs.queries[i]
		if q.reissues > 0 && q.primaryDone && q.reissueDone {
			npairs++
		}
	}
	if npairs > 0 {
		res.Pairs = make([]rangequery.Point, 0, npairs)
	}
	reissued := 0
	for i := 0; i < total; i++ {
		q := &rs.queries[i]
		if !q.measured {
			continue
		}
		rec := trace.Record{
			ID:          int64(q.id),
			Arrival:     q.arrival,
			Primary:     q.primaryResp,
			PrimaryDone: q.primaryDone,
			Response:    q.response,
		}
		if q.reissues > 0 {
			reissued += q.reissues
			rec.Reissued = true
			rec.Reissues = q.reissues
			rec.ReissueDelay = q.reissueDelay
			rec.Reissue = q.reissueResp
			rec.ReissueDone = q.reissueDone
		}
		if rs.chaos != nil && !q.done {
			// No copy of this query ever answered — a chaos failure.
			// It has no response to log, but its dispatched reissues
			// still count (the live MeasuredSource counts dispatches
			// whether or not the copy later succeeds).
			rec.Response = math.Inf(1)
			res.Failed = append(res.Failed, rec)
			continue
		}
		outcome := metrics.QueryOutcome{Primary: q.primaryResp}
		if q.reissues > 0 {
			outcome.Reissued = true
			outcome.ReissueDelay = q.reissueDelay
			outcome.Reissue = q.reissueResp
			outcome.ReissueCompleted = q.reissueDone
			if q.primaryDone && q.reissueDone {
				res.Pairs = append(res.Pairs, rangequery.Point{X: q.primaryResp, Y: q.reissueResp})
			}
		}
		res.Log.Add(rec)
		res.Outcomes = append(res.Outcomes, outcome)
	}
	res.ReissueRate = float64(reissued) / float64(cfg.Queries)
	if rs.chaos != nil {
		res.FailureRate = float64(len(res.Failed)) / float64(cfg.Queries)
		res.FaultedCopies = rs.chaos.failed
		res.StalledCopies = rs.chaos.stalled
		res.ReroutedCopies = rs.chaos.rerouted
		res.RejectedCopies = rs.chaos.rejected
		if rs.chaos.plan.BreakerThreshold > 0 {
			res.BreakerTrips = make([]int, len(rs.chaos.servers))
			res.BreakerOpen = make([]bool, len(rs.chaos.servers))
			for i := range rs.chaos.servers {
				res.BreakerTrips[i] = rs.chaos.servers[i].trips
				res.BreakerOpen[i] = rs.chaos.servers[i].open
			}
		}
	}
	if fan > 1 {
		res.FanOutResponses = make([]float64, 0, cfg.Queries/fan)
		for i := cfg.Warmup; i < total; i += fan {
			max := 0.0
			for j := i; j < i+fan; j++ {
				if rs.queries[j].response > max {
					max = rs.queries[j].response
				}
			}
			res.FanOutResponses = append(res.FanOutResponses, max)
		}
	}
	res.Batches = rs.batches
	res.Duration = last
	if cfg.Servers > 0 && res.Duration > 0 {
		var busy float64
		for _, s := range rs.servers {
			busy += s.busyTime
		}
		res.Utilization = busy / (res.Duration * float64(cfg.Servers))
	} else {
		res.Utilization = math.NaN()
	}
	return res
}

// drawStream splits root's workload-draw stream with the given label,
// or, when the run replays the draw, only advances root as the split
// would, so the streams split after it are unchanged and no generator
// is allocated.
func drawStream(root *stats.RNG, label uint64, replay bool) *stats.RNG {
	if replay {
		root.Uint64()
		return nil
	}
	return root.Split(label)
}

// ArrivalRateForUtilization returns the Poisson arrival rate that
// loads n servers to the target utilization rho given the mean
// service time: lambda = rho * n / E[S].
func ArrivalRateForUtilization(rho float64, servers int, meanService float64) float64 {
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("cluster: utilization %v outside (0, 1)", rho))
	}
	if servers <= 0 || meanService <= 0 {
		panic("cluster: servers and mean service time must be positive")
	}
	return rho * float64(servers) / meanService
}
