// Package backend turns the repository's in-process workloads — the
// Redis-like kvstore and the Lucene-like searchengine — into live
// replicated services a hedge.Client can issue real concurrent
// requests against.
//
// Each replica is a single-threaded server, exactly like the paper's
// Redis and Lucene testbed processes: requests queue on the replica,
// the replica executes the query's real computation (an actual SINTER
// or index search), and it stays busy for the workload's calibrated
// model service time scaled to wall clock by Config.Unit. A copy that
// has started service always finishes — the same non-preemption rule
// the cluster simulator applies — while a copy still queued is
// reclaimable through context cancellation.
//
// Queueing itself is NOT implemented here: each replica's serve loop
// drains the shared pure scheduling core (internal/sched), the same
// Queue the cluster simulator's servers drive, so admission order,
// dequeue order, and batch membership are decided by identical code
// in both worlds. Config.Discipline selects the discipline
// (historically the implicit one-slot FIFO; now any of the
// simulator's, including sched.Batch with linger and a
// size-dependent cost model). See DESIGN.md, "Serving disciplines &
// batched execution".
//
// Because every replica serves the identical data, a reissue executes
// the same work as the primary and gets the same model service time:
// the strongest service-time correlation, matching the simulator's
// TraceSource. The package exposes the model times so callers can run
// the simulator on the very same trace and cross-validate live
// measurements against simulated ones at matched load.
package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/sched"
	"repro/internal/searchengine"
	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge"
)

// Config parametrizes a live replicated backend.
type Config struct {
	// Replicas is the number of identical single-threaded servers.
	Replicas int
	// Unit is the wall-clock duration of one model millisecond.
	// Shrinking it speeds up experiments without changing queueing
	// behaviour; it must match the hedge.Config.Unit of the client
	// issuing the requests. Default time.Millisecond.
	Unit time.Duration
	// SpeedFactors optionally gives each replica a static service-
	// time multiplier (1 = nominal, 2.5 = 2.5x slower), modelling the
	// permanently heterogeneous hardware of real fleets — identical
	// semantics to the simulator's cluster.Config.SpeedFactors.
	// Heterogeneity is the canonical reason hedging pays: a request
	// stuck behind a slow replica's queue is rescued by its reissue
	// landing on a fast one. Length must equal Replicas when set.
	SpeedFactors []float64
	// MinServiceMS, when positive, clamps every model service time to
	// at least this many model milliseconds. A scaled-down replay
	// cannot represent holds below the kernel's sleep floor
	// (SleepResponse.Floor): below it the floor applies after the
	// replica's speed factor while a simulator's trace scaling
	// applies before, and the two systems silently diverge. Clamping
	// the trace above the floor keeps the sleep response linear so
	// live and simulated runs see the same workload.
	MinServiceMS float64
	// Discipline orders each replica's queue — the same disciplines
	// (and the same scheduling core) as the simulator's
	// cluster.Config.Discipline. The zero value is FIFO, the
	// pre-refactor behaviour.
	Discipline sched.Discipline
	// Batch parametrizes the sched.Batch discipline (batch size,
	// linger window in model milliseconds, size-dependent cost
	// model); ignored under every other discipline.
	Batch sched.BatchConfig
	// Connections is the round-robin discipline's connection count:
	// query i is assigned connection i mod Connections. Defaults to
	// 20, matching the simulator's default (which draws connections
	// from an RNG stream rather than round-robin assignment — the one
	// documented divergence between the worlds' connection models).
	Connections int
	// BatchLog, when non-nil, receives every launched batch's
	// membership (Batch discipline only). The sim-vs-live agreement
	// tests compare it against cluster.Result.Batches.
	BatchLog *BatchLog
}

func (c Config) withDefaults() (Config, error) {
	if c.Replicas <= 0 {
		return c, fmt.Errorf("backend: Replicas=%d must be positive", c.Replicas)
	}
	if c.Unit < 0 {
		return c, fmt.Errorf("backend: negative Unit %v", c.Unit)
	}
	if c.Unit == 0 {
		c.Unit = time.Millisecond
	}
	if c.SpeedFactors != nil {
		if len(c.SpeedFactors) != c.Replicas {
			return c, fmt.Errorf("backend: %d speed factors for %d replicas", len(c.SpeedFactors), c.Replicas)
		}
		for i, f := range c.SpeedFactors {
			if f <= 0 {
				return c, fmt.Errorf("backend: speed factor %v for replica %d must be positive", f, i)
			}
		}
	}
	if c.Discipline == sched.Batch {
		if err := c.Batch.Validate(); err != nil {
			return c, err
		}
	}
	if c.Connections <= 0 {
		c.Connections = 20
	}
	return c, nil
}

// BatchRecord is one launched live batch: the replica it ran on and
// its membership in admission order — the live twin of
// cluster.BatchRecord.
type BatchRecord struct {
	Replica int
	Members []sched.Member
}

// BatchLog collects the batches a cluster's replicas launch. One log
// can be shared by several Clusters (single-replica fleets behind a
// transport); Records returns launches in per-replica launch order,
// globally ordered by launch time only as far as the wall clock
// serialized them.
type BatchLog struct {
	mu   sync.Mutex
	recs []BatchRecord
}

func (l *BatchLog) add(replica int, members []*pending) {
	ms := make([]sched.Member, len(members))
	for i, p := range members {
		ms[i] = sched.Member{Query: p.query, Reissue: p.reissue}
	}
	l.mu.Lock()
	l.recs = append(l.recs, BatchRecord{Replica: replica, Members: ms})
	l.mu.Unlock()
}

// Records returns a snapshot of the logged batches.
func (l *BatchLog) Records() []BatchRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]BatchRecord, len(l.recs))
	copy(out, l.recs)
	return out
}

// Reset clears the log for a fresh run.
func (l *BatchLog) Reset() {
	l.mu.Lock()
	l.recs = l.recs[:0]
	l.mu.Unlock()
}

// pending is one live request waiting on (or being served by) a
// replica — the live twin of the simulator's request record, queued
// through the same sched.Queue code path. A copy that finds its
// replica idle never needs one.
type pending struct {
	query   int
	reissue bool
	// modelMS, exec and idx are the copy's work and v, err its result,
	// all used only under Batch, where the serve loop runs the work.
	modelMS float64
	exec    func(i int) (any, error)
	idx     int
	v       any
	err     error
	// cancelled marks a queued copy withdrawn after its context ended;
	// the server drops it lazily when popped, exactly like the
	// simulator's cancellation rule. Guarded by the replica's mu.
	cancelled bool
	inService bool
	// started (single-serve disciplines) is closed when the server
	// hands this copy the thread; done (Batch) is closed when its
	// batch's hold completes.
	started chan struct{}
	done    chan struct{}
}

// replica is one single-threaded server whose queue state lives in
// the shared scheduling core. Under the single-serve disciplines the
// server "thread" is a baton the caller goroutines pass through the
// core: an arrival to an idle replica starts its hold directly (zero
// handoff — the same fast path as the pre-refactor slot channel, so
// live latencies don't grow a dispatch hop the simulator doesn't
// model), and a finishing caller pops the next copy in discipline
// order and wakes exactly that waiter. Under Batch a lazily spawned
// serve-loop goroutine coordinates the linger window and serves whole
// batches; it exists only while the queue is non-empty.
type replica struct {
	id    int
	speed float64 // static service-time multiplier, 1 = nominal
	unit  time.Duration
	disc  sched.Discipline
	bcfg  sched.BatchConfig
	log   *BatchLog // nil disables batch-membership logging

	mu      sync.Mutex
	q       *sched.Queue[*pending]
	busy    bool          // single-serve: a caller holds the server thread
	serving bool          // Batch: serve-loop goroutine alive
	fill    chan struct{} // signals a lingering batch that it filled
	scratch []*pending    // PopBatch destination, reused per launch
	linger  *time.Timer   // Batch linger window, reused by the serve loop
}

func newReplica(id int, speed float64, cfg Config) *replica {
	return &replica{
		id: id, speed: speed, unit: cfg.Unit,
		disc: cfg.Discipline, bcfg: cfg.Batch, log: cfg.BatchLog,
		q:    sched.MustQueue[*pending](sched.Config{Discipline: cfg.Discipline, Batch: cfg.Batch}),
		fill: make(chan struct{}, 1),
	}
}

// serve executes exec(idx) on the replica: wait for the server thread
// in discipline order (cancellable), then hold it for the model
// service time, running the real computation inside the hold — the
// model time was calibrated from that computation, so the two overlap
// rather than add. Service is not preempted once started, matching
// the simulator's cancellation rule: a context that ends while the
// copy is still queued withdraws it (lazily — it is discarded when
// popped) and serve returns the context's error, but a copy in
// service runs to completion and serve returns exec's result.
//
// The hold uses a plain time.Sleep, so it inherits the kernel's
// timer resolution: short holds are rounded up to the sleep floor
// and long ones overshoot slightly. SleepResponse/EffectiveModelTimes
// measure that response so the simulator can be driven with the
// service times the replicas actually deliver.
func (r *replica) serve(ctx context.Context, modelMS float64, query int, reissue bool, conn int,
	exec func(i int) (any, error), idx int) (any, error) {
	if r.disc == sched.Batch {
		return r.serveBatched(ctx, modelMS, query, reissue, conn, exec, idx)
	}
	r.mu.Lock()
	if !r.busy {
		// Idle server: take the thread directly, no handoff — keeping
		// the live dispatch path as short as the pre-refactor slot
		// channel's (an extra wakeup here measurably suppresses live
		// reissue rates on small machines).
		r.busy = true
		r.mu.Unlock()
	} else {
		p := &pending{query: query, reissue: reissue, started: make(chan struct{})}
		r.q.Push(p, reissue, conn)
		r.mu.Unlock()
		select {
		case <-p.started:
		case <-ctx.Done():
			r.mu.Lock()
			if !p.inService {
				p.cancelled = true
				r.mu.Unlock()
				return nil, ctx.Err()
			}
			// The baton arrived between cancellation and the lock:
			// this copy holds the server now, so it must serve.
			r.mu.Unlock()
			<-p.started
		}
	}
	deadline := time.Now().Add(time.Duration(modelMS * r.speed * float64(r.unit)))
	v, err := exec(idx)
	if rem := time.Until(deadline); rem > 0 {
		time.Sleep(rem)
	}
	r.release()
	return v, err
}

// release passes the server thread to the next live queued copy in
// discipline order, or parks it idle when none waits.
func (r *replica) release() {
	r.mu.Lock()
	for {
		x, ok := r.q.Pop()
		if !ok {
			r.busy = false
			break
		}
		if x.cancelled {
			continue
		}
		x.inService = true
		close(x.started)
		break
	}
	r.mu.Unlock()
}

// serveBatched admits the copy to the scheduling core and waits for
// the batch serve loop (spawned lazily, alive only while the queue is
// non-empty) to run it inside a batch.
func (r *replica) serveBatched(ctx context.Context, modelMS float64, query int, reissue bool, conn int,
	exec func(i int) (any, error), idx int) (any, error) {
	p := &pending{
		query: query, reissue: reissue,
		modelMS: modelMS, exec: exec, idx: idx,
		done: make(chan struct{}),
	}
	r.mu.Lock()
	r.q.Push(p, reissue, conn)
	if !r.serving {
		r.serving = true
		go r.loop()
	} else if r.q.Waiting() >= r.bcfg.Size {
		// A lingering underfull batch just filled: wake the loop early.
		select {
		case r.fill <- struct{}{}:
		default:
		}
	}
	r.mu.Unlock()

	select {
	case <-p.done:
		return p.v, p.err
	case <-ctx.Done():
	}
	r.mu.Lock()
	if !p.inService {
		p.cancelled = true
		r.mu.Unlock()
		return nil, ctx.Err()
	}
	r.mu.Unlock()
	// Already in service: non-preemption — wait out the hold.
	<-p.done
	return p.v, p.err
}

// loop is the Batch replica's server thread. It drains the scheduling
// core until the queue is empty, then exits; the next admission
// respawns it. Invariant: r.mu held at the top of every iteration.
func (r *replica) loop() {
	r.mu.Lock()
	for {
		if r.q.Waiting() == 0 {
			r.serving = false
			r.mu.Unlock()
			return
		}
		r.serveBatch()
	}
}

// serveBatch runs one Batch-discipline cycle: linger until the batch
// fills or the window expires, pop the membership from the core, and
// hold the server for the size-dependent service time — the same
// window semantics as the simulator's considerLaunch/lingerFire, with
// the fill channel playing the role of the early-launch path and the
// timer the role of the linger event. Called with r.mu held; returns
// with it held.
//
// One timer serves every wait. A fill wakeup stops it and drains a
// fired value without blocking; a value sent after that drain (the
// timer firing concurrently with the fill) can only wake a later
// wait early, and every wait re-checks the fill level and the
// remaining window before serving, so membership is unaffected.
func (r *replica) serveBatch() {
	if r.q.Waiting() < r.bcfg.Size && r.bcfg.LingerMS > 0 {
		windowEnd := time.Now().Add(time.Duration(r.bcfg.LingerMS * float64(r.unit)))
		for r.q.Waiting() < r.bcfg.Size {
			rem := time.Until(windowEnd)
			if rem <= 0 {
				break
			}
			r.mu.Unlock()
			if r.linger == nil {
				r.linger = time.NewTimer(rem)
			} else {
				r.linger.Reset(rem)
			}
			select {
			case <-r.fill:
				if !r.linger.Stop() {
					select {
					case <-r.linger.C:
					default:
					}
				}
			case <-r.linger.C:
			}
			r.mu.Lock()
		}
	}
	r.scratch = r.q.PopBatch(r.scratch[:0], r.bcfg.Size, pendingLive)
	batch := r.scratch
	if len(batch) == 0 {
		return
	}
	maxMS := 0.0
	for _, p := range batch {
		p.inService = true
		if p.modelMS > maxMS {
			maxMS = p.modelMS
		}
	}
	if r.log != nil {
		r.log.add(r.id, batch)
	}
	r.mu.Unlock()
	svc := r.bcfg.Cost.Service(maxMS, len(batch)) * r.speed * float64(r.unit)
	deadline := time.Now().Add(time.Duration(svc))
	for _, p := range batch {
		p.v, p.err = p.exec(p.idx)
	}
	if rem := time.Until(deadline); rem > 0 {
		time.Sleep(rem)
	}
	for _, p := range batch {
		close(p.done)
	}
	r.mu.Lock()
}

func pendingLive(p *pending) bool { return !p.cancelled }

// SleepResponse is the measured response of time.Sleep on this
// machine: a request to sleep d actually sleeps about
// max(Floor, d+Overshoot). On kernels with ~1 ms timer resolution the
// floor dominates every sub-millisecond hold, so a scaled-down
// workload's effective service times differ from its nominal ones in
// a way any live-vs-simulator comparison must account for.
type SleepResponse struct {
	Floor     time.Duration // minimum achievable sleep
	Overshoot time.Duration // extra time on top of long sleeps
}

// Apply returns the duration a requested sleep of d actually takes.
func (sr SleepResponse) Apply(d time.Duration) time.Duration {
	if eff := d + sr.Overshoot; eff > sr.Floor {
		return eff
	}
	return sr.Floor
}

var (
	sleepOnce sync.Once
	sleepResp SleepResponse
)

// MeasureSleepResponse measures the machine's sleep response once per
// process (a few tens of milliseconds of one-time calibration). Each
// statistic is a median over repeated sleeps, not a mean: the
// calibration races whatever else the process is doing, and a single
// GC pause or scheduler stall inside one sample would otherwise
// inflate the measured floor severalfold — poisoning every effective
// trace derived from it for the rest of the process.
func MeasureSleepResponse() SleepResponse {
	sleepOnce.Do(func() {
		measure := func(d time.Duration, n int) time.Duration {
			samples := make([]time.Duration, n)
			for i := range samples {
				t0 := time.Now()
				time.Sleep(d)
				samples[i] = time.Since(t0)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			return samples[n/2]
		}
		// ~130 ms of one-time calibration: enough samples that the
		// median is stable process to process — every effective trace
		// (and through it every sim-side agreement statistic) inherits
		// this measurement, so its run-to-run jitter is worth buying
		// down.
		const long = 3 * time.Millisecond
		sleepResp = SleepResponse{
			Floor:     measure(50*time.Microsecond, 31),
			Overshoot: measure(long, 31) - long,
		}
		if sleepResp.Overshoot < 0 {
			sleepResp.Overshoot = 0
		}
	})
	return sleepResp
}

// Cluster is a set of identical single-threaded replicas serving a
// recorded query trace.
type Cluster struct {
	cfg      Config
	replicas []*replica
	times    []float64
	exec     func(i int) (any, error)
}

func newCluster(cfg Config, times []float64, exec func(i int) (any, error)) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("backend: empty workload")
	}
	if cfg.MinServiceMS < 0 {
		return nil, fmt.Errorf("backend: negative MinServiceMS %v", cfg.MinServiceMS)
	}
	if cfg.MinServiceMS > 0 {
		clamped := make([]float64, len(times))
		for i, t := range times {
			if t < cfg.MinServiceMS {
				t = cfg.MinServiceMS
			}
			clamped[i] = t
		}
		times = clamped
	}
	c := &Cluster{cfg: cfg, times: times, exec: exec}
	for i := 0; i < cfg.Replicas; i++ {
		speed := 1.0
		if cfg.SpeedFactors != nil {
			speed = cfg.SpeedFactors[i]
		}
		c.replicas = append(c.replicas, newReplica(i, speed, cfg))
	}
	return c, nil
}

// NewCustom builds a live replicated backend over an arbitrary
// workload: times[i] is query i's model service time in milliseconds
// and exec runs query i's real computation inside the hold. It is the
// seam the named constructors (NewKV, NewSearch) are built on,
// exported so new tiers and workloads — a cache tier answering from
// precomputed results, a mock fleet in a test — get replicas with
// exactly the same queueing, speed-factor, and non-preemption
// semantics without this package having to know the workload type.
func NewCustom(times []float64, exec func(i int) (any, error), cfg Config) (*Cluster, error) {
	if exec == nil {
		return nil, fmt.Errorf("backend: NewCustom needs an executor")
	}
	return newCluster(cfg, times, exec)
}

// NewKV builds a live replicated kvstore backend: every replica
// serves the same generated store, and requests execute real
// set intersections.
func NewKV(w *kvstore.Workload, cfg Config) (*Cluster, error) {
	if w == nil || len(w.Queries) == 0 {
		return nil, fmt.Errorf("backend: nil or empty kvstore workload")
	}
	return newCluster(cfg, w.Times, func(i int) (any, error) {
		q := w.Queries[i]
		set, _ := w.Store.SInter(q.A, q.B)
		return len(set), nil
	})
}

// NewSearch builds a live replicated searchengine backend: every
// replica serves the same inverted index, and requests execute real
// top-K searches.
func NewSearch(w *searchengine.Workload, cfg Config) (*Cluster, error) {
	if w == nil || len(w.Queries) == 0 {
		return nil, fmt.Errorf("backend: nil or empty searchengine workload")
	}
	return newCluster(cfg, w.Times, func(i int) (any, error) {
		res := w.Index.Search(w.Queries[i], 10)
		return len(res.Hits), nil
	})
}

// NumQueries returns the length of the query trace.
func (c *Cluster) NumQueries() int { return len(c.times) }

// Replicas returns the number of replicas.
func (c *Cluster) Replicas() int { return len(c.replicas) }

// SpeedFactors returns each replica's service-time multiplier —
// always Replicas() entries, 1 for nominal replicas — so callers
// simulating this backend configure the simulator from the backend
// itself rather than re-deriving the topology.
func (c *Cluster) SpeedFactors() []float64 {
	out := make([]float64, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.speed
	}
	return out
}

// ModelTimes returns the trace of model service times in
// milliseconds, in query order.
func (c *Cluster) ModelTimes() []float64 { return c.times }

// EffectiveModelTimes returns the service times the replicas actually
// deliver, in model milliseconds: the nominal trace passed through
// the machine's measured sleep response at this cluster's Unit. Feed
// this trace to the simulator's TraceSource when cross-validating
// live measurements against simulated ones — it is the live-system
// calibration step, the same role the paper's testbed measurements
// play for its simulator.
//
// The transform is applied to the nominal per-query time; a
// simulator multiplying it by a replica speed factor s then carries
// s times the sleep Overshoot where the live replica incurs it once,
// a second-order bias of (s-1)·Overshoot per slow-replica request
// (about 2% of a slow hold at the default configuration). Clamping
// with MinServiceMS removes the much larger Floor nonlinearity; the
// residual Overshoot term is accepted and is one reason agreement
// checks compare rates with tolerances rather than exactly.
func (c *Cluster) EffectiveModelTimes() []float64 {
	sr := MeasureSleepResponse()
	out := make([]float64, len(c.times))
	for i, t := range c.times {
		out[i] = float64(sr.Apply(time.Duration(t*float64(c.cfg.Unit)))) / float64(c.cfg.Unit)
	}
	return out
}

// MeanServiceMS returns the mean model service time, the quantity
// that converts a target utilization into an arrival rate.
func (c *Cluster) MeanServiceMS() float64 {
	var sum float64
	for _, t := range c.times {
		sum += t
	}
	return sum / float64(len(c.times))
}

// FleetArrivalRate returns the open-loop Poisson arrival rate
// (queries per model millisecond) that loads a fleet of the given
// size to utilization rho, the same formula the simulator uses:
// rho * replicas / E[S]. Use it when the fleet is not one Cluster —
// e.g. single-replica clusters behind the HTTP transport — with the
// mean of the (clamped) trace the replicas actually serve.
func FleetArrivalRate(rho float64, replicas int, meanServiceMS float64) float64 {
	return rho * float64(replicas) / meanServiceMS
}

// ArrivalRate returns the open-loop Poisson arrival rate that loads
// this cluster to utilization rho; see FleetArrivalRate.
func (c *Cluster) ArrivalRate(rho float64) float64 {
	return FleetArrivalRate(rho, len(c.replicas), c.MeanServiceMS())
}

// Source produces the per-query request functions a hedge.Client
// executes, plus the wall-clock scale and trace length an open-loop
// driver needs. It is the seam between the load generator and the
// execution substrate: *Cluster implements it with in-process
// replicas, and transport.Client implements it with replicas behind
// an HTTP boundary, so LiveSystem and RunOpenLoop drive either
// without knowing which.
type Source interface {
	// Request returns the hedge.Fn for query i (mod the trace
	// length), routing attempt n off the primary's replica.
	Request(i int) hedge.Fn
	// Unit is the wall-clock duration of one model millisecond.
	Unit() time.Duration
}

// OpenLoop replays n open-loop Poisson arrivals at rate lambda
// (queries per model millisecond) — the same arrival process the
// cluster simulator generates — against an arbitrary per-query
// executor, and returns each query's end-to-end latency in model
// milliseconds, in query order. It is the one open-loop driver
// behind RunOpenLoop and the sharded router's fan-out loop, so the
// subtle parts (absolute-deadline scheduling, cancellation, waiting
// out in-flight copies) live in exactly one place.
//
// do executes query i under ctx; waitInFlight blocks until every
// copy goroutine the executor started has finished, and is called
// before OpenLoop returns on every path — cancellation included —
// so no copies leak past the run. Queries do fails are returned as
// zero entries along with the first error; callers comparing against
// the simulator should treat any error as fatal.
func OpenLoop(ctx context.Context, unit time.Duration, n int, lambda float64, seed uint64,
	do func(ctx context.Context, i int) error, waitInFlight func()) ([]float64, error) {

	if n <= 0 || lambda <= 0 {
		return nil, fmt.Errorf("backend: n=%d and lambda=%v must be positive", n, lambda)
	}
	rng := reissue.NewRNG(seed)
	times := make([]float64, n)
	at := 0.0 // next arrival in model ms since start
	for i := 1; i < n; i++ {
		at += rng.ExpFloat64() / lambda
		times[i] = at
	}
	return OpenLoopAt(ctx, unit, times, do, waitInFlight)
}

// OpenLoopAt replays arrivals at the explicit model-millisecond
// instants times[i] (non-decreasing, times[0] normally 0) instead of
// drawing a Poisson process — the same schedule the simulator's
// cluster.Config.ArrivalTimes replays, so a live run and a simulated
// run can share the exact arrival instants and be compared query by
// query (the batch-membership agreement tests) rather than only in
// distribution. See OpenLoop for the driver's semantics; OpenLoop is
// this function applied to a pre-drawn Poisson schedule.
func OpenLoopAt(ctx context.Context, unit time.Duration, times []float64,
	do func(ctx context.Context, i int) error, waitInFlight func()) ([]float64, error) {

	n := len(times)
	if n == 0 {
		return nil, fmt.Errorf("backend: empty arrival schedule")
	}
	latencies := make([]float64, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	// One timer paces every arrival. It is re-armed only after its
	// value was received, so it is expired and drained at each Reset;
	// the cancellation exit stops it.
	var pace *time.Timer
	start := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 {
			// Arrivals are scheduled against absolute deadlines, like
			// the simulator's event list: a late wakeup delays one
			// arrival but does not drift the rate of the whole run.
			deadline := start.Add(time.Duration(times[i] * float64(unit)))
			if wait := time.Until(deadline); wait > 0 {
				if pace == nil {
					pace = time.NewTimer(wait)
				} else {
					pace.Reset(wait)
				}
				select {
				case <-pace.C:
				case <-ctx.Done():
					pace.Stop()
					// Issued queries unwind through their ctx error;
					// wait for the do calls AND their copy
					// goroutines, or in-flight copies leak past the
					// run.
					wg.Wait()
					waitInFlight()
					return latencies, ctx.Err()
				}
			}
		}
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			if err := do(ctx, i); err != nil {
				errs <- err
				return
			}
			latencies[i] = float64(time.Since(t0)) / float64(unit)
		}()
	}
	wg.Wait()
	waitInFlight()
	select {
	case err := <-errs:
		return latencies, err
	default:
		return latencies, nil
	}
}

// RunOpenLoop replays the first n trace queries from src through
// client at open-loop Poisson arrival rate lambda; see OpenLoop for
// the driver's semantics.
func RunOpenLoop(ctx context.Context, src Source, client *hedge.Client, n int, lambda float64, seed uint64) ([]float64, error) {
	return OpenLoop(ctx, src.Unit(), n, lambda, seed, func(ctx context.Context, i int) error {
		_, err := client.Do(ctx, src.Request(i))
		return err
	}, client.Wait)
}

// PrimaryReplica returns the replica the primary copy of query i is
// routed to: a pseudo-random placement (the simulator's RandomLB),
// derandomized per query id with the shared stats.Mix64 finalizer so
// concurrent requests need no shared RNG — and so an HTTP transport
// client and the simulator's HashedLB place primaries exactly like
// the in-process cluster does.
func PrimaryReplica(i, replicas int) int {
	return int(stats.Mix64(uint64(i)) % uint64(replicas))
}

// Request returns the hedge.Fn for query i (mod the trace length).
// The primary copy goes to the PrimaryReplica placement; each reissue
// attempt n goes to replica (primary+n) mod Replicas, the way a real
// hedging client routes its backup request to another server so it
// does not share the primary's queue.
func (c *Cluster) Request(i int) hedge.Fn {
	idx := i % len(c.times)
	base := PrimaryReplica(i, len(c.replicas))
	conn := i % c.cfg.Connections
	return func(ctx context.Context, attempt int) (any, error) {
		r := c.replicas[(base+attempt)%len(c.replicas)]
		return r.serve(ctx, c.times[idx], i, attempt > 0, conn, c.exec, idx)
	}
}
