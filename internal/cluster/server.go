package cluster

import (
	"repro/internal/des"
	"repro/internal/sched"
)

// Discipline selects how a server orders the requests waiting in its
// queue. It is the shared serving-discipline core's type
// (internal/sched): the simulator and the live replicas
// (reissue/hedge/backend) drive the SAME pure queue/batch scheduler,
// so the disciplines are defined once and aliased here for the
// simulator's historical callers.
type Discipline = sched.Discipline

const (
	// FIFO is a single first-in-first-out queue that does not
	// distinguish primary from reissue requests ("Baseline FIFO").
	FIFO = sched.FIFO
	// PrioFIFO keeps separate FIFO queues for primary and reissue
	// requests and serves reissues only when no primary waits
	// ("Prioritized FIFO").
	PrioFIFO = sched.PrioFIFO
	// PrioLIFO is PrioFIFO with the reissue queue served in LIFO
	// order ("Prioritized LIFO").
	PrioLIFO = sched.PrioLIFO
	// RoundRobin serves one request per client connection in
	// round-robin order — the Redis event-loop model from Section
	// 6.2, where a single long request delays every connection.
	RoundRobin = sched.RoundRobin
	// Batch coalesces queued requests into batches of up to
	// Config.Batch.Size served together with a size-dependent
	// service time — the inference-serving regime. See
	// sched.BatchConfig.
	Batch = sched.Batch
)

// DisciplineByName parses a discipline name — used by the CLI tools.
func DisciplineByName(name string) (Discipline, error) {
	return sched.DisciplineByName(name)
}

// request is one dispatched copy of a query: the primary or a
// reissue. Requests are arena-allocated (reqArena) and recycled
// across runs; idx is the record's stable arena index, used as the
// payload of infinite-server completion events.
type request struct {
	q        *query
	idx      int32   // arena index
	service  float64 // service time on the server
	dispatch float64 // absolute dispatch time
	conn     int     // client connection (round-robin discipline)
	reissue  bool
	// cancelled marks a queued request withdrawn after its query
	// already completed (the "tied requests" extension). Cancelled
	// requests are dropped lazily when popped; a request already in
	// service runs to completion (no preemption).
	cancelled bool
	inService bool
	// Chaos-mirror fields, untouched (zero) without Config.Faults:
	// server is the server that accepted the copy (for the breaker's
	// success report at completion), slowEdge the Slow-fault inflation
	// factor, and deferred marks a completion report already rescheduled
	// to its stretched instant.
	server   int32
	slowEdge float64
	deferred bool
}

// server is a single-threaded simulated server. Its queue state lives
// entirely in the shared scheduling core (sched.Queue); the server
// owns only the des-time machinery — when service starts, how long a
// batch holds the server, when the linger window expires. Under the
// single-serve disciplines it serves exactly one request at a time;
// under Batch it serves whole batches back to back. Servers are
// created once per Cluster and recycled run over run (reset); the
// service-completion event is a single shared func value, so serving
// a request schedules no closures.
type server struct {
	id         int
	discipline Discipline
	bcfg       sched.BatchConfig
	sim        *des.Sim

	q     *sched.Queue[*request]
	busy  bool
	cur   *request   // request in service (single-serve disciplines)
	batch []*request // batch in service (Batch discipline)

	// epoch invalidates armed linger events: it increments at every
	// batch launch, and a linger event carrying a stale epoch is a
	// no-op. lingerArmed keeps at most one live linger event pending.
	epoch       int
	lingerArmed bool

	busyTime float64 // accumulated service time, for utilization

	// slowFactor multiplies the service time of requests starting
	// now; 1 when the server is healthy, Interference.Factor while a
	// slow period is active.
	slowFactor float64
	// baseSpeed is the server's static service-time multiplier
	// (Config.SpeedFactors); 1 for a nominal server.
	baseSpeed float64

	// length is this server's slot in the run's published
	// queue-length vector (runState.lengths, what LB.Pick reads). The
	// server rewrites it with Len at the end of every state change, so
	// a pick never rebuilds the vector.
	length *int

	onComplete func(r *request, now float64)
	// onBatch reports a launched batch's membership (Batch discipline
	// only); nil disables the batch log.
	onBatch    func(id int, members []*request)
	completeEv des.ArgEvent // bound method value, allocated once
	lingerEv   des.ArgEvent
}

func newServer(id int, d Discipline, bcfg sched.BatchConfig, sim *des.Sim, length *int,
	onComplete func(*request, float64), onBatch func(int, []*request)) *server {
	s := &server{
		id: id, discipline: d, bcfg: bcfg, sim: sim, length: length,
		onComplete: onComplete, onBatch: onBatch,
		slowFactor: 1, baseSpeed: 1,
		q: sched.MustQueue[*request](sched.Config{Discipline: d, Batch: bcfg}),
	}
	s.completeEv = s.complete
	s.lingerEv = s.lingerFire
	return s
}

// reset returns the server to its idle boot state for a fresh run,
// keeping queue capacity.
func (s *server) reset() {
	s.busy = false
	s.cur = nil
	s.batch = s.batch[:0]
	s.epoch = 0
	s.lingerArmed = false
	s.q.Reset()
	s.busyTime = 0
	s.slowFactor = 1
	s.baseSpeed = 1
	s.publish()
}

// Len returns the instantaneous queue length: waiting requests plus
// those in service (one under the single-serve disciplines, the batch
// membership under Batch). Load balancers use it as the server's load
// signal.
func (s *server) Len() int {
	n := s.q.Waiting()
	if s.busy {
		if s.discipline == Batch {
			n += len(s.batch)
		} else {
			n++
		}
	}
	return n
}

// publish writes Len into the server's published queue-length slot.
func (s *server) publish() { *s.length = s.Len() }

// Enqueue accepts a request at time now. Single-serve disciplines
// start service immediately when the server is idle; the Batch
// discipline always admits through the core and then decides whether
// a batch launches now (full, or zero linger) or the linger window
// arms.
func (s *server) Enqueue(r *request, now float64) {
	switch {
	case s.discipline == Batch:
		s.q.Push(r, r.reissue, r.conn)
		if !s.busy {
			s.considerLaunch(now)
		}
	case !s.busy:
		s.start(r, now)
	default:
		s.q.Push(r, r.reissue, r.conn)
	}
	s.publish()
}

// pop removes and returns the next live request to serve, skipping
// lazily over cancelled ones; returns nil when nothing remains.
func (s *server) pop() *request {
	for {
		r, ok := s.q.Pop()
		if !ok {
			return nil
		}
		if !r.cancelled {
			return r
		}
	}
}

func (s *server) start(r *request, now float64) {
	s.busy = true
	s.cur = r
	svc := r.service * s.baseSpeed * s.slowFactor
	s.busyTime += svc
	r.inService = true
	s.sim.AfterArg(svc, s.completeEv, 0, 0)
}

// considerLaunch decides, for an idle batch server with new or
// leftover queue state, whether to launch now or linger: a batch
// launches immediately when Size requests wait (cancelled-but-queued
// copies count, exactly as they count in the live replica's window)
// or when the linger is zero; otherwise a single linger event arms at
// now+LingerMS.
func (s *server) considerLaunch(now float64) {
	w := s.q.Waiting()
	if w == 0 {
		return
	}
	if w >= s.bcfg.Size || s.bcfg.LingerMS == 0 {
		s.launchBatch(now)
		return
	}
	if !s.lingerArmed {
		s.lingerArmed = true
		s.sim.AfterArg(s.bcfg.LingerMS, s.lingerEv, s.epoch, 0)
	}
}

// lingerFire fires when a batch window expires. A stale epoch means
// the window's batch already launched (it filled to Size first).
func (s *server) lingerFire(now float64, epoch int, _ float64) {
	if epoch != s.epoch || s.busy {
		return
	}
	s.lingerArmed = false
	if s.q.Waiting() == 0 {
		return
	}
	s.launchBatch(now)
	s.publish()
}

// launchBatch pops the batch membership from the core and holds the
// server for the size-dependent service time. Membership is the first
// Size live requests in admission order; if every popped request was
// cancelled the launch re-evaluates what remains.
func (s *server) launchBatch(now float64) {
	s.epoch++
	s.lingerArmed = false
	s.batch = s.q.PopBatch(s.batch[:0], s.bcfg.Size, requestLive)
	if len(s.batch) == 0 {
		s.considerLaunch(now)
		return
	}
	maxSvc := 0.0
	for _, r := range s.batch {
		r.inService = true
		if r.service > maxSvc {
			maxSvc = r.service
		}
	}
	svc := s.bcfg.Cost.Service(maxSvc, len(s.batch)) * s.baseSpeed * s.slowFactor
	s.busyTime += svc
	s.busy = true
	if s.onBatch != nil {
		s.onBatch(s.id, s.batch)
	}
	s.sim.AfterArg(svc, s.completeEv, 0, 0)
}

func requestLive(r *request) bool { return !r.cancelled }

// complete fires when the in-service request (or batch) finishes:
// report it, then start the next queued work, chaining service back
// to back.
func (s *server) complete(now float64, _ int, _ float64) {
	if s.discipline == Batch {
		s.busy = false
		for _, r := range s.batch {
			s.onComplete(r, now)
		}
		s.batch = s.batch[:0]
		s.considerLaunch(now)
		s.publish()
		return
	}
	r := s.cur
	s.cur = nil
	s.onComplete(r, now)
	s.busy = false
	if next := s.pop(); next != nil {
		s.start(next, now)
	}
	s.publish()
}
