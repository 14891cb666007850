// Package sched is the shared serving-discipline core: the pure
// queue/batch scheduler behind BOTH per-replica serving worlds — the
// discrete-event cluster simulator (internal/cluster) and the live
// goroutine replicas (reissue/hedge/backend, and through them the
// HTTP transport's replica servers). It is the same twinning
// discipline fault.Decide established for fault injection: one pure
// decision procedure, consulted verbatim by virtual-time and
// wall-clock callers, so the two worlds order and batch exactly the
// same requests on a shared trace.
//
// A Queue decides admission order, preemption-free dequeue, and batch
// membership from the request's arrival sequence, its
// primary-vs-reissue flag, its client connection id, and the queue
// state alone. It knows nothing about time: linger deadlines and
// service holds are the caller's clock (a des event in the simulator,
// a timer in a live replica), parametrized by BatchConfig. The
// package is inside reissue-vet's simdeterminism scope — wall-clock
// reads, goroutines, and map iteration can never leak into it.
//
// See DESIGN.md, "Serving disciplines & batched execution".
package sched

import "fmt"

// Discipline selects how a server orders the requests waiting in its
// queue. The paper's Figure 5c compares FIFO against two prioritized
// schemes, the Redis system experiment motivates the round-robin
// connection scheduler, and Batch is the GPU-style batched-execution
// regime the paper never models (an inference-serving replica
// coalescing requests into size-B batches).
type Discipline int

const (
	// FIFO is a single first-in-first-out queue that does not
	// distinguish primary from reissue requests ("Baseline FIFO").
	FIFO Discipline = iota
	// PrioFIFO keeps separate FIFO queues for primary and reissue
	// requests and serves reissues only when no primary waits
	// ("Prioritized FIFO").
	PrioFIFO
	// PrioLIFO is PrioFIFO with the reissue queue served in LIFO
	// order ("Prioritized LIFO").
	PrioLIFO
	// RoundRobin serves one request per client connection in
	// round-robin order — the Redis event-loop model from Section
	// 6.2, where a single long request delays every connection.
	RoundRobin
	// Batch coalesces waiting requests into batches of up to
	// BatchConfig.Size in admission (FIFO) order, served together
	// with a size-dependent service time (BatchCost). A hedged copy
	// whose replica is still filling a batch lands in the SAME batch
	// as its primary when both route to one replica — the
	// hedge-lands-in-own-batch hazard batched backends introduce.
	Batch
)

func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "FIFO"
	case PrioFIFO:
		return "PrioFIFO"
	case PrioLIFO:
		return "PrioLIFO"
	case RoundRobin:
		return "RoundRobin"
	case Batch:
		return "Batch"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// DisciplineByName parses a discipline name — used by the CLI tools.
func DisciplineByName(name string) (Discipline, error) {
	switch name {
	case "fifo":
		return FIFO, nil
	case "prio-fifo":
		return PrioFIFO, nil
	case "prio-lifo":
		return PrioLIFO, nil
	case "round-robin", "rr":
		return RoundRobin, nil
	case "batch":
		return Batch, nil
	default:
		return 0, fmt.Errorf("sched: unknown discipline %q (want fifo, prio-fifo, prio-lifo, round-robin, or batch)", name)
	}
}

// Name returns the DisciplineByName-parsable spelling of d — the
// inverse of DisciplineByName, pinned by test so the CLI flag
// round-trips.
func (d Discipline) Name() string {
	switch d {
	case FIFO:
		return "fifo"
	case PrioFIFO:
		return "prio-fifo"
	case PrioLIFO:
		return "prio-lifo"
	case RoundRobin:
		return "round-robin"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// BatchCost is the size-dependent service-time model of a batch: the
// slowest member's solo service time, inflated multiplicatively by
// Scale per additional member (co-running requests contend for the
// same accelerator) and additively by PerItem per additional member
// (per-request launch overhead). Size 1 always costs exactly the
// member's solo time, so Batch with Size=1 degenerates to FIFO
// timing.
type BatchCost struct {
	// Scale is the fractional slowdown each additional member adds to
	// the whole batch (0 = members are free riders on the max).
	Scale float64
	// PerItem is the additive overhead in model milliseconds per
	// additional member.
	PerItem float64
}

// Service returns the service time of a batch whose slowest member
// alone would take maxMember model milliseconds.
func (c BatchCost) Service(maxMember float64, size int) float64 {
	if size <= 1 {
		return maxMember
	}
	extra := float64(size - 1)
	return maxMember*(1+c.Scale*extra) + c.PerItem*extra
}

// BatchConfig parametrizes the Batch discipline.
type BatchConfig struct {
	// Size is the maximum batch membership B; a batch launches as
	// soon as B requests wait. Must be >= 1 under the Batch
	// discipline.
	Size int
	// LingerMS is how long, in model milliseconds, an idle server
	// holds an underfull batch open for more arrivals before
	// launching it: the window opens when the server is free with at
	// least one request waiting, and the batch launches at the
	// earlier of the window expiring or Size requests waiting. 0
	// launches immediately with whatever is queued.
	LingerMS float64
	// Cost converts the batch's membership into its service time.
	Cost BatchCost
}

// Validate reports whether the batch parameters are usable under the
// Batch discipline.
func (b BatchConfig) Validate() error {
	if b.Size < 1 {
		return fmt.Errorf("sched: batch size %d must be >= 1", b.Size)
	}
	if b.LingerMS < 0 {
		return fmt.Errorf("sched: batch linger %v must be >= 0", b.LingerMS)
	}
	if b.Cost.Scale < 0 || b.Cost.PerItem < 0 {
		return fmt.Errorf("sched: batch cost (scale %v, per-item %v) must be >= 0", b.Cost.Scale, b.Cost.PerItem)
	}
	return nil
}

// Member identifies one request inside a recorded batch, the shared
// vocabulary of the simulator's and the live replicas' batch-
// membership logs: the agreement tests compare the two worlds'
// []Member sets per batch.
type Member struct {
	// Query is the logical query index.
	Query int
	// Reissue marks a hedged copy (attempt > 0) rather than the
	// primary.
	Reissue bool
}

// Config selects a queue's discipline and, for Batch, its batching
// parameters.
type Config struct {
	Discipline Discipline
	Batch      BatchConfig
}

// Queue is the pure scheduling state of one single-threaded server:
// it owns admission order and dequeue order for every discipline,
// parameterized over the caller's request record type so the
// simulator queues its arena-backed *request values and a live
// replica queues its pending-call records through the identical
// code path.
//
// Cancellation stays the callers' lazy protocol: a withdrawn request
// is still popped (Pop returns items cancelled or not, exactly like
// the pre-refactor simulator server) and the caller skips it, so
// Waiting — the load-balancer's queue-length signal — counts
// cancelled-but-not-yet-popped requests in both worlds identically.
type Queue[T any] struct {
	cfg     Config
	waiting int

	// FIFO / prioritized queues. fifo doubles as the primary queue
	// for the prioritized disciplines and as the admission-order
	// queue for Batch.
	fifo ring[T]
	reis ring[T]

	// Round-robin per-connection queues. conns keeps every
	// connection's queue across Reset; order lists the connections
	// with traffic since the last Reset, in first-traffic order.
	conns  map[int]*connQueue[T]
	order  []*connQueue[T] // round-robin visit order
	cursor int
}

// connQueue is one round-robin connection's queue. listed reports
// that the connection is in the queue's visit order.
type connQueue[T any] struct {
	ring[T]
	listed bool
}

// NewQueue returns an empty queue under cfg. Batch parameters are
// validated only under the Batch discipline.
func NewQueue[T any](cfg Config) (*Queue[T], error) {
	if cfg.Discipline == Batch {
		if err := cfg.Batch.Validate(); err != nil {
			return nil, err
		}
	}
	q := &Queue[T]{cfg: cfg}
	if cfg.Discipline == RoundRobin {
		q.conns = make(map[int]*connQueue[T])
		// Start before the first connection so the initial pop visits
		// connections in arrival order.
		q.cursor = -1
	}
	return q, nil
}

// MustQueue is NewQueue for statically valid configurations; it
// panics on a validation error.
func MustQueue[T any](cfg Config) *Queue[T] {
	q, err := NewQueue[T](cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Config returns the queue's configuration.
func (q *Queue[T]) Config() Config { return q.cfg }

// Reset empties the queue for a fresh run, keeping capacity.
func (q *Queue[T]) Reset() {
	q.waiting = 0
	q.fifo.reset()
	q.reis.reset()
	if q.cfg.Discipline == RoundRobin {
		for _, cq := range q.order {
			cq.reset()
			cq.listed = false
		}
		q.order = q.order[:0]
		q.cursor = -1
	}
}

// Waiting returns the number of queued requests, including
// lazily-cancelled ones not yet popped.
func (q *Queue[T]) Waiting() int { return q.waiting }

// Push admits one request: reissue marks a hedged copy (the
// prioritized disciplines queue it separately) and conn is the client
// connection id (the round-robin discipline serves one request per
// connection per turn).
func (q *Queue[T]) Push(x T, reissue bool, conn int) {
	q.waiting++
	switch q.cfg.Discipline {
	case PrioFIFO, PrioLIFO:
		if reissue {
			q.reis.push(x)
			return
		}
		q.fifo.push(x)
	case RoundRobin:
		cq := q.conns[conn]
		if cq == nil {
			cq = new(connQueue[T])
			q.conns[conn] = cq
		}
		if !cq.listed {
			cq.listed = true
			q.order = append(q.order, cq)
		}
		cq.push(x)
	default: // FIFO, Batch
		q.fifo.push(x)
	}
}

// Pop removes and returns the next request in discipline order,
// cancelled or not — callers loop, skipping their lazily-cancelled
// records, exactly as the pre-refactor simulator server did. The
// second result is false when the queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.waiting == 0 {
		return zero, false
	}
	q.waiting--
	switch q.cfg.Discipline {
	case PrioFIFO, PrioLIFO:
		if q.fifo.n > 0 {
			return q.fifo.popFront(), true
		}
		if q.cfg.Discipline == PrioLIFO {
			return q.reis.popBack(), true
		}
		return q.reis.popFront(), true
	case RoundRobin:
		// Advance the cursor to the next connection with pending
		// requests, serving one request per connection per turn.
		for i := 0; i < len(q.order); i++ {
			q.cursor = (q.cursor + 1) % len(q.order)
			if cq := q.order[q.cursor]; cq.n > 0 {
				return cq.popFront(), true
			}
		}
		// Unreachable while waiting is consistent; keep the zero
		// return for safety.
		q.waiting++
		return zero, false
	default: // FIFO, Batch
		return q.fifo.popFront(), true
	}
}

// PopBatch decides batch membership: it pops requests in admission
// order until max live members are collected or the queue empties,
// appending the live ones to dst. live reports whether a record is
// still wanted; lazily-cancelled records are popped and discarded
// without consuming membership, mirroring the single-serve Pop-and-
// skip loop.
func (q *Queue[T]) PopBatch(dst []T, max int, live func(T) bool) []T {
	for len(dst) < max {
		x, ok := q.Pop()
		if !ok {
			break
		}
		if live(x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// ring is a growable FIFO/LIFO ring buffer. Its backing array's
// length is zero or a power of two; popping zeroes the vacated slot
// so recycled queues do not pin caller records, and reset keeps the
// backing array for the next run.
type ring[T any] struct {
	buf  []T
	head int // index of the first item
	n    int // number of items
}

func (r *ring[T]) push(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// grow doubles the backing array (to 8 from empty), unwrapping the
// items to the front.
func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}

// popFront removes and returns the oldest item; the ring must be
// non-empty.
func (r *ring[T]) popFront() T {
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// popBack removes and returns the newest item; the ring must be
// non-empty.
func (r *ring[T]) popBack() T {
	var zero T
	r.n--
	i := (r.head + r.n) & (len(r.buf) - 1)
	x := r.buf[i]
	r.buf[i] = zero
	return x
}

// reset empties the ring, zeroing its items and keeping its backing
// array.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}
