// Package des implements a small deterministic discrete-event
// simulation engine: a future-event list ordered by (time, sequence)
// and a simulation clock. The cluster simulator in internal/cluster
// is built on top of it.
//
// Determinism matters here: two events scheduled for the same instant
// fire in scheduling order, so a simulation driven by a seeded RNG
// replays identically on every run. The engine totally orders events
// by (time, seq) — seq is a per-Sim scheduling counter, so the order
// is unique and independent of the event list's internal layout.
//
// The event list is built for throughput on the simulator's hot path:
// a 4-ary heap of (time, seq, slot) keys over a pooled slab of typed
// event records, beside two sorted FIFO lanes that take the streams
// scheduled in time order (arrivals, fixed-delay timers) at O(1)
// each. Scheduling an event costs no allocation once the slab, heap
// and lanes have grown to the simulation's peak pending count,
// and a Sim can be Reset and reused across runs so repeated
// simulations (the adaptive optimizer's trials, figure regeneration)
// run allocation-free in steady state. Handles are generation-counted
// slab references, so cancelling an already-fired event — whose slot
// may since have been reused — is a safe no-op.
package des

import (
	"fmt"
	"math"
)

// Event is a callback scheduled to run at a simulation time.
type Event func(now float64)

// ArgEvent is a payload-carrying event callback: one shared func
// value can serve many scheduled events, with the per-event payload
// (arg, x) stored in the event record instead of a captured closure
// environment. This is what keeps the cluster simulator's hot path
// allocation-free: its arrival, reissue, and service-completion
// events are three func values reused for every query.
type ArgEvent func(now float64, arg int, x float64)

// slot is one pooled event record. Exactly one of fn and afn is set
// while the slot is live; gen counts reuses so stale Handles cannot
// touch a recycled slot.
type slot struct {
	fn   Event
	afn  ArgEvent
	arg  int
	x    float64
	gen  uint32
	dead bool
}

// entry is one heap element. The ordering key (time, seq) is stored
// inline so sift operations never chase the slab.
type entry struct {
	time float64
	seq  uint64
	slot int32
}

// Handle identifies a scheduled event so it can be cancelled. The
// zero Handle is valid and refers to no event.
type Handle struct {
	s    *Sim
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op (the handle's generation no
// longer matches the slot once the event fires). Cancelled events are
// dropped lazily when they surface at the top of the event list.
func (h Handle) Cancel() {
	if h.s == nil {
		return
	}
	sl := &h.s.slab[h.slot]
	if sl.gen == h.gen {
		sl.dead = true
	}
}

// Cancelled reports whether the event was cancelled before firing.
// Once the engine reclaims the cancelled record (lazily, when it
// surfaces at the head of the event list) the handle goes stale and
// Cancelled returns false again; use it for asserting on a
// cancellation that just happened, not as long-term state.
func (h Handle) Cancelled() bool {
	if h.s == nil {
		return false
	}
	sl := &h.s.slab[h.slot]
	return sl.gen == h.gen && sl.dead
}

// Sim is a discrete-event simulation instance. The zero value is not
// usable; call New.
type Sim struct {
	now   float64
	seq   uint64
	fired uint64
	heap  []entry // 4-ary min-heap ordered by (time, seq)
	slab  []slot  // pooled event records
	free  []int32 // free slab indices

	// lanes are the sorted fast paths beside the heap: FIFOs whose
	// entries were appended in non-decreasing time order. Because both
	// time and seq are non-decreasing along a lane, its head is always
	// its minimum, so scheduling and popping cost O(1) instead of a heap
	// operation, and keeping sorted streams out of the heap keeps the
	// heap shallow for everything else. Step/Run merge the lane heads
	// with the heap top under the same global (time, seq) order, so
	// firing order is identical to scheduling everything on the heap.
	//
	// lanes[arrivalLane] is AtMonotone's lane for bulk-scheduled
	// sorted streams (an open-loop arrival process, a precomputed
	// trace); lanes[sortedLane] is AtSorted's lane for streams that are
	// sorted almost always, such as fixed-delay reissue timers.
	lanes [2]lane
}

const (
	arrivalLane = iota
	sortedLane
)

// fromHeap is the peek source that names the heap rather than a lane.
const fromHeap = -1

// lane is one sorted FIFO of entries. head indexes the first pending
// entry; the consumed prefix is reclaimed when the lane drains or
// when an append would otherwise grow a half-consumed backing array.
type lane struct {
	ents []entry
	head int
}

// tail returns the last pending entry's time, or -Inf when the lane
// is empty.
func (l *lane) tail() float64 {
	if n := len(l.ents); n > l.head {
		return l.ents[n-1].time
	}
	return math.Inf(-1)
}

func (l *lane) append(e entry) {
	if len(l.ents) == cap(l.ents) && l.head > 0 && 2*l.head >= len(l.ents) {
		// Slide the pending suffix down instead of growing: a lane that
		// is fed while it drains stays at about twice its peak pending
		// count rather than holding every entry of the run.
		n := copy(l.ents, l.ents[l.head:])
		l.ents = l.ents[:n]
		l.head = 0
	}
	l.ents = append(l.ents, e)
}

// pop drops the head entry.
func (l *lane) pop() {
	l.head++
	if l.head == len(l.ents) {
		l.ents = l.ents[:0]
		l.head = 0
	}
}

func (l *lane) reset() {
	l.ents = l.ents[:0]
	l.head = 0
}

// New creates an empty simulation whose clock starts at 0.
func New() *Sim { return &Sim{} }

// Reset rewinds the clock to 0, drops all pending events, and
// invalidates every outstanding Handle, keeping the slab and heap
// capacity so the next run schedules without allocating. It is how
// callers running many simulations back to back (the adaptive
// optimizer, figure regeneration) amortize the event list to zero
// steady-state allocations.
func (s *Sim) Reset() {
	s.now, s.seq, s.fired = 0, 0, 0
	s.heap = s.heap[:0]
	for i := range s.lanes {
		s.lanes[i].reset()
	}
	s.free = s.free[:0]
	for i := range s.slab {
		sl := &s.slab[i]
		sl.gen++ // invalidate pre-Reset handles
		sl.fn = nil
		sl.afn = nil
		sl.dead = false
	}
	for i := len(s.slab) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled (including
// lazily-cancelled ones not yet dropped).
func (s *Sim) Pending() int {
	n := len(s.heap)
	for i := range s.lanes {
		n += len(s.lanes[i].ents) - s.lanes[i].head
	}
	return n
}

func (s *Sim) checkTime(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: scheduling at NaN")
	}
}

// alloc grabs a free slab slot, growing the slab only when the free
// list is empty.
func (s *Sim) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slab = append(s.slab, slot{})
	return int32(len(s.slab) - 1)
}

// release recycles a fired or cancelled slot: bump the generation so
// outstanding handles go stale, drop callback references so closures
// become collectable, and return the slot to the free list.
func (s *Sim) release(idx int32) {
	sl := &s.slab[idx]
	sl.gen++
	sl.fn = nil
	sl.afn = nil
	sl.dead = false
	s.free = append(s.free, idx)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it is always a logic error in the calling model.
func (s *Sim) At(t float64, fn Event) Handle {
	s.checkTime(t)
	sl, e := s.record(t)
	sl.fn = fn
	s.push(e)
	return Handle{s: s, slot: e.slot, gen: sl.gen}
}

// AtArg schedules fn to run at absolute time t with the given
// payload. The func value is typically shared across many events, so
// — unlike a capturing closure passed to At — scheduling allocates
// nothing beyond the pooled event record.
func (s *Sim) AtArg(t float64, fn ArgEvent, arg int, x float64) Handle {
	s.checkTime(t)
	sl, e := s.record(t)
	sl.afn, sl.arg, sl.x = fn, arg, x
	s.push(e)
	return Handle{s: s, slot: e.slot, gen: sl.gen}
}

// AtMonotone schedules a payload-carrying event on the monotone lane:
// a FIFO reserved for event streams whose times arrive in
// non-decreasing order, which schedule and fire in O(1) instead of
// O(log pending). It panics if t is smaller than the previously
// laned time — callers must only route genuinely sorted streams
// (open-loop arrivals, trace replays) here. Relative firing order
// against heap-scheduled events is exactly as if At had been used.
func (s *Sim) AtMonotone(t float64, fn ArgEvent, arg int, x float64) Handle {
	s.checkTime(t)
	l := &s.lanes[arrivalLane]
	if tail := l.tail(); t < tail {
		panic(fmt.Sprintf("des: AtMonotone time %v before laned %v", t, tail))
	}
	sl, e := s.record(t)
	sl.afn, sl.arg, sl.x = fn, arg, x
	l.append(e)
	return Handle{s: s, slot: e.slot, gen: sl.gen}
}

// AtSorted schedules a payload-carrying event like AtArg, on a second
// sorted lane when t is no earlier than that lane's last pending time
// and on the heap otherwise. It suits streams that are sorted almost
// always — a fixed-delay reissue timer per arrival — and costs O(1)
// on the lane. Firing order is exactly as if AtArg had been used.
func (s *Sim) AtSorted(t float64, fn ArgEvent, arg int, x float64) Handle {
	s.checkTime(t)
	sl, e := s.record(t)
	sl.afn, sl.arg, sl.x = fn, arg, x
	if l := &s.lanes[sortedLane]; t >= l.tail() {
		l.append(e)
	} else {
		s.push(e)
	}
	return Handle{s: s, slot: e.slot, gen: sl.gen}
}

// record claims a pooled event record for a new event at time t and
// returns it with the event's (time, seq) key, consuming one seq.
func (s *Sim) record(t float64) (*slot, entry) {
	idx := s.alloc()
	e := entry{time: t, seq: s.seq, slot: idx}
	s.seq++
	return &s.slab[idx], e
}

// peek returns the globally (time, seq)-minimal pending entry and its
// source (a lane index or fromHeap), without removing it; the entry is
// nil when nothing is pending. The pointer is valid until the next
// take.
func (s *Sim) peek() (*entry, int) {
	var e *entry
	src := fromHeap
	if len(s.heap) > 0 {
		e = &s.heap[0]
	}
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.head < len(l.ents) {
			if c := &l.ents[l.head]; e == nil || entryLess(*c, *e) {
				e, src = c, i
			}
		}
	}
	return e, src
}

// take removes the entry peek returned from its source.
func (s *Sim) take(src int) {
	if src == fromHeap {
		s.popMin()
		return
	}
	s.lanes[src].pop()
}

// After schedules fn to run delay time units from now.
func (s *Sim) After(delay float64, fn Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// AfterArg schedules a payload-carrying event delay time units from
// now.
func (s *Sim) AfterArg(delay float64, fn ArgEvent, arg int, x float64) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return s.AtArg(s.now+delay, fn, arg, x)
}

// 4-ary heap over (time, seq). Flatter than a binary heap, it halves
// the sift-down depth and keeps the four children of a node in one or
// two cache lines — the classic d-ary trade of more comparisons per
// level for fewer levels, which wins when pops dominate (every
// scheduled event is popped exactly once).

func entryLess(a, b entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (s *Sim) push(e entry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = e
}

// popMin removes and returns the (time, seq)-minimal entry. The heap
// must be non-empty.
func (s *Sim) popMin() entry {
	h := s.heap
	min := h[0]
	n := len(h) - 1
	e := h[n]
	s.heap = h[:n]
	if n == 0 {
		return min
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		least := c
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[least]) {
				least = j
			}
		}
		if !entryLess(h[least], e) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = e
	return min
}

// fire executes the event in the given slot at time t, releasing the
// slot before the callback runs so the callback can schedule new
// events into it.
func (s *Sim) fire(e entry) {
	sl := &s.slab[e.slot]
	fn, afn, arg, x := sl.fn, sl.afn, sl.arg, sl.x
	s.release(e.slot)
	s.now = e.time
	s.fired++
	if afn != nil {
		afn(s.now, arg, x)
	} else {
		fn(s.now)
	}
}

// Step fires the next pending event, advancing the clock. It returns
// false when no events remain.
func (s *Sim) Step() bool {
	for {
		p, src := s.peek()
		if p == nil {
			return false
		}
		e := *p
		s.take(src)
		if s.slab[e.slot].dead {
			s.release(e.slot)
			continue
		}
		s.fire(e)
		return true
	}
}

// Run fires events until the event list drains.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with time <= tEnd, then advances the clock to
// tEnd. Events scheduled beyond tEnd remain pending.
func (s *Sim) RunUntil(tEnd float64) {
	for {
		p, src := s.peek()
		if p == nil {
			break
		}
		e := *p
		if s.slab[e.slot].dead {
			s.take(src)
			s.release(e.slot)
			continue
		}
		if e.time > tEnd {
			break
		}
		s.take(src)
		s.fire(e)
	}
	if s.now < tEnd {
		s.now = tEnd
	}
}

// RunWhile fires events while cond() holds and events remain.
func (s *Sim) RunWhile(cond func() bool) {
	for cond() && s.Step() {
	}
}
