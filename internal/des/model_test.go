package des

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// modelEvent is one event in the reference model of the event list: a
// plain slice ordered on demand by (time, seq).
type modelEvent struct {
	time float64
	seq  uint64
	id   int
	x    float64
}

// refSim is the reference model: it keeps every pending event in a
// slice and, at each step, takes the (time, seq)-minimal one.
type refSim struct {
	now     float64
	seq     uint64
	fired   uint64
	pending []*modelEvent
	log     []firing
}

type firing struct {
	id  int
	now float64
}

// childOffset marks the id of an event scheduled from inside another
// event's callback.
const childOffset = 1 << 20

func (m *refSim) schedule(t float64, id int, x float64) {
	m.pending = append(m.pending, &modelEvent{time: t, seq: m.seq, id: id, x: x})
	m.seq++
}

// head returns the index of the (time, seq)-minimal pending event, or
// -1.
func (m *refSim) head() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 || e.time < m.pending[best].time ||
			(e.time == m.pending[best].time && e.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (m *refSim) remove(i int) *modelEvent {
	e := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	return e
}

func (m *refSim) fire(e *modelEvent) {
	m.now = e.time
	m.fired++
	m.log = append(m.log, firing{e.id, e.time})
	if e.x > 0 {
		m.schedule(m.now+e.x, e.id+childOffset, 0)
	}
}

func (m *refSim) step() {
	if i := m.head(); i >= 0 {
		m.fire(m.remove(i))
	}
}

func (m *refSim) runUntil(tEnd float64) {
	for {
		i := m.head()
		if i < 0 {
			break
		}
		e := m.pending[i]
		if e.time > tEnd {
			break
		}
		m.remove(i)
		m.fire(e)
	}
	if m.now < tEnd {
		m.now = tEnd
	}
}

func (m *refSim) reset() {
	m.now, m.seq, m.fired = 0, 0, 0
	m.pending = m.pending[:0]
}

// TestEngineMatchesReferenceModel drives the engine and the reference
// model through random mixes of AtArg, AtMonotone, AtSorted (in and
// out of its lane's order), Step, RunUntil and Reset, with callbacks
// that schedule further events, and requires the same firing
// sequence, clock, fired count and pending count after every
// operation.
func TestEngineMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runModelSequence(t, seed) })
	}
}

func runModelSequence(t *testing.T, seed uint64) {
	r := stats.NewRNG(seed)
	s := New()
	m := &refSim{}
	var got []firing
	var cb ArgEvent
	cb = func(now float64, id int, x float64) {
		got = append(got, firing{id, now})
		if x > 0 {
			// Children go through the sorted lane too, in or out of
			// its order depending on x.
			s.AtSorted(now+x, cb, id+childOffset, 0)
		}
	}
	lastMono, lastSorted := 0.0, 0.0
	nextID := 0
	// grid keeps times on a coarse lattice so many events tie.
	grid := func() float64 { return float64(r.Intn(6)) * 0.5 }
	for op := 0; op < 400; op++ {
		id := nextID
		nextID++
		x := 0.0
		if r.Intn(4) == 0 {
			x = 0.5 + grid()
		}
		var what string
		switch k := r.Intn(17); {
		case k < 4:
			what = "AtArg"
			tm := s.Now() + grid()
			s.AtArg(tm, cb, id, x)
			m.schedule(tm, id, x)
		case k < 7:
			what = "AtMonotone"
			tm := math.Max(s.Now(), lastMono) + grid()
			lastMono = tm
			s.AtMonotone(tm, cb, id, x)
			m.schedule(tm, id, x)
		case k < 10:
			what = "AtSorted in order"
			tm := math.Max(s.Now(), lastSorted) + grid()
			lastSorted = tm
			s.AtSorted(tm, cb, id, x)
			m.schedule(tm, id, x)
		case k < 12:
			what = "AtSorted out of order"
			tm := s.Now() + grid()
			s.AtSorted(tm, cb, id, x)
			m.schedule(tm, id, x)
		case k < 14:
			what = "Step"
			s.Step()
			m.step()
		case k < 16:
			what = "RunUntil"
			tEnd := s.Now() + grid()*2
			s.RunUntil(tEnd)
			m.runUntil(tEnd)
		default:
			what = "Reset"
			s.Reset()
			m.reset()
			lastMono, lastSorted = 0, 0
		}
		if !sameFirings(got, m.log) {
			t.Fatalf("op %d (%s): fired %v, model %v", op, what, got, m.log)
		}
		if s.Now() != m.now || s.Fired() != m.fired || s.Pending() != len(m.pending) {
			t.Fatalf("op %d (%s): now/fired/pending = %v/%d/%d, model %v/%d/%d",
				op, what, s.Now(), s.Fired(), s.Pending(), m.now, m.fired, len(m.pending))
		}
	}
	s.Run()
	for len(m.pending) > 0 {
		m.step()
	}
	if !sameFirings(got, m.log) || s.Now() != m.now {
		t.Fatalf("final drain: fired %v at %v, model %v at %v", got, s.Now(), m.log, m.now)
	}
}

func sameFirings(a, b []firing) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
