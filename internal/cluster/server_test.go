package cluster

import (
	"testing"

	"repro/internal/des"
	"repro/internal/sched"
)

// newTestServer builds a server with no batch config and no batch log
// — the single-serve disciplines these tests exercise.
func newTestServer(d Discipline, sim *des.Sim, onComplete func(*request, float64)) *server {
	return newServer(0, d, sched.BatchConfig{}, sim, new(int), onComplete, nil)
}

// collectOrder runs requests through a server and records completion
// order by query id.
func runServer(t *testing.T, d Discipline, reqs []*request, arrivals []float64) []int {
	t.Helper()
	var order []int
	sim := des.New()
	s := newTestServer(d, sim, func(r *request, now float64) {
		order = append(order, r.q.id)
	})
	for i, r := range reqs {
		enqueueAt(sim, arrivals[i], s, r)
	}
	sim.Run()
	return order
}

// enqueueAt schedules the arrival of reqs at s, in order, at time t.
func enqueueAt(sim *des.Sim, t float64, s *server, reqs ...*request) {
	sim.AtArg(t, func(now float64, _ int, _ float64) {
		for _, r := range reqs {
			s.Enqueue(r, now)
		}
	}, 0, 0)
}

func mkReq(id int, service float64, reissue bool, conn int) *request {
	return &request{q: &query{id: id}, service: service, reissue: reissue, conn: conn}
}

func TestServerFIFOOrder(t *testing.T) {
	reqs := []*request{
		mkReq(0, 10, false, 0),
		mkReq(1, 1, false, 0),
		mkReq(2, 1, false, 0),
	}
	// All arrive while the first is in service: FIFO completes 0,1,2.
	order := runServer(t, FIFO, reqs, []float64{0, 1, 2})
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order = %v", order)
		}
	}
}

func TestServerPrioFIFOServesPrimariesFirst(t *testing.T) {
	reqs := []*request{
		mkReq(0, 10, false, 0), // in service
		mkReq(1, 1, true, 0),   // reissue, queued first
		mkReq(2, 1, false, 0),  // primary, queued second
	}
	order := runServer(t, PrioFIFO, reqs, []float64{0, 1, 2})
	// Primary 2 must jump the queued reissue 1.
	want := []int{0, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("PrioFIFO order = %v, want %v", order, want)
		}
	}
}

func TestServerPrioLIFOServesNewestReissue(t *testing.T) {
	reqs := []*request{
		mkReq(0, 10, false, 0), // in service
		mkReq(1, 1, true, 0),
		mkReq(2, 1, true, 0),
		mkReq(3, 1, true, 0),
	}
	order := runServer(t, PrioLIFO, reqs, []float64{0, 1, 2, 3})
	// Reissues drain newest-first: 3, 2, 1.
	want := []int{0, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("PrioLIFO order = %v, want %v", order, want)
		}
	}
}

func TestServerRoundRobinAlternatesConnections(t *testing.T) {
	reqs := []*request{
		mkReq(0, 10, false, 0), // in service
		mkReq(1, 1, false, 1),  // conn 1
		mkReq(2, 1, false, 1),  // conn 1
		mkReq(3, 1, false, 2),  // conn 2
	}
	order := runServer(t, RoundRobin, reqs, []float64{0, 1, 2, 3})
	// After 0, round-robin alternates between conns 1 and 2:
	// 1 (conn1), 3 (conn2), 2 (conn1).
	want := []int{0, 1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("RoundRobin order = %v, want %v", order, want)
		}
	}
}

func TestServerRoundRobinHeadOfLineBlocking(t *testing.T) {
	// A single long request on one connection delays every other
	// connection — the Redis "query of death" effect.
	var doneAt []float64
	sim := des.New()
	s := newTestServer(RoundRobin, sim, func(r *request, now float64) {
		doneAt = append(doneAt, now)
	})
	long := mkReq(0, 100, false, 0)
	short := mkReq(1, 1, false, 1)
	enqueueAt(sim, 0, s, long)
	enqueueAt(sim, 1, s, short)
	sim.Run()
	if doneAt[1] != 101 {
		t.Fatalf("short request completed at %v, want 101 (blocked)", doneAt[1])
	}
}

func TestServerLenCountsInService(t *testing.T) {
	sim := des.New()
	s := newTestServer(FIFO, sim, func(*request, float64) {})
	if s.Len() != 0 {
		t.Fatalf("idle Len = %d", s.Len())
	}
	enqueueAt(sim, 0, s, mkReq(0, 5, false, 0), mkReq(1, 5, false, 0))
	sim.RunUntil(1)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (1 in service + 1 waiting)", s.Len())
	}
	sim.RunUntil(6)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after first completion", s.Len())
	}
}

func TestServerBusyTimeAccumulates(t *testing.T) {
	sim := des.New()
	s := newTestServer(FIFO, sim, func(*request, float64) {})
	enqueueAt(sim, 0, s, mkReq(0, 5, false, 0), mkReq(1, 7, false, 0))
	sim.Run()
	if s.busyTime != 12 {
		t.Fatalf("busyTime = %v, want 12", s.busyTime)
	}
}

func TestDisciplineStringsAndParse(t *testing.T) {
	for name, want := range map[string]Discipline{
		"fifo": FIFO, "prio-fifo": PrioFIFO, "prio-lifo": PrioLIFO,
		"round-robin": RoundRobin, "rr": RoundRobin,
	} {
		got, err := DisciplineByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s -> %v, want %v", name, got, want)
		}
	}
	if _, err := DisciplineByName("nope"); err == nil {
		t.Error("bad discipline accepted")
	}
	for _, d := range []Discipline{FIFO, PrioFIFO, PrioLIFO, RoundRobin, Discipline(99)} {
		if d.String() == "" {
			t.Errorf("empty String for %d", int(d))
		}
	}
}
