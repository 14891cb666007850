package cluster

import (
	"testing"

	"repro/internal/des"
	"repro/internal/sched"
	"repro/reissue"
)

// batchServer builds a Batch-discipline server that records launched
// batch memberships (by query id) and completion times.
func batchServer(bcfg sched.BatchConfig, sim *des.Sim, batches *[][]int, doneAt *map[int]float64) *server {
	return newServer(0, Batch, bcfg, sim, new(int),
		func(r *request, now float64) { (*doneAt)[r.q.id] = now },
		func(_ int, members []*request) {
			ids := make([]int, len(members))
			for i, m := range members {
				ids[i] = m.q.id
			}
			*batches = append(*batches, ids)
		})
}

// TestServerBatchCoalescesOnFill pins the fill path: with Size=2 and a
// long linger, the second arrival launches the batch immediately, and
// the batch holds the server for the cost model's time (zero cost
// model: the slowest member's solo time).
func TestServerBatchCoalescesOnFill(t *testing.T) {
	sim := des.New()
	var batches [][]int
	doneAt := map[int]float64{}
	s := batchServer(sched.BatchConfig{Size: 2, LingerMS: 50}, sim, &batches, &doneAt)
	a := mkReq(0, 10, false, 0)
	b := mkReq(1, 4, false, 0)
	enqueueAt(sim, 0, s, a)
	enqueueAt(sim, 1, s, b)
	sim.Run()
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("batches = %v, want one batch of 2", batches)
	}
	// Launch at t=1 (fill), service = max(10, 4) = 10 under the zero
	// cost model; both members complete together at t=11.
	if doneAt[0] != 11 || doneAt[1] != 11 {
		t.Fatalf("completions = %v, want both at 11", doneAt)
	}
}

// TestServerBatchLingerExpiry pins the window path: an underfull batch
// launches when the linger window (opened at first admission to an
// idle server) expires.
func TestServerBatchLingerExpiry(t *testing.T) {
	sim := des.New()
	var batches [][]int
	doneAt := map[int]float64{}
	s := batchServer(sched.BatchConfig{Size: 3, LingerMS: 5}, sim, &batches, &doneAt)
	enqueueAt(sim, 0, s, mkReq(0, 2, false, 0))
	sim.Run()
	// Window opens at t=0, expires at t=5, solo batch completes at 7.
	if doneAt[0] != 7 {
		t.Fatalf("completion at %v, want 7 (linger 5 + service 2)", doneAt[0])
	}
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v, want one solo batch", batches)
	}
}

// TestServerBatchZeroLingerImmediate pins Linger=0: an idle server
// launches immediately with whatever is queued, so back-to-back
// arrivals run as consecutive solo batches.
func TestServerBatchZeroLingerImmediate(t *testing.T) {
	sim := des.New()
	var batches [][]int
	doneAt := map[int]float64{}
	s := batchServer(sched.BatchConfig{Size: 4}, sim, &batches, &doneAt)
	enqueueAt(sim, 0, s, mkReq(0, 3, false, 0))
	// Arrives mid-service of batch 1; served in a second batch with
	// the request arriving during the same hold.
	enqueueAt(sim, 1, s, mkReq(1, 2, false, 0))
	enqueueAt(sim, 2, s, mkReq(2, 2, false, 0))
	sim.Run()
	if doneAt[0] != 3 {
		t.Fatalf("first completion at %v, want 3 (immediate launch)", doneAt[0])
	}
	if len(batches) != 2 || len(batches[1]) != 2 {
		t.Fatalf("batches = %v, want [[0] [1 2]]", batches)
	}
	if doneAt[1] != 5 || doneAt[2] != 5 {
		t.Fatalf("second batch completions = %v, want both at 5", doneAt)
	}
}

// TestServerBatchCostModel pins the size-dependent hold: Scale and
// PerItem inflate the batch beyond its slowest member.
func TestServerBatchCostModel(t *testing.T) {
	sim := des.New()
	var batches [][]int
	doneAt := map[int]float64{}
	s := batchServer(sched.BatchConfig{
		Size: 2, Cost: sched.BatchCost{Scale: 0.1, PerItem: 2},
	}, sim, &batches, &doneAt)
	enqueueAt(sim, 0, s, mkReq(0, 10, false, 0), mkReq(1, 4, false, 0))
	sim.Run()
	// Same-instant pair: the first Enqueue launches a solo batch
	// (Linger=0), the second runs alone after it: 10 then 10+4.
	if doneAt[0] != 10 || doneAt[1] != 14 {
		t.Fatalf("completions = %v, want 10 and 14", doneAt)
	}
	if s.busyTime != 14 {
		t.Fatalf("busyTime = %v, want 14", s.busyTime)
	}
}

// TestClusterBatchMembership runs the full simulator under the Batch
// discipline on an explicit arrival schedule with an
// always-reissue-immediately policy on one server, pinning the
// hedge-lands-in-own-batch hazard: with R=1 every hedged copy routes
// to its primary's replica, and a hedge dispatched while the batch
// still lingers joins the primary's own batch.
func TestClusterBatchMembership(t *testing.T) {
	c, err := New(Config{
		Servers:    1,
		Queries:    3,
		Discipline: Batch,
		Batch:      sched.BatchConfig{Size: 4, LingerMS: 5},
		Source:     &TraceSource{Times: []float64{20, 20, 20}},
		// Arrivals well inside one linger window.
		ArrivalTimes: []float64{0, 1, 2},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunDetailed(reissue.SingleD{D: 0})
	if res.ReissueRate != 1 {
		t.Fatalf("reissue rate = %v, want 1 (SingleD delay 0)", res.ReissueRate)
	}
	if len(res.Batches) != 2 {
		t.Fatalf("batches = %v, want 2 (size-4 fill, then the leftovers)", res.Batches)
	}
	b := res.Batches[0]
	want := []sched.Member{
		{Query: 0}, {Query: 0, Reissue: true},
		{Query: 1}, {Query: 1, Reissue: true},
	}
	if len(b.Members) != len(want) {
		t.Fatalf("batch 1 members = %v, want %v", b.Members, want)
	}
	for i := range want {
		if b.Members[i] != want[i] {
			t.Fatalf("batch 1 members = %v, want %v", b.Members, want)
		}
	}
	rest := res.Batches[1].Members
	if len(rest) != 2 || rest[0] != (sched.Member{Query: 2}) || rest[1] != (sched.Member{Query: 2, Reissue: true}) {
		t.Fatalf("batch 2 members = %v, want query 2's pair", rest)
	}
}

// TestClusterArrivalTimesValidation pins the explicit-schedule
// validation: short schedules, decreasing instants, and FanOut
// combinations are rejected.
func TestClusterArrivalTimesValidation(t *testing.T) {
	base := Config{
		Servers: 1, Queries: 2, Discipline: Batch,
		Batch:  sched.BatchConfig{Size: 2},
		Source: &TraceSource{Times: []float64{1}},
	}
	cfg := base
	cfg.ArrivalTimes = []float64{0}
	if _, err := New(cfg); err == nil {
		t.Error("short ArrivalTimes accepted")
	}
	cfg = base
	cfg.ArrivalTimes = []float64{1, 0}
	if _, err := New(cfg); err == nil {
		t.Error("decreasing ArrivalTimes accepted")
	}
	cfg = base
	cfg.Queries, cfg.FanOut = 2, 2
	cfg.ArrivalTimes = []float64{0, 1}
	if _, err := New(cfg); err == nil {
		t.Error("ArrivalTimes + FanOut accepted")
	}
	cfg = base
	cfg.Batch = sched.BatchConfig{}
	if _, err := New(cfg); err == nil {
		t.Error("Batch discipline with size 0 accepted")
	}
}
