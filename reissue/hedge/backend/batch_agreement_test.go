package backend

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/reissue"
	"repro/reissue/hedge"
)

// TestBatchSimLiveAgreement is the exact check the explicit
// arrival-schedule machinery (cluster.Config.ArrivalTimes /
// backend.OpenLoopAt) exists for, in the batched serving regime: one
// shared schedule with a deterministic SingleD policy on one replica,
// where both worlds must produce the byte-identical sequence of
// batches, query by query and member by member. The schedule is built
// so that batches 1–2 coalesce two different queries' copies while
// batches 3–4 pin the hedge-lands-in-own-batch hazard: with R=1 the
// hedged copy routes to its primary's replica and joins the batch
// still lingering for its primary. The statistical rate check under
// Poisson arrivals is a topo fleet run (reissue/hedge/topo).
func TestBatchSimLiveAgreement(t *testing.T) {
	t.Run("membership", testBatchMembershipEquality)
}

// batchSchedule is the shared explicit arrival schedule for the
// membership check, in model ms, with per-query solo service 40 and
// SingleD delay 30:
//
//	q0@0, q1@2   -> fill the size-2 batch [q0, q1] at 2, done ~54
//	hedges @30/32 (primaries still in service) queue; batch
//	[q0', q1'] launches at completion 54, done ~106
//	q2@80 queues; at 106 it lingers alone; its hedge @110 joins ->
//	[q2, q2']  (the pinned hedge-in-own-batch case), done ~162
//	q3@160 queues or lingers; its hedge @190 joins -> [q3, q3']
//
// Every ordering the assertion depends on has >= 2 model ms (4 ms
// wall) of slack; window expiries and completions have tens.
var (
	batchSchedule = []float64{0, 2, 80, 160}
	batchWant     = [][]sched.Member{
		{{Query: 0}, {Query: 1}},
		{{Query: 0, Reissue: true}, {Query: 1, Reissue: true}},
		{{Query: 2}, {Query: 2, Reissue: true}},
		{{Query: 3}, {Query: 3, Reissue: true}},
	}
)

func testBatchMembershipEquality(t *testing.T) {
	const (
		liveUnit = 2 * time.Millisecond
		service  = 40.0
	)
	bcfg := sched.BatchConfig{
		Size: 2, LingerMS: 50,
		Cost: sched.BatchCost{Scale: 0.25, PerItem: 2},
	}
	pol := reissue.SingleD{D: 30}
	times := []float64{service, service, service, service}

	// --- Simulator on the explicit schedule ---
	sim, err := cluster.New(cluster.Config{
		Servers:      1,
		Queries:      len(batchSchedule),
		ArrivalTimes: batchSchedule,
		Source:       &cluster.TraceSource{Times: times},
		Discipline:   cluster.Batch,
		Batch:        bcfg,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	simRes := sim.RunDetailed(pol)
	checkBatches(t, "sim", len(simRes.Batches), func(i int) []sched.Member {
		if simRes.Batches[i].Server != 0 {
			t.Errorf("sim batch %d on server %d, want 0", i, simRes.Batches[i].Server)
		}
		return simRes.Batches[i].Members
	})

	// --- Live replica on the same schedule via OpenLoopAt ---
	log := &BatchLog{}
	back, err := NewCustom(times, func(int) (any, error) { return nil, nil }, Config{
		Replicas: 1, Unit: liveUnit, MinServiceMS: 1.0,
		Discipline: sched.Batch, Batch: bcfg,
		BatchLog: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := hedge.New(hedge.Config{
		Policy: pol, Unit: liveUnit, LetLoserRun: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLoopAt(context.Background(), liveUnit, batchSchedule,
		func(ctx context.Context, i int) error {
			_, err := client.Do(ctx, back.Request(i))
			return err
		}, client.Wait); err != nil {
		t.Fatal(err)
	}
	recs := log.Records()
	checkBatches(t, "live", len(recs), func(i int) []sched.Member {
		if recs[i].Replica != 0 {
			t.Errorf("live batch %d on replica %d, want 0", i, recs[i].Replica)
		}
		return recs[i].Members
	})
}

// checkBatches asserts one world's launch-ordered batches equal the
// shared expectation, member by member.
func checkBatches(t *testing.T, world string, n int, members func(int) []sched.Member) {
	t.Helper()
	if n != len(batchWant) {
		t.Fatalf("%s launched %d batches, want %d", world, n, len(batchWant))
	}
	for i, want := range batchWant {
		got := members(i)
		if len(got) != len(want) {
			t.Fatalf("%s batch %d members = %v, want %v", world, i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s batch %d members = %v, want %v", world, i, got, want)
			}
		}
	}
}
