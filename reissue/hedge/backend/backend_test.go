package backend

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/leakcheck"
	"repro/internal/searchengine"
	"repro/reissue"
	"repro/reissue/hedge"
)

const unit = 500 * time.Microsecond

func kvWorkload(t *testing.T, queries int) *kvstore.Workload {
	t.Helper()
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 300, NumQueries: queries, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	w := kvWorkload(t, 50)
	if _, err := NewKV(w, Config{Replicas: 0}); err == nil {
		t.Error("NewKV accepted zero replicas")
	}
	if _, err := NewKV(w, Config{Replicas: 2, Unit: -time.Second}); err == nil {
		t.Error("NewKV accepted a negative unit")
	}
	if _, err := NewKV(nil, Config{Replicas: 2}); err == nil {
		t.Error("NewKV accepted a nil workload")
	}
	if _, err := NewSearch(nil, Config{Replicas: 2}); err == nil {
		t.Error("NewSearch accepted a nil workload")
	}
}

func TestRequestExecutesRealWork(t *testing.T) {
	w := kvWorkload(t, 50)
	c, err := NewKV(w, Config{Replicas: 2, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := c.Request(i)(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		// The live backend runs the same SInter the workload generator
		// timed, so the returned cardinality must match a re-execution.
		q := w.Queries[i]
		want, _ := w.Store.SInter(q.A, q.B)
		if v.(int) != len(want) {
			t.Fatalf("query %d returned %v, want %d", i, v, len(want))
		}
	}
}

func TestSearchBackendServes(t *testing.T) {
	w, err := searchengine.GenerateWorkload(searchengine.WorkloadConfig{NumQueries: 30})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSearch(w, Config{Replicas: 2, Unit: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(0)(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaSerializes checks the single-threaded-server model: two
// concurrent requests on a one-replica cluster must take at least the
// sum of their service times.
func TestReplicaSerializes(t *testing.T) {
	w := kvWorkload(t, 50)
	c, err := NewKV(w, Config{Replicas: 1, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	const serviceMS = 4.0
	c.times[0], c.times[1] = serviceMS, serviceMS

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Request(i)(context.Background(), 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := time.Since(start); got < time.Duration(2*serviceMS*float64(unit)) {
		t.Fatalf("two requests on one replica finished in %v, faster than serial execution", got)
	}
}

// TestCancelWhileQueued checks that a request still waiting for the
// server thread is reclaimable via context cancellation — the path
// the hedging client uses to withdraw the losing copy.
func TestCancelWhileQueued(t *testing.T) {
	w := kvWorkload(t, 50)
	c, err := NewKV(w, Config{Replicas: 1, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	c.times[0] = 40 // long occupant

	occupying := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(occupying)
		c.Request(0)(context.Background(), 0)
		close(done)
	}()
	<-occupying
	time.Sleep(time.Duration(2 * float64(unit))) // let it enter service

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Duration(2 * float64(unit)))
		cancel()
	}()
	if _, err := c.Request(1)(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request returned %v, want context.Canceled", err)
	}
	<-done
}

// TestHedgedOpenLoopRun drives the full stack — open-loop Poisson
// load through a hedge.Client against live replicas — and checks the
// counters stay consistent under the race detector.
func TestHedgedOpenLoopRun(t *testing.T) {
	w := kvWorkload(t, 1000)
	c, err := NewKV(w, Config{Replicas: 4, Unit: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	client, err := hedge.New(hedge.Config{
		Policy: reissue.SingleR{D: 5, Q: 0.5},
		Unit:   100 * time.Microsecond,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	lats, err := RunOpenLoop(context.Background(), c, client, n, c.ArrivalRate(0.3), 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(lats) != n {
		t.Fatalf("got %d latencies, want %d", len(lats), n)
	}
	for i, l := range lats {
		if l <= 0 {
			t.Fatalf("latency[%d] = %v, want positive", i, l)
		}
	}
	s := client.Snapshot()
	if s.Completed != n || s.Failures != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// TestRunOpenLoopCancelWaitsForCopies is the regression test for the
// ctx-cancellation early return: RunOpenLoop must not return until
// every in-flight copy goroutine has finished (it used to skip
// client.Wait() on that path, leaking copies past the run).
func TestRunOpenLoopCancelWaitsForCopies(t *testing.T) {
	w := kvWorkload(t, 200)
	back, err := NewKV(w, Config{Replicas: 2, Unit: time.Millisecond, MinServiceMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	leaks := leakcheck.Start()
	client, err := hedge.New(hedge.Config{
		Policy: reissue.SingleR{D: 1, Q: 1}, Unit: time.Millisecond, LetLoserRun: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond) // a handful of queries in flight
		cancel()
	}()
	if _, err := RunOpenLoop(ctx, back, client, 200, 0.5, 11); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// RunOpenLoop already waited for the client, so no copy goroutines
	// may outlive the call.
	leaks.Check(t)
}

// TestNewCustomBackend checks the generic constructor: an arbitrary
// (times, exec) pair gets the same replica semantics as the named
// workloads — real execution inside the hold and per-attempt routing.
func TestNewCustomBackend(t *testing.T) {
	times := []float64{1, 2, 3}
	back, err := NewCustom(times, func(i int) (any, error) { return i * 10, nil }, Config{
		Replicas: 2, Unit: unit,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := back.Request(i)(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != (i%len(times))*10 {
			t.Fatalf("query %d executed wrong work: %v", i, v)
		}
	}
	if _, err := NewCustom(times, nil, Config{Replicas: 1}); err == nil {
		t.Error("NewCustom accepted a nil executor")
	}
	if _, err := NewCustom(nil, func(int) (any, error) { return nil, nil }, Config{Replicas: 1}); err == nil {
		t.Error("NewCustom accepted an empty trace")
	}
}

// TestMeasuredSourcePrimaries checks the per-source dispatch
// counters: warmup copies pass through unrecorded, and the primary
// count is the denominator a composition routing a subset of queries
// through this source divides its reissue count by.
func TestMeasuredSourcePrimaries(t *testing.T) {
	w := kvWorkload(t, 50)
	back, err := NewKV(w, Config{Replicas: 2, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeasuredSource(back, 10)
	ctx := context.Background()
	for _, q := range []struct{ i, attempt int }{
		{5, 0},  // warmup: unrecorded
		{12, 0}, // measured primary
		{12, 1}, // measured reissue
		{30, 0}, // measured primary
	} {
		if _, err := m.Request(q.i)(ctx, q.attempt); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Primaries(); got != 2 {
		t.Errorf("Primaries() = %d, want 2", got)
	}
	if got := m.Reissues(); got != 1 {
		t.Errorf("Reissues() = %d, want 1", got)
	}
}

// TestRequestAllocs pins the serving path's allocation ceiling: the
// query's Fn is the one allocation, and a copy that finds its replica
// idle runs without a pending record or a work closure.
func TestRequestAllocs(t *testing.T) {
	back, err := NewCustom([]float64{0}, func(int) (any, error) { return nil, nil }, Config{
		Replicas: 2, Unit: unit,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		if _, err := back.Request(3)(ctx, 0); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("Request + idle serve: %.1f allocs/op, ceiling 1", got)
	}
}
