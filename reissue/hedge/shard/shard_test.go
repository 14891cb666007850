package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/leakcheck"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

const unit = 500 * time.Microsecond

// kvShards partitions one kvstore workload over S shards and stands
// each shard up as an in-process replicated backend.
func kvShards(t *testing.T, queries, shards, replicas int, cfg backend.Config) []backend.Source {
	t.Helper()
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 300, NumQueries: queries, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := w.Partition(shards)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]backend.Source, shards)
	for s := range parts {
		cfg := cfg
		cfg.Replicas = replicas
		back, err := backend.NewKV(parts[s], cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[s] = back
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty fleet")
	}
	srcs := kvShards(t, 50, 2, 2, backend.Config{Unit: unit})
	if _, err := New(Config{Shards: srcs}); err == nil {
		t.Error("New accepted a config with neither Policy nor Online")
	}
	if _, err := New(Config{Shards: []backend.Source{srcs[0], nil}, Hedge: hedge.Config{Policy: reissue.None{}}}); err == nil {
		t.Error("New accepted a nil shard")
	}
	mixed := kvShards(t, 50, 1, 2, backend.Config{Unit: 2 * unit})
	if _, err := New(Config{
		Shards: []backend.Source{srcs[0], mixed[0]},
		Hedge:  hedge.Config{Policy: reissue.None{}},
	}); err == nil {
		t.Error("New accepted shards with mismatched units")
	}
	// All-zero units pass the mismatch check, and the per-shard hedge
	// clients then silently fall back to hedge's 1ms default — a
	// wall-clock scale unrelated to what the sources report.
	zero := sourceFunc{unit: 0, fn: func(context.Context, int) (any, error) { return "v", nil }}
	if _, err := New(Config{
		Shards: []backend.Source{zero, zero},
		Hedge:  hedge.Config{Policy: reissue.None{}},
	}); err == nil {
		t.Error("New accepted shards whose sources all report a zero Unit")
	}
}

// TestDoSourceCancellationCountsCancelled pins the Cancelled-vs-
// Failure taxonomy at the fan-out level: an error that wraps
// context.Canceled (the transport's 499, or a composed sub-graph
// cancelling its own losers) is a cancellation even when the parent
// context is still live — the same classification hedge.Do and
// tier.Do already apply.
func TestDoSourceCancellationCountsCancelled(t *testing.T) {
	wrapped := fmt.Errorf("rpc aborted: %w", context.Canceled)
	src := sourceFunc{unit: unit, fn: func(context.Context, int) (any, error) { return nil, wrapped }}
	r, err := New(Config{
		Shards: []backend.Source{src, src},
		Hedge:  hedge.Config{Policy: reissue.None{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, doErr := r.Do(context.Background(), 0)
	r.Wait()
	if !errors.Is(doErr, context.Canceled) {
		t.Fatalf("Do = %v, want an error wrapping context.Canceled", doErr)
	}
	snap := r.Snapshot()
	if snap.Cancelled != 1 || snap.Failures != 0 {
		t.Errorf("cancellation-shaped sub-query error misclassified: Cancelled=%d Failures=%d, want 1/0",
			snap.Cancelled, snap.Failures)
	}
}

// TestDoDeadContextShortCircuits: a caller whose context is already
// done must not fan anything out — the router counts one Cancelled
// query and the per-shard clients never see it, exactly as tier.Do
// treats its sub-clients.
func TestDoDeadContextShortCircuits(t *testing.T) {
	src := sourceFunc{unit: unit, fn: func(context.Context, int) (any, error) { return "v", nil }}
	r, err := New(Config{
		Shards: []backend.Source{src, src},
		Hedge:  hedge.Config{Policy: reissue.None{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, doErr := r.Do(ctx, 0)
	r.Wait()
	if !errors.Is(doErr, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", doErr)
	}
	snap := r.Snapshot()
	if snap.Issued != 1 || snap.Completed != 1 || snap.Cancelled != 1 {
		t.Errorf("router counters = issued %d / completed %d / cancelled %d, want 1/1/1",
			snap.Issued, snap.Completed, snap.Cancelled)
	}
	for s, cs := range snap.Shards {
		if cs.Issued != 0 {
			t.Errorf("shard %d client saw %d queries from a dead-context fan-out, want 0", s, cs.Issued)
		}
	}
}

// TestRouterAsSource pins the Source adapter: a router behind an
// outer hedging client answers with the per-shard []any in shard
// order, the query index reaches every shard unchanged, and
// cancelling the outer context cancels the whole fan-out.
func TestRouterAsSource(t *testing.T) {
	mk := func(name string) sourceFunc {
		return sourceFunc{unit: unit, fn: func(ctx context.Context, _ int) (any, error) {
			if err := sleepFor(ctx, 1); err != nil {
				return nil, err
			}
			return name, nil
		}}
	}
	r, err := New(Config{
		Shards: []backend.Source{mk("a"), mk("b")},
		Hedge:  hedge.Config{Policy: reissue.None{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := hedge.New(hedge.Config{Policy: reissue.None{}, Unit: r.Unit()})
	if err != nil {
		t.Fatal(err)
	}
	v, err := outer.Do(context.Background(), r.Request(3))
	if err != nil {
		t.Fatal(err)
	}
	vals, ok := v.([]any)
	if !ok || len(vals) != 2 || vals[0] != "a" || vals[1] != "b" {
		t.Fatalf("composed fan-out = %#v, want [a b]", v)
	}

	slow := sourceFunc{unit: unit, fn: func(ctx context.Context, _ int) (any, error) {
		if err := sleepFor(ctx, 500); err != nil {
			return nil, err
		}
		return "slow", nil
	}}
	r2, err := New(Config{
		Shards: []backend.Source{slow, slow},
		Hedge:  hedge.Config{Policy: reissue.None{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Duration(20 * float64(unit)))
		cancel()
	}()
	if _, err := outer.Do(ctx, r2.Request(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled composed fan-out returned %v, want context.Canceled", err)
	}
	outer.Wait()
	r2.Wait()
	if s := r2.Snapshot(); s.Cancelled != 1 || s.Failures != 0 {
		t.Errorf("router misclassified the outer cancellation: Cancelled=%d Failures=%d", s.Cancelled, s.Failures)
	}
}

// TestFanOutWaitsForSlowestShard pins the max-over-shards semantic:
// Do returns only when every shard has answered, so its latency is
// at least the slowest shard's sub-query time.
func TestFanOutWaitsForSlowestShard(t *testing.T) {
	var slowHit atomic.Int64
	slow := sourceFunc{
		unit: unit,
		fn: func(ctx context.Context, attempt int) (any, error) {
			defer slowHit.Add(1)
			if err := sleepFor(ctx, 8); err != nil {
				return nil, err
			}
			return "slow", nil
		},
	}
	fast := sourceFunc{
		unit: unit,
		fn: func(ctx context.Context, attempt int) (any, error) {
			if err := sleepFor(ctx, 1); err != nil {
				return nil, err
			}
			return "fast", nil
		},
	}
	r, err := New(Config{
		Shards: []backend.Source{fast, slow, fast},
		Hedge:  hedge.Config{Policy: reissue.None{}, Unit: unit, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	vals, err := r.Do(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(time.Since(t0)) / float64(unit); got < 8 {
		t.Errorf("Do returned after %.1f model-ms, before the slowest shard's 8", got)
	}
	if vals[0] != "fast" || vals[1] != "slow" || vals[2] != "fast" {
		t.Errorf("per-shard values out of shard order: %v", vals)
	}
	if slowHit.Load() != 1 {
		t.Errorf("slow shard served %d sub-queries, want 1", slowHit.Load())
	}
	r.Wait()
	s := r.Snapshot()
	if s.Completed != 1 || s.Failures != 0 || s.Cancelled != 0 {
		t.Errorf("router snapshot: %+v", s)
	}
	if len(s.Shards) != 3 || s.Shards[1].Completed != 1 {
		t.Errorf("per-shard snapshots not merged: %+v", s.Shards)
	}
	if math.IsNaN(s.P50) || s.P50 < 8 {
		t.Errorf("end-to-end P50 = %v, want >= slowest shard's 8", s.P50)
	}
}

// TestShardFailureIsFailureCancellationIsNot pins the fan-out error
// taxonomy, mirroring the hedging client's: a shard failing outright
// is a Failure; the caller walking away is Cancelled.
func TestShardFailureIsFailureCancellationIsNot(t *testing.T) {
	boom := errors.New("boom")
	bad := sourceFunc{unit: unit, fn: func(ctx context.Context, attempt int) (any, error) {
		return nil, boom
	}}
	ok := sourceFunc{unit: unit, fn: func(ctx context.Context, attempt int) (any, error) {
		return 1, nil
	}}
	r, err := New(Config{
		Shards: []backend.Source{ok, bad},
		Hedge:  hedge.Config{Policy: reissue.None{}, Unit: unit, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Do(context.Background(), 0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	r.Wait()
	if s := r.Snapshot(); s.Failures != 1 || s.Cancelled != 0 {
		t.Fatalf("snapshot after shard failure: %+v", s)
	}

	hang := sourceFunc{unit: unit, fn: func(ctx context.Context, attempt int) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	r2, err := New(Config{
		Shards: []backend.Source{ok, hang},
		Hedge:  hedge.Config{Policy: reissue.None{}, Unit: unit, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Duration(2 * float64(unit)))
		cancel()
	}()
	if _, err := r2.Do(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	r2.Wait()
	if s := r2.Snapshot(); s.Cancelled != 1 || s.Failures != 0 {
		t.Fatalf("snapshot after caller cancellation: %+v", s)
	}
}

// TestRouterNoGoroutineLeak runs a hedged fan-out burst and checks
// every copy and fan-out goroutine is reaped by Wait.
func TestRouterNoGoroutineLeak(t *testing.T) {
	srcs := kvShards(t, 100, 3, 2, backend.Config{Unit: unit})
	leaks := leakcheck.Start()
	r, err := New(Config{
		Shards: srcs,
		Hedge:  hedge.Config{Policy: reissue.SingleR{D: 1, Q: 1}, Unit: unit, LetLoserRun: true, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := r.Do(context.Background(), i); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	r.Wait()
	leaks.Check(t)
}

// sourceFunc adapts a bare hedge.Fn to backend.Source for tests.
type sourceFunc struct {
	unit time.Duration
	fn   hedge.Fn
}

func (s sourceFunc) Request(i int) hedge.Fn { return s.fn }
func (s sourceFunc) Unit() time.Duration    { return s.unit }

// sleepFor sleeps the given model time, honoring cancellation.
func sleepFor(ctx context.Context, ms float64) error {
	select {
	case <-time.After(time.Duration(ms * float64(unit))):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
