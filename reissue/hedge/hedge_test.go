package hedge

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/reissue"
)

// unit is the wall-clock length of one policy "millisecond" in these
// tests — small enough to keep them fast, large enough that sleeps
// dominate scheduling noise.
const unit = 200 * time.Microsecond

func sleepFor(ctx context.Context, modelMS float64) error {
	t := time.NewTimer(time.Duration(modelMS * float64(unit)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func mustClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	cfg.Unit = unit
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted neither Policy nor Online")
	}
	if _, err := New(Config{
		Policy: reissue.None{},
		Online: &reissue.OnlineConfig{K: 0.99, B: 0.02, Lambda: 0.5, Window: 200},
	}); err == nil {
		t.Error("New accepted both Policy and Online")
	}
	if _, err := New(Config{Policy: reissue.None{}, Unit: -time.Second}); err == nil {
		t.Error("New accepted a negative Unit")
	}
	// The constructed client's unit is always positive: a zero Unit
	// takes the documented 1ms default, never zero — upstream
	// constructors (tier.New, shard.New) rely on rejecting zero units
	// themselves precisely because this seam substitutes a default.
	c, err := New(Config{Policy: reissue.None{}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Unit() != time.Millisecond {
		t.Errorf("zero Unit defaulted to %v, want 1ms", c.Unit())
	}
	if _, err := New(Config{Online: &reissue.OnlineConfig{K: 2, B: 0.02, Lambda: 0.5, Window: 200}}); err == nil {
		t.Error("New accepted an invalid OnlineConfig")
	}
}

func TestPrimaryWinsNoReissueSent(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 50, Q: 1}, Seed: 1})
	var calls atomic.Int64
	for i := 0; i < 20; i++ {
		v, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
			calls.Add(1)
			if err := sleepFor(ctx, 1); err != nil {
				return nil, err
			}
			return attempt, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 0 {
			t.Fatalf("winner attempt = %v, want primary", v)
		}
	}
	c.Wait()
	s := c.Snapshot()
	if s.Reissued != 0 {
		t.Errorf("fast primary still triggered %d reissues", s.Reissued)
	}
	if s.PrimaryWins != 20 || s.Completed != 20 {
		t.Errorf("snapshot = %+v", s)
	}
	if calls.Load() != 20 {
		t.Errorf("fn called %d times, want 20", calls.Load())
	}
}

func TestReissueWinsAndLoserCancelled(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 2, Q: 1}, Seed: 1})
	primaryCancelled := make(chan struct{})
	v, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		if attempt == 0 {
			// Slow primary: blocks until cancelled.
			<-ctx.Done()
			close(primaryCancelled)
			return nil, ctx.Err()
		}
		if err := sleepFor(ctx, 1); err != nil {
			return nil, err
		}
		return "reissue", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != "reissue" {
		t.Fatalf("winner = %v, want reissue", v)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing primary was never cancelled")
	}
	c.Wait()
	s := c.Snapshot()
	if s.ReissueWins != 1 || s.Reissued != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestLetLoserRunObservesBothCopies(t *testing.T) {
	c := mustClient(t, Config{
		Policy:      reissue.SingleR{D: 1, Q: 1},
		LetLoserRun: true,
		Seed:        1,
	})
	var finished atomic.Int64
	// The primary holds until the reissue has started, so a timer
	// that fires late on a loaded machine still finds it running.
	reissued := make(chan struct{})
	_, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		ms := 2.0
		if attempt == 0 {
			select {
			case <-reissued:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			ms = 10.0 // slow primary, but allowed to finish
		} else {
			close(reissued)
		}
		if err := sleepFor(ctx, ms); err != nil {
			return nil, err
		}
		finished.Add(1)
		return attempt, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Wait()
	if finished.Load() != 2 {
		t.Errorf("%d copies finished, want both", finished.Load())
	}
}

func TestAllCopiesFail(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 1, Q: 1}, Seed: 1})
	boom := errors.New("boom")
	_, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		if err := sleepFor(ctx, 2); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("attempt %d: %w", attempt, boom)
	})
	if !errors.Is(err, ErrAllCopiesFailed) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrAllCopiesFailed wrapping boom", err)
	}
	c.Wait()
	if s := c.Snapshot(); s.Failures != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestReissueRescuesFailedPrimary(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 1, Q: 1}, Seed: 1})
	v, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		if attempt == 0 {
			return nil, errors.New("primary died")
		}
		if err := sleepFor(ctx, 1); err != nil {
			return nil, err
		}
		return "rescued", nil
	})
	if err != nil || v != "rescued" {
		t.Fatalf("v, err = %v, %v", v, err)
	}
	c.Wait()
}

func TestParentContextCancellation(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 5, Q: 1}, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Duration(1 * float64(unit)))
		cancel()
	}()
	_, err := c.Do(ctx, func(ctx context.Context, attempt int) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	c.Wait()
	// A caller walking away is not a backend failure: the query must
	// land in Cancelled, leaving Failures meaning what it says.
	if s := c.Snapshot(); s.Cancelled != 1 || s.Failures != 0 || s.Completed != 1 {
		t.Fatalf("snapshot after parent cancellation: %+v", s)
	}
}

func TestConcurrentDoCountersConsistent(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 1, Q: 0.5}, Seed: 42})
	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ms := 0.5 + float64((w+i)%5)
				_, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
					if err := sleepFor(ctx, ms); err != nil {
						return nil, err
					}
					return attempt, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Wait()
	s := c.Snapshot()
	total := int64(workers * perWorker)
	if s.Issued != total || s.Completed != total {
		t.Fatalf("issued/completed = %d/%d, want %d", s.Issued, s.Completed, total)
	}
	if s.PrimaryWins+s.ReissueWins+s.Failures != total {
		t.Fatalf("wins+failures = %d, want %d (snapshot %+v)",
			s.PrimaryWins+s.ReissueWins+s.Failures, total, s)
	}
	if s.Failures != 0 {
		t.Fatalf("unexpected failures: %+v", s)
	}
	if math.IsNaN(s.P50) || s.P50 <= 0 {
		t.Errorf("tracker P50 = %v, want positive", s.P50)
	}
}

// TestReissueFractionMatchesQ checks the live client's dispatched
// reissue fraction against the configured SingleR parameters: with a
// service time always exceeding the delay D, Pr(X > D) = 1, so the
// dispatch rate must equal the coin-flip probability Q. The timing is
// deliberately coarse (1 ms delay against a 6 ms service time) so
// scheduling noise cannot flip the "already completed?" check.
func TestReissueFractionMatchesQ(t *testing.T) {
	const q = 0.3
	coarse := 2 * time.Millisecond
	c, err := New(Config{Policy: reissue.SingleR{D: 0.5, Q: q}, Seed: 7, Unit: coarse})
	if err != nil {
		t.Fatal(err)
	}
	const n, workers = 2000, 32
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				if _, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
					timer := time.NewTimer(3 * coarse)
					defer timer.Stop()
					select {
					case <-timer.C:
						return attempt, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	c.Wait()
	s := c.Snapshot()
	if math.Abs(s.ReissueRate-q) > 0.03 {
		t.Fatalf("reissue rate = %.3f, want %.2f ± 0.03 (snapshot %+v)", s.ReissueRate, q, s)
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 1, Q: 1}, Seed: 3})
	leaks := leakcheck.Start()
	for i := 0; i < 200; i++ {
		if _, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
			if err := sleepFor(ctx, 0.5+float64(i%3)); err != nil {
				return nil, err
			}
			return attempt, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Wait()
	leaks.Check(t)
}

// TestOnlineRetuning drives an adaptive client with a bimodal
// latency backend and checks that the adapter runs epochs and moves
// the reissue delay off the immediate-reissue seed, while the client
// keeps answering from the fast mode via its reissues.
func TestOnlineRetuning(t *testing.T) {
	c := mustClient(t, Config{
		Online: &reissue.OnlineConfig{K: 0.95, B: 0.10, Lambda: 0.5, Window: 200},
		Seed:   11,
	})
	rng := reissue.NewRNG(99)
	const n = 1200
	for i := 0; i < n; i++ {
		slow := rng.Float64() < 0.08
		if _, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
			ms := 1.0
			if slow && attempt == 0 {
				ms = 20.0
			}
			if err := sleepFor(ctx, ms); err != nil {
				return nil, err
			}
			return attempt, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Wait()
	s := c.Snapshot()
	if s.Epochs == 0 {
		t.Fatalf("online adapter never re-tuned: %+v", s)
	}
	pol, ok := c.Policy().(reissue.SingleR)
	if !ok {
		t.Fatalf("adaptive policy has type %T", c.Policy())
	}
	if pol.D <= 0 {
		t.Errorf("adapter left the immediate-reissue seed in place: %+v", pol)
	}
	if s.ReissueWins == 0 {
		t.Errorf("reissues never rescued a slow primary: %+v", s)
	}
}

// TestDoneContextShortCircuits is the regression test for the
// dispatch-on-dead-context bug: a Do call whose caller context is
// already cancelled at entry must not run the primary (pre-fix it
// dispatched the copy — and burned a wire request — before noticing),
// must not bump Attempts[0].Dispatched, and counts under Cancelled.
func TestDoneContextShortCircuits(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.SingleR{D: 2, Q: 1}, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := c.Do(ctx, func(ctx context.Context, attempt int) (any, error) {
		calls.Add(1)
		return attempt, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("fn dispatched %d times for a dead context, want 0", calls.Load())
	}
	c.Wait()
	s := c.Snapshot()
	if s.Cancelled != 1 || s.Failures != 0 {
		t.Errorf("snapshot counts the walked-away caller wrong: %+v", s)
	}
	if s.Issued != 1 || s.Completed != 1 || s.Reissued != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Attempts[0].Dispatched != 0 {
		t.Errorf("Attempts[0].Dispatched = %d for an undispatched primary, want 0", s.Attempts[0].Dispatched)
	}
}

// TestBackendCancellationCountsCancelled is the regression test for
// the 499-classification bug: when every copy fails with an error
// wrapping context.Canceled — a replica reporting cancelled-while-
// queued before the caller's own ctx error surfaces, the transport's
// 499 path — the query is the caller walking away, not a backend
// failure. Pre-fix it landed in Failures.
func TestBackendCancellationCountsCancelled(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.None{}, Seed: 1})
	wireErr := fmt.Errorf("replica 2 reported the copy cancelled while queued: %w", context.Canceled)
	_, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		return nil, wireErr
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want an error wrapping context.Canceled", err)
	}
	if errors.Is(err, ErrAllCopiesFailed) {
		t.Fatalf("Do dressed a cancellation up as %v", err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Cancelled != 1 || s.Failures != 0 {
		t.Errorf("backend-reported cancellation misclassified: %+v", s)
	}

	// A genuine backend failure still lands in Failures.
	_, err = c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		return nil, errors.New("disk on fire")
	})
	if !errors.Is(err, ErrAllCopiesFailed) {
		t.Fatalf("Do returned %v, want ErrAllCopiesFailed", err)
	}
	c.Wait()
	if s := c.Snapshot(); s.Cancelled != 1 || s.Failures != 1 {
		t.Errorf("snapshot after a real failure: %+v", s)
	}
}

// descendingPolicy is a foreign policy that violates the Policy
// contract's ascending-plan requirement — the case the
// sort.Float64sAreSorted / planBySlotDelay fallback in Do exists for.
type descendingPolicy struct{ delays []float64 }

func (p descendingPolicy) Plan(*reissue.RNG) []float64 {
	return append([]float64(nil), p.delays...)
}
func (p descendingPolicy) String() string { return "descending(contract-violating)" }

// TestUnsortedPlanDispatchedInTimeOrder covers the unsorted-plan
// fallback: a plan emitted as {40, 10} must still dispatch its copies
// in time order (the 10-unit copy first) with each copy keeping the
// slot of its configured delay — slot 1 is the 40-unit delay (plan
// position 0), slot 2 the 10-unit delay — so the attempt histogram
// attributes wins to the right delay.
func TestUnsortedPlanDispatchedInTimeOrder(t *testing.T) {
	c := mustClient(t, Config{Policy: descendingPolicy{delays: []float64{40, 10}}, Seed: 1})
	start := time.Now()
	type dispatch struct {
		attempt int
		at      time.Duration
	}
	var mu sync.Mutex
	var dispatches []dispatch
	v, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		mu.Lock()
		dispatches = append(dispatches, dispatch{attempt, time.Since(start)})
		mu.Unlock()
		if attempt == 0 {
			// Slow primary: blocks until the query is decided, so both
			// planned copies dispatch.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		if err := sleepFor(ctx, 60); err != nil {
			return nil, err
		}
		return attempt, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(dispatches) != 3 {
		t.Fatalf("dispatched %d copies, want 3: %+v", len(dispatches), dispatches)
	}
	// Dispatch order: primary, then slot 2 (delay 10), then slot 1
	// (delay 40) — time order despite the descending plan.
	wantOrder := []int{0, 2, 1}
	for i, d := range dispatches {
		if d.attempt != wantOrder[i] {
			t.Fatalf("dispatch %d was attempt %d, want %d (order %+v)", i, d.attempt, wantOrder[i], dispatches)
		}
	}
	// Each copy must wait out at least its own delay. Only lower
	// bounds and the relative order are asserted — an upper bound in
	// wall-clock terms races scheduler/GC stalls on the 1-CPU CI box.
	if at := dispatches[1].at; at < 10*unit {
		t.Errorf("slot-2 copy (delay 10) dispatched at %v, before its delay (unit %v)", at, unit)
	}
	if at := dispatches[2].at; at < 40*unit {
		t.Errorf("slot-1 copy (delay 40) dispatched at %v, before its delay (unit %v)", at, unit)
	}
	// Slot attribution: the 10-unit copy dispatched first and, with a
	// 60-unit hold, answers at ~70 — before the 40-unit copy's ~100 —
	// so slot 2 wins and each slot records exactly one dispatch.
	if v.(int) != 2 {
		t.Fatalf("winner = %v, want slot 2", v)
	}
	s := c.Snapshot()
	if len(s.Attempts) != 3 ||
		s.Attempts[1].Dispatched != 1 || s.Attempts[2].Dispatched != 1 ||
		s.Attempts[1].Wins != 0 || s.Attempts[2].Wins != 1 {
		t.Errorf("attempt histogram misattributed slots: %+v", s.Attempts)
	}
}

// TestDoAllocs pins the per-query allocation ceilings of Do's hot
// path against an instant backend: one call record, one results
// channel, the copies' context and the primary's goroutine, plus the
// plan timer and its callbacks when reissues are planned. A
// regression here is paid on every live query.
func TestDoAllocs(t *testing.T) {
	mr3, err := reissue.NewMultipleR([]float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pol  reissue.Policy
		max  float64
	}{
		{"none", reissue.None{}, 6},
		{"singled", reissue.SingleD{D: 0}, 11},
		{"multipler3", mr3, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustClient(t, Config{Policy: tc.pol, Seed: 1})
			fn := func(ctx context.Context, attempt int) (any, error) { return attempt, nil }
			ctx := context.Background()
			got := testing.AllocsPerRun(500, func() {
				if _, err := c.Do(ctx, fn); err != nil {
					t.Fatal(err)
				}
				c.Wait()
			})
			if got > tc.max {
				t.Errorf("Do under %v: %.1f allocs/op, ceiling %.0f", tc.pol, got, tc.max)
			}
		})
	}
}

// TestConcurrentDoPlanSettlement hammers the plan-settling race —
// zero delays make every planned copy's timer fire while the
// collector is settling — and checks the accounting closes: every
// query completes, every dispatch is either a primary or a counted
// reissue, and Wait returns (no WaitGroup count is lost or doubled).
func TestConcurrentDoPlanSettlement(t *testing.T) {
	pol, err := reissue.NewMultipleR([]float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, Config{Policy: pol, Seed: 5})
	const workers, perWorker = 50, 100 // 5k queries
	fn := func(ctx context.Context, attempt int) (any, error) { return attempt, nil }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Do(context.Background(), fn); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waited := make(chan struct{})
	go func() {
		c.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return: a plan's WaitGroup count was never released")
	}
	s := c.Snapshot()
	const total = workers * perWorker
	if s.Issued != total || s.Completed != total {
		t.Fatalf("issued/completed = %d/%d, want %d", s.Issued, s.Completed, total)
	}
	var dispatched int64
	for _, a := range s.Attempts {
		dispatched += a.Dispatched
	}
	if dispatched != s.Issued+s.Reissued {
		t.Errorf("Σ Attempts.Dispatched = %d, want Issued+Reissued = %d (snapshot %+v)",
			dispatched, s.Issued+s.Reissued, s)
	}
}

// TestLetLoserRunReleasesPlannedCopies: under LetLoserRun the losing
// dispatched copies keep running, but a planned copy that was never
// sent has nothing to finish — a winner must release it at once, so
// neither Do nor Wait waits out its 500-unit delay. The second case
// has a reissue already dispatched (and re-armed for the tail slot)
// when the primary wins.
func TestLetLoserRunReleasesPlannedCopies(t *testing.T) {
	doubleR, err := reissue.DoubleR(1, 1, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pol  reissue.Policy
	}{
		{"planned", reissue.SingleD{D: 500}},
		{"mid-plan", doubleR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustClient(t, Config{Policy: tc.pol, LetLoserRun: true, Seed: 1})
			start := time.Now()
			v, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
				ms := 10.0
				if attempt == 0 {
					ms = 4 // the primary wins, after the delay-1 reissue is sent
				}
				if err := sleepFor(ctx, ms); err != nil {
					return nil, err
				}
				return attempt, nil
			})
			if err != nil || v.(int) != 0 {
				t.Fatalf("v, err = %v, %v; want the primary", v, err)
			}
			limit := time.Duration(100 * float64(unit))
			if elapsed := time.Since(start); elapsed > limit {
				t.Errorf("Do took %v, want < %v", elapsed, limit)
			}
			c.Wait()
			if waited := time.Since(start); waited > limit {
				t.Errorf("Wait returned after %v, want < %v — planned copy not released", waited, limit)
			}
			s := c.Snapshot()
			if got := s.Attempts[len(s.Attempts)-1].Dispatched; got != 0 {
				t.Errorf("the 500-unit slot dispatched %d times, want 0", got)
			}
		})
	}
}
