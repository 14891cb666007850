package hedge

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/reissue"
)

// TestRetryAccounting pins the retry-vs-reissue bookkeeping: retries
// re-run the same attempt slot inside one copy, bump only Retried,
// and never inflate Reissued or Attempts[].Dispatched.
func TestRetryAccounting(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.None{}, MaxRetries: 2, Seed: 1})
	var tries atomic.Int64
	v, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		if tries.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = %v, %v; want ok, nil", v, err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Retried != 2 {
		t.Errorf("Retried = %d, want 2", s.Retried)
	}
	if s.Reissued != 0 {
		t.Errorf("Reissued = %d, want 0 — retries are not reissues", s.Reissued)
	}
	if got := s.Attempts[0].Dispatched; got != 1 {
		t.Errorf("Attempts[0].Dispatched = %d, want 1 — retries must not double-count", got)
	}
	if s.Faulted != 0 {
		t.Errorf("Faulted = %d, want 0 — only terminal copy outcomes classify", s.Faulted)
	}
	if s.Failures != 0 {
		t.Errorf("Failures = %d, want 0", s.Failures)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.None{}, MaxRetries: 1, Seed: 1})
	boom := errors.New("boom")
	_, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		return nil, boom
	})
	if !errors.Is(err, ErrAllCopiesFailed) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrAllCopiesFailed wrapping boom", err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Retried != 1 {
		t.Errorf("Retried = %d, want 1", s.Retried)
	}
	if s.Faulted != 1 || s.Failures != 1 {
		t.Errorf("Faulted = %d, Failures = %d, want 1, 1", s.Faulted, s.Failures)
	}
}

// TestRetryNotOnCancellation: an error wrapping a cancellation is the
// caller walking away (or a backend echoing it) — never retried, and
// counted Cancelled, not Faulted.
func TestRetryNotOnCancellation(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.None{}, MaxRetries: 3, Seed: 1})
	var tries atomic.Int64
	_, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		tries.Add(1)
		return nil, fmt.Errorf("backend saw abort: %w", context.Canceled)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled passthrough", err)
	}
	c.Wait()
	if got := tries.Load(); got != 1 {
		t.Errorf("tries = %d, want 1 — cancellations are not retryable", got)
	}
	s := c.Snapshot()
	if s.Retried != 0 || s.Faulted != 0 {
		t.Errorf("Retried = %d, Faulted = %d, want 0, 0", s.Retried, s.Faulted)
	}
	if s.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", s.Cancelled)
	}
}

// TestAttemptTimeoutIsFaultNotCancellation: a copy try exceeding
// Config.AttemptTimeout while the caller still wants the answer is a
// fault of that copy — ErrAttemptTimeout, counted Faulted, and
// invisible to DeadlineExceeded classification.
func TestAttemptTimeoutIsFaultNotCancellation(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.None{}, AttemptTimeout: 1, Seed: 1})
	_, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		return nil, sleepFor(ctx, 50)
	})
	if !errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("err = %v, want ErrAttemptTimeout", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v must NOT wrap DeadlineExceeded — that would classify as Cancelled", err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Faulted != 1 || s.Failures != 1 || s.Cancelled != 0 {
		t.Errorf("Faulted=%d Failures=%d Cancelled=%d, want 1, 1, 0", s.Faulted, s.Failures, s.Cancelled)
	}
}

// TestAttemptTimeoutRetryRescues: the per-attempt timeout makes a
// stalled try observable, and a retry of the same copy rescues it.
func TestAttemptTimeoutRetryRescues(t *testing.T) {
	c := mustClient(t, Config{Policy: reissue.None{}, AttemptTimeout: 2, MaxRetries: 1, Seed: 1})
	var tries atomic.Int64
	v, err := c.Do(context.Background(), func(ctx context.Context, attempt int) (any, error) {
		if tries.Add(1) == 1 {
			// Wedged first try: only the attempt timeout frees it.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return "rescued", nil
	})
	if err != nil || v != "rescued" {
		t.Fatalf("Do = %v, %v; want rescued, nil", v, err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Retried != 1 {
		t.Errorf("Retried = %d, want 1", s.Retried)
	}
	if s.Failures != 0 || s.Cancelled != 0 {
		t.Errorf("Failures=%d Cancelled=%d, want 0, 0", s.Failures, s.Cancelled)
	}
}

// TestMidPlanContextExpiry pins hedge.Do's unwind when the caller's
// context expires mid-plan with copies still undispatched: the shared
// plan timer is released immediately (Do returns long before the
// tail delay), the query counts Cancelled — not Failures — and no
// timer or copy goroutine leaks.
func TestMidPlanContextExpiry(t *testing.T) {
	pol, err := reissue.DoubleR(1, 1, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, Config{Policy: pol, Seed: 1})
	leaks := leakcheck.Start()

	// The context dies at 4 model-ms: after the first reissue (delay
	// 1) dispatches, far before the second (delay 500) would.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(4*float64(unit)))
	defer cancel()
	start := time.Now()
	_, err = c.Do(ctx, func(ctx context.Context, attempt int) (any, error) {
		return nil, sleepFor(ctx, 1000)
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The undispatched 500 model-ms copy must not hold Do (or Wait)
	// hostage; 100 model-ms of slack absorbs scheduler noise.
	if limit := time.Duration(100 * float64(unit)); elapsed > limit {
		t.Errorf("Do took %v, want < %v — undispatched copy timer not released", elapsed, limit)
	}
	c.Wait()
	if waited := time.Since(start); waited > time.Duration(200*float64(unit)) {
		t.Errorf("Wait took %v after Do — loser unwind stuck on the plan timer", waited)
	}

	s := c.Snapshot()
	if s.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", s.Cancelled)
	}
	if s.Failures != 0 {
		t.Errorf("Failures = %d, want 0 — an expired caller is not a backend failure", s.Failures)
	}
	// Only the primary and the first reissue ever dispatched.
	if len(s.Attempts) > 2 && s.Attempts[2].Dispatched != 0 {
		t.Errorf("Attempts[2].Dispatched = %d, want 0", s.Attempts[2].Dispatched)
	}

	leaks.Check(t)
}
