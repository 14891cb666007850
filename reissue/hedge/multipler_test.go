package hedge

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/reissue"
)

// TestMultipleRExecution drives a three-delay MultipleR plan through
// concurrent Do calls and checks the client executes it first-class:
//
//   - the winning-attempt histogram matches the plan's coin flips —
//     with a primary far slower than every delay gap and fast
//     reissues, the first dispatched copy wins, so attempt k wins
//     with probability q_k · Π_{j<k}(1-q_j);
//   - every losing primary is cancelled through its context;
//   - later planned copies are suppressed by the completion check
//     once an earlier copy answers;
//   - no goroutines leak.
//
// Timing is deliberately coarse (a 2 ms unit, delays 3 model ms
// apart against a 1 model-ms reissue service time) so scheduling
// noise cannot reorder dispatch and completion.
func TestMultipleRExecution(t *testing.T) {
	const (
		q1, q2, q3 = 0.4, 0.6, 1.0
		coarse     = 2 * time.Millisecond
		n          = 600
		workers    = 24
	)
	pol, err := reissue.NewMultipleR([]float64{2, 5, 8}, []float64{q1, q2, q3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Policy: pol, Seed: 17, Unit: coarse})
	if err != nil {
		t.Fatal(err)
	}

	leaks := leakcheck.Start()
	var cancelled atomic.Int64
	fn := func(ctx context.Context, attempt int) (any, error) {
		// Slow primary, fast reissues: the first reissue dispatched
		// answers long before the next delay elapses.
		ms := 1.0
		if attempt == 0 {
			ms = 100.0
		}
		timer := time.NewTimer(time.Duration(ms * float64(coarse)))
		defer timer.Stop()
		select {
		case <-timer.C:
			return attempt, nil
		case <-ctx.Done():
			cancelled.Add(1)
			return nil, ctx.Err()
		}
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				if _, err := c.Do(context.Background(), fn); err != nil {
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
	if s.Completed != n || s.Failures != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	// With q3 = 1 a reissue always exists and always beats the 100 ms
	// primary, so the primary never wins and is always cancelled.
	if s.PrimaryWins != 0 {
		t.Errorf("the 100 ms primary won %d times against 1 ms reissues", s.PrimaryWins)
	}
	if got := cancelled.Load(); got < n {
		t.Errorf("only %d copies saw cancellation, want >= %d losing primaries", got, n)
	}
	if s.ReissueWins != n {
		t.Errorf("reissue wins = %d, want %d", s.ReissueWins, n)
	}

	// Winning-attempt histogram vs the plan's probabilities. The
	// first sampled delay wins, so:
	want := []float64{0, q1, (1 - q1) * q2, (1 - q1) * (1 - q2) * q3}
	if len(s.Attempts) != len(want) {
		t.Fatalf("attempt histogram has %d slots, want %d: %+v", len(s.Attempts), len(want), s.Attempts)
	}
	const tol = 0.07 // ~3.5 sigma at n=600 for p around 0.4
	for a, st := range s.Attempts {
		got := float64(st.Wins) / n
		if math.Abs(got-want[a]) > tol {
			t.Errorf("attempt %d win fraction %.3f, want %.3f ± %.2f (%+v)", a, got, want[a], tol, st)
		}
	}
	// Dispatch counts: the primary always dispatches; attempt k
	// dispatches only if no earlier copy answered first, i.e. with
	// the same Π(1-q_j) attenuation — so dispatches and wins agree
	// for the fast-reissue construction. Attempt response times are
	// the 1 model-ms service, never the primary's 100.
	if got := s.Attempts[0].Dispatched; got != n {
		t.Errorf("primary dispatched %d times, want %d", got, n)
	}
	for a := 1; a < len(s.Attempts); a++ {
		st := s.Attempts[a]
		// Under CPU contention a later slot's timer can fire in the
		// gap before the earlier copy's completion lands, so a few
		// dispatched copies legitimately lose; only a systematic
		// failure of the completion check is an error.
		if lost := st.Dispatched - st.Wins; lost < 0 || lost > n/20 {
			t.Errorf("attempt %d: %d dispatched but %d wins — completion check failed to suppress losers",
				a, st.Dispatched, st.Wins)
		}
		if st.Dispatched > 0 && !(st.P50 > 0 && st.P50 < 50) {
			t.Errorf("attempt %d P50 = %.1f model-ms, want the fast-reissue service time", a, st.P50)
		}
	}

	leaks.Check(t)
}
