package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/reissue"
)

// mapItems evaluates fn over items through the pool and returns the
// results in item order.
func mapItems[T, R any](items []T, opt Options, fn func(env *Env, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	points := make([]Point, len(items))
	for i := range items {
		i := i
		points[i] = Point{
			Label: fmt.Sprintf("#%d", i),
			Run: func(env *Env) error {
				r, err := fn(env, i, items[i])
				out[i] = r
				return err
			},
		}
	}
	if err := Run(points, opt); err != nil {
		return nil, err
	}
	return out, nil
}

func TestMapPreservesItemOrder(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := mapItems(items, Options{Workers: workers}, func(env *Env, i, item int) (int, error) {
			if env.Point != i {
				return 0, fmt.Errorf("env.Point = %d for point %d", env.Point, i)
			}
			// Stagger completion so out-of-order finishes would show.
			time.Sleep(time.Duration((len(items)-i)%5) * time.Millisecond)
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndNilRun(t *testing.T) {
	if err := Run(nil, Options{}); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
	err := Run([]Point{{Label: "hole"}}, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "hole") {
		t.Fatalf("nil Run func: %v", err)
	}
}

// TestRunPanicNamesPoint is the ISSUE's dispatcher-safety
// regression: a panicking point must fail the sweep with the point's
// identity in the error, not deadlock the dispatcher.
func TestRunPanicNamesPoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		points := make([]Point, 20)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("grid/p%d", i),
				Run: func(*Env) error {
					if i == 11 {
						panic("boom")
					}
					return nil
				},
			}
		}
		done := make(chan error, 1)
		go func() { done <- Run(points, Options{Workers: workers}) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: panic not surfaced", workers)
			}
			for _, want := range []string{"grid/p11", "panicked", "boom"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("workers=%d: error %q missing %q", workers, err, want)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: sweep deadlocked on panic", workers)
		}
	}
}

func TestRunErrorNamesPoint(t *testing.T) {
	boom := errors.New("bad point")
	points := []Point{
		{Label: "a", Run: func(*Env) error { return nil }},
		{Label: "b", Run: func(*Env) error { return boom }},
	}
	err := Run(points, Options{Workers: 1})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "(b)") {
		t.Fatalf("error lost identity: %v", err)
	}
}

// TestWarmEnginesReplayIdentical drives the harness end to end the
// way the figure jobs do — every point builds its own cluster,
// warmed from the worker's previous point and sharing the pass's
// workload draws with the points of the same seed — and checks the
// merged grid is byte-identical to cold evaluation at every worker
// count.
func TestWarmEnginesReplayIdentical(t *testing.T) {
	cfg := func(i int) cluster.Config {
		return cluster.Config{
			Servers:     4,
			ArrivalRate: cluster.ArrivalRateForUtilization(0.4, 4, 10),
			Queries:     600,
			Warmup:      60,
			Source:      cluster.DistSource{Dist: stats.NewExponential(0.1)},
			Seed:        uint64(42 + i%3),
		}
	}
	pol := func(i int) reissue.Policy { return reissue.SingleR{D: float64(i % 5), Q: 0.1} }
	const n = 12
	eval := func(workers int) ([]float64, error) {
		out := make([]float64, n)
		points := make([]Point, n)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("p%d", i),
				Run: func(env *Env) error {
					c, err := env.WarmCluster(cluster.New(cfg(i)))
					if err != nil {
						return err
					}
					out[i] = c.RunDetailed(pol(i)).Duration
					return nil
				},
			}
		}
		return out, Run(points, Options{Workers: workers})
	}

	want := make([]float64, n)
	for i := range want {
		c, err := cluster.New(cfg(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c.RunDetailed(pol(i)).Duration
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := eval(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: point %d = %v, sequential %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestFailedSweepSummaryNamesFailure: a failed sweep's final
// progress line must say which point failed, not render the
// success-shaped "n/N points in ..." summary as if the grid had
// merely been short.
func TestFailedSweepSummaryNamesFailure(t *testing.T) {
	boom := errors.New("bad point")
	for _, workers := range []int{1, 3} {
		var buf bytes.Buffer
		points := make([]Point, 8)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("grid/p%d", i),
				Run: func(*Env) error {
					if i == 5 {
						return boom
					}
					return nil
				},
			}
		}
		err := Run(points, Options{Workers: workers, Progress: &buf, Name: "demo"})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := buf.String()
		for _, want := range []string{"FAILED", "point 5 (grid/p5)"} {
			if !strings.Contains(out, want) {
				t.Errorf("workers=%d: failed-sweep summary missing %q:\n%s", workers, want, out)
			}
		}
		if strings.Contains(out, "points in ") {
			t.Errorf("workers=%d: failed sweep printed the success-shaped summary:\n%s", workers, out)
		}
	}
}

// TestProgressReportGuardsDegenerateElapsed: a report rendered with
// no measurable elapsed time (first tick on a coarse clock, or a
// clock step) must not print a negative/Inf/NaN rate or a negative
// ETA.
func TestProgressReportGuardsDegenerateElapsed(t *testing.T) {
	var buf bytes.Buffer
	p := &progress{w: &buf, name: "demo", total: 10, start: time.Now().Add(time.Minute)}
	p.done()
	p.report(false)
	p.report(true)
	out := buf.String()
	for _, bad := range []string{"(-", "ETA -", "NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("degenerate-elapsed report contains %q:\n%s", bad, out)
		}
	}
	if !strings.Contains(out, "ETA ?") {
		t.Errorf("unmeasurable rate should leave the ETA unknown:\n%s", out)
	}
}

func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	items := make([]int, 30)
	_, err := mapItems(items, Options{
		Workers: 2, Progress: &buf, Name: "demo", ProgressEvery: time.Millisecond,
	}, func(_ *Env, i, _ int) (int, error) {
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo: 30/30 points in ") {
		t.Fatalf("missing final summary:\n%s", out)
	}
	if !strings.Contains(out, "ETA") {
		t.Fatalf("missing periodic ETA line:\n%s", out)
	}
}

// onceGrid runs n points through one sweep, point i asking Once for
// key i%keys; fn counts its calls per key and returns key*key after
// a short sleep, so askers overlap the computation.
func onceGrid(t *testing.T, workers, n, keys int, calls []atomic.Int64) []int {
	t.Helper()
	got := make([]int, n)
	points := make([]Point, n)
	for i := range points {
		i := i
		points[i] = Point{
			Label: fmt.Sprintf("p%d", i),
			Run: func(env *Env) error {
				k := i % keys
				v, err := env.Once(k, func() (any, error) {
					calls[k].Add(1)
					time.Sleep(2 * time.Millisecond)
					return k * k, nil
				})
				if err != nil {
					return err
				}
				got[i] = v.(int)
				return nil
			},
		}
	}
	if err := Run(points, Options{Workers: workers}); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return got
}

// TestOnceComputesOncePerKey: every key's fn runs exactly once per
// pass, however many points ask for it and however many workers ask
// at once, and every asker gets its value.
func TestOnceComputesOncePerKey(t *testing.T) {
	const n, keys = 40, 4
	for _, workers := range []int{2, 8} {
		calls := make([]atomic.Int64, keys)
		got := onceGrid(t, workers, n, keys, calls)
		for k := range calls {
			if c := calls[k].Load(); c != 1 {
				t.Errorf("workers=%d: key %d computed %d times", workers, k, c)
			}
		}
		for i, v := range got {
			if k := i % keys; v != k*k {
				t.Errorf("workers=%d: point %d got %d, want %d", workers, i, v, k*k)
			}
		}
	}
}

// TestOnceRecomputesPerRun: nothing survives a Run, so a second
// sweep computes every key again.
func TestOnceRecomputesPerRun(t *testing.T) {
	const n, keys = 8, 2
	calls := make([]atomic.Int64, keys)
	onceGrid(t, 2, n, keys, calls)
	onceGrid(t, 2, n, keys, calls)
	for k := range calls {
		if c := calls[k].Load(); c != 2 {
			t.Errorf("key %d computed %d times over two sweeps, want 2", k, c)
		}
	}
}

// TestOnceErrorReachesEveryAsker: fn's error is every asker's error,
// whether it waited for the computation or asked after it.
func TestOnceErrorReachesEveryAsker(t *testing.T) {
	boom := errors.New("bad shared value")
	for _, workers := range []int{1, 4} {
		const n = 12
		var calls atomic.Int64
		errs := make([]error, n)
		points := make([]Point, n)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("p%d", i),
				Run: func(env *Env) error {
					// Record instead of returning, so the sweep runs every
					// point and each asker's error can be checked.
					_, errs[i] = env.Once("k", func() (any, error) {
						calls.Add(1)
						time.Sleep(2 * time.Millisecond)
						return nil, boom
					})
					return nil
				},
			}
		}
		if err := Run(points, Options{Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if c := calls.Load(); c != 1 {
			t.Errorf("workers=%d: failing fn ran %d times", workers, c)
		}
		for i, err := range errs {
			if !errors.Is(err, boom) {
				t.Errorf("workers=%d: point %d got %v", workers, i, err)
			}
		}
	}
}

// TestOncePanicFailsEveryAsker is the dispatcher-safety contract for
// shared values: a panic inside fn fails the computing point as a
// panic, fails every other asker with an error naming the computing
// point, and never deadlocks the askers or the dispatcher.
func TestOncePanicFailsEveryAsker(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 4
		var asked atomic.Int64
		errs := make([]error, n)
		points := make([]Point, n)
		for i := range points {
			i := i
			points[i] = Point{
				Label: fmt.Sprintf("grid/p%d", i),
				Run: func(env *Env) error {
					asked.Add(1)
					_, err := env.Once("k", func() (any, error) {
						// Give the other workers time to start waiting.
						time.Sleep(20 * time.Millisecond)
						panic("boom")
					})
					errs[i] = err
					return nil
				},
			}
		}
		done := make(chan error, 1)
		go func() { done <- Run(points, Options{Workers: workers}) }()
		var err error
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: sweep deadlocked on a panicking shared value", workers)
		}
		if err == nil {
			t.Fatalf("workers=%d: panic not surfaced", workers)
		}
		for _, want := range []string{"grid/p", "panicked", "boom"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: sweep error %q missing %q", workers, err, want)
			}
		}
		// The computing point failed by panicking and recorded nothing;
		// every other point that ran recorded an error naming it.
		computing := ""
		for i := 0; i < n; i++ {
			if strings.Contains(err.Error(), fmt.Sprintf("(grid/p%d)", i)) {
				computing = fmt.Sprintf("point %d (grid/p%d)", i, i)
			}
		}
		waiters := 0
		for i, e := range errs {
			if e == nil {
				continue
			}
			waiters++
			if !strings.Contains(e.Error(), computing) || !strings.Contains(e.Error(), "boom") {
				t.Errorf("workers=%d: point %d got %q, want it to name %s", workers, i, e, computing)
			}
		}
		if workers > 1 && waiters == 0 {
			t.Errorf("workers=%d: no other point asked for the shared value", workers)
		}
		if int(asked.Load()) != waiters+1 {
			t.Errorf("workers=%d: %d points asked, %d recorded an error", workers, asked.Load(), waiters)
		}
	}
}
