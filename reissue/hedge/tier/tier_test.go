package tier

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
)

// unit is the wall-clock length of one model millisecond in the fast
// unit tests.
const unit = 200 * time.Microsecond

// fakeSource is a scripted backend.Source: query i answers value(i)
// after hold(i) model-ms, honoring cancellation. dispatches counts
// copies actually started.
type fakeSource struct {
	unitD      time.Duration
	hold       func(i int) float64
	value      func(i int) (any, error)
	dispatches atomic.Int64
}

func (f *fakeSource) Unit() time.Duration { return f.unitD }

func (f *fakeSource) Request(i int) hedge.Fn {
	return func(ctx context.Context, attempt int) (any, error) {
		f.dispatches.Add(1)
		t := time.NewTimer(time.Duration(f.hold(i) * float64(f.unitD)))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return f.value(i)
	}
}

func constSource(holdMS float64, v any, err error) *fakeSource {
	return &fakeSource{
		unitD: unit,
		hold:  func(int) float64 { return holdMS },
		value: func(int) (any, error) { return v, err },
	}
}

func mustTier(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.CacheHedge.Policy == nil && cfg.CacheHedge.Online == nil {
		cfg.CacheHedge.Policy = reissue.None{}
	}
	if cfg.StoreHedge.Policy == nil && cfg.StoreHedge.Online == nil {
		cfg.StoreHedge.Policy = reissue.None{}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cache := constSource(1, Miss{}, nil)
	store := constSource(1, "v", nil)
	valid := Config{
		Cache: cache, Store: store,
		CacheHedge: hedge.Config{Policy: reissue.None{}},
		StoreHedge: hedge.Config{Policy: reissue.None{}},
	}
	if _, err := New(valid); err != nil {
		t.Fatalf("New rejected a valid config: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"nil cache":        func(c *Config) { c.Cache = nil },
		"nil store":        func(c *Config) { c.Store = nil },
		"unit mismatch":    func(c *Config) { c.Store = &fakeSource{unitD: unit * 2, hold: store.hold, value: store.value} },
		"negative delay":   func(c *Config) { c.TierDelay = -1 },
		"nan delay":        func(c *Config) { c.TierDelay = math.NaN() },
		"bad cache policy": func(c *Config) { c.CacheHedge = hedge.Config{} },
		"bad store policy": func(c *Config) { c.StoreHedge = hedge.Config{} },
		// Zero-unit sources pass the equality check, and then
		// time.Duration(TierDelay * 0) silently collapses any finite
		// tier delay to 0 — immediate full fan-out to the store.
		"zero units": func(c *Config) {
			c.Cache = &fakeSource{unitD: 0, hold: cache.hold, value: cache.value}
			c.Store = &fakeSource{unitD: 0, hold: store.hold, value: store.value}
			c.TierDelay = 4
		},
	} {
		cfg := valid
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %s", name)
		}
	}
}

// TestHitCompletesWithoutStore pins the completion check: a cache hit
// faster than the tier delay answers the query and the store tier is
// never consulted.
func TestHitCompletesWithoutStore(t *testing.T) {
	cache := constSource(1, "cached", nil)
	store := constSource(1, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: 50})
	for i := 0; i < 10; i++ {
		v, err := c.Do(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if v != "cached" {
			t.Fatalf("winner = %v, want the cache answer", v)
		}
	}
	c.Wait()
	s := c.Snapshot()
	if store.dispatches.Load() != 0 || s.StoreDispatched != 0 {
		t.Errorf("fast hits still consulted the store: %d dispatches, snapshot %+v", store.dispatches.Load(), s)
	}
	if s.Hits != 10 || s.Misses != 0 || s.CacheWins != 10 || s.Completed != 10 || s.TierRate != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestMissFallsThroughEarly pins the fall-through: a miss resolved
// well before the tier delay dispatches the store immediately instead
// of waiting out the delay.
func TestMissFallsThroughEarly(t *testing.T) {
	cache := constSource(1, Miss{}, nil)
	store := constSource(2, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: 400})
	start := time.Now()
	v, err := c.Do(context.Background(), 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v != "stored" {
		t.Fatalf("winner = %v, want the store answer", v)
	}
	// cache 1 + store 2 model-ms plus overhead — far below the
	// 400-model-ms tier delay the pre-fall-through path would wait.
	if elapsed > time.Duration(200*float64(unit)) {
		t.Errorf("miss took %v — fall-through waited for the tier delay", elapsed)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Misses != 1 || s.StoreWins != 1 || s.StoreDispatched != 1 || s.TierRate != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestPureFallThroughNeverProactive pins TierDelay = Inf: the store
// is consulted only on an observed miss, never for a slow hit.
func TestPureFallThroughNeverProactive(t *testing.T) {
	cache := constSource(20, "cached", nil) // slow hit
	store := constSource(1, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: math.Inf(1)})
	v, err := c.Do(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != "cached" {
		t.Fatalf("winner = %v, want the slow cache hit", v)
	}
	c.Wait()
	if n := store.dispatches.Load(); n != 0 {
		t.Errorf("pure fall-through dispatched %d store copies for a hit", n)
	}
}

// TestProactiveHedgeRescuesSlowHit pins the tier-level hedge: a cache
// hit far slower than the tier delay is beaten by the proactive store
// copy, and the query completes with the store's (valid) answer while
// the cache copy runs to completion in the background.
func TestProactiveHedgeRescuesSlowHit(t *testing.T) {
	cache := constSource(200, "cached", nil)
	store := constSource(1, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: 5})
	start := time.Now()
	v, err := c.Do(context.Background(), 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v != "stored" {
		t.Fatalf("winner = %v, want the proactive store copy", v)
	}
	if elapsed > time.Duration(120*float64(unit)) {
		t.Errorf("rescue took %v, want ~tier delay + store hold", elapsed)
	}
	c.Wait()
	s := c.Snapshot()
	if s.StoreWins != 1 || s.StoreDispatched != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	// The losing cache copy ran to completion and was classified.
	if s.Hits != 1 {
		t.Errorf("losing slow hit never recorded: %+v", s)
	}
}

// TestCacheFailureFallsThrough pins failure fall-through: a cache
// tier erroring outright consults the store immediately and the query
// still succeeds.
func TestCacheFailureFallsThrough(t *testing.T) {
	cache := constSource(1, nil, errors.New("cache wedged"))
	store := constSource(1, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: math.Inf(1)})
	v, err := c.Do(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != "stored" {
		t.Fatalf("winner = %v, want the store answer", v)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Failures != 0 || s.StoreWins != 1 || s.Hits != 0 || s.Misses != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestAllTiersFail pins the exhausted path: miss plus store failure
// is a Failure wrapping ErrExhausted.
func TestAllTiersFail(t *testing.T) {
	cache := constSource(1, Miss{}, nil)
	store := constSource(1, nil, errors.New("store down"))
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: 10})
	_, err := c.Do(context.Background(), 0)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("Do returned %v, want ErrExhausted", err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Failures != 1 || s.Cancelled != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestDoneContextShortCircuits mirrors the hedging client's
// regression test at the tier level: a dead caller context dispatches
// nothing on either tier and counts under Cancelled.
func TestDoneContextShortCircuits(t *testing.T) {
	cache := constSource(1, "cached", nil)
	store := constSource(1, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Cancelled != 1 || s.Failures != 0 || cache.dispatches.Load() != 0 || store.dispatches.Load() != 0 {
		t.Errorf("dead context leaked work: snapshot %+v, cache %d, store %d",
			s, cache.dispatches.Load(), store.dispatches.Load())
	}
}

// TestMidFlightCancellation pins the cancellation taxonomy: a caller
// cancelling while both tiers are in flight reports ctx.Err() and
// counts under Cancelled, not Failures.
func TestMidFlightCancellation(t *testing.T) {
	cache := constSource(500, "cached", nil)
	store := constSource(500, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Duration(20 * float64(unit)))
		cancel()
	}()
	if _, err := c.Do(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Cancelled != 1 || s.Failures != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestClientAsSource pins the Source adapter: a tier client behind
// an outer hedging client answers with the tier's value, the query
// index reaches the inner sources unchanged (warmup-by-index
// composes), and cancelling the outer context cancels the composed
// sub-graph — counted as Cancelled at the tier level.
func TestClientAsSource(t *testing.T) {
	cache := &fakeSource{
		unitD: unit,
		hold:  func(int) float64 { return 1 },
		value: func(i int) (any, error) { return fmt.Sprintf("cached-%d", i), nil },
	}
	store := constSource(1, "stored", nil)
	c := mustTier(t, Config{Cache: cache, Store: store, TierDelay: 50})
	outer, err := hedge.New(hedge.Config{Policy: reissue.None{}, Unit: c.Unit()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := outer.Do(context.Background(), c.Request(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("cached-%d", i); v != want {
			t.Fatalf("query %d = %v, want %s", i, v, want)
		}
	}

	// Mid-flight cancellation through the adapter: both tiers hold
	// long; the outer caller walks away.
	slow := mustTier(t, Config{
		Cache: constSource(500, "cached", nil), Store: constSource(500, "stored", nil),
		TierDelay: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Duration(20 * float64(unit)))
		cancel()
	}()
	if _, err := outer.Do(ctx, slow.Request(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled composed query returned %v, want context.Canceled", err)
	}
	outer.Wait()
	slow.Wait()
	if s := slow.Snapshot(); s.Cancelled != 1 || s.Failures != 0 {
		t.Errorf("inner tier misclassified the outer cancellation: %+v", s)
	}
}

// TestWithinTierHedging pins the composition: a within-cache reissue
// rescues a slow cache replica so the query still completes as a hit,
// and the cache client's counters show the reissue.
func TestWithinTierHedging(t *testing.T) {
	// The primary cache copy hangs; any reissue attempt answers
	// quickly.
	var calls atomic.Int64
	slow := &stuckPrimarySource{unitD: unit, calls: &calls}
	c := mustTier(t, Config{
		Cache:      slow,
		Store:      constSource(1, "stored", nil),
		CacheHedge: hedge.Config{Policy: reissue.SingleD{D: 3}},
		TierDelay:  math.Inf(1),
	})
	v, err := c.Do(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != "cached" {
		t.Fatalf("winner = %v, want the reissued cache hit", v)
	}
	c.Wait()
	s := c.Snapshot()
	if s.Cache.Reissued != 1 || s.Cache.ReissueWins != 1 {
		t.Errorf("cache-tier hedging not recorded: %+v", s.Cache)
	}
	if s.StoreDispatched != 0 {
		t.Errorf("hit rescued within the cache still consulted the store: %+v", s)
	}
}

// stuckPrimarySource hangs the primary copy until cancelled and
// answers reissue attempts after one model-ms.
type stuckPrimarySource struct {
	unitD time.Duration
	calls *atomic.Int64
}

func (s *stuckPrimarySource) Unit() time.Duration { return s.unitD }
func (s *stuckPrimarySource) Request(i int) hedge.Fn {
	return func(ctx context.Context, attempt int) (any, error) {
		s.calls.Add(1)
		if attempt == 0 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		t := time.NewTimer(time.Duration(1 * float64(s.unitD)))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return "cached", nil
	}
}

// TestKVCacheBackend pins the live cache backend over a real kvstore
// cache view: hits answer the precomputed cardinality, misses answer
// the Miss sentinel, and both run under the calibrated cache hold.
func TestKVCacheBackend(t *testing.T) {
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{NumSets: 100, NumQueries: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cw, err := w.CacheView(kvstore.CacheConfig{HitRate: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewKVCache(cw, backend.Config{Replicas: 2, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := 0, 0
	for i := 0; i < 40; i++ {
		v, err := back.Request(i)(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if cw.Hits[i] {
			hits++
			q := w.Queries[i]
			want, _ := w.Store.SInter(q.A, q.B)
			if v.(int) != len(want) {
				t.Fatalf("hit %d answered %v, want cardinality %d", i, v, len(want))
			}
		} else {
			misses++
			if !IsMiss(v) {
				t.Fatalf("miss %d answered %v, want Miss", i, v)
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate sample: %d hits, %d misses", hits, misses)
	}
	if _, err := NewKVCache(nil, backend.Config{Replicas: 1}); err == nil {
		t.Error("NewKVCache accepted a nil workload")
	}
}
