package fault_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/fault"
)

// TestChaosStallContainment is the live-only stall scenario: a wedged
// replica answers nothing, and only the per-attempt timeout keeps the
// run bounded. Every query must still complete or fail in finite time
// — the open loop must never hang on a stalled copy.
func TestChaosStallContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live fleet; skipped in -short")
	}
	const (
		n    = 400
		unit = 2 * time.Millisecond
		seed = 61
	)
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{NumSets: 200, NumQueries: n, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	back, err := backend.NewKV(w, backend.Config{
		Replicas: 4, Unit: unit, SpeedFactors: []float64{1, 1, 1, 2.5}, MinServiceMS: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(back, fault.Config{
		Replicas: 4,
		Profiles: []fault.Profile{{Replica: 1, Kind: fault.Stall}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := hedge.New(hedge.Config{
		Policy:         reissue.SingleR{D: 12, Q: 0.2},
		Unit:           unit,
		LetLoserRun:    true,
		Seed:           seed,
		AttemptTimeout: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Int64
	do := func(ctx context.Context, i int) error {
		_, err := hc.Do(ctx, inj.Request(i))
		if err != nil && ctx.Err() == nil && !errors.Is(err, context.Canceled) {
			// A query the stall killed outright: an expected outcome.
			failed.Add(1)
			return nil
		}
		return err
	}
	done := make(chan error, 1)
	go func() {
		_, err := backend.OpenLoop(context.Background(), unit, n, back.ArrivalRate(0.28), seed, do, hc.Wait)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("OpenLoop: %v", err)
		}
		snap := inj.Snapshot()
		if snap.Stalled == 0 {
			t.Fatalf("injector stalled no copies: %+v", snap)
		}
		t.Logf("contained: failed=%d of %d stalled=%d", failed.Load(), n, snap.Stalled)
	case <-time.After(2 * time.Minute):
		t.Fatal("stalled copies hung the run — attempt timeout did not contain the stall")
	}
}
