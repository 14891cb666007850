package topo

import (
	"math"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/reissue"
	"repro/reissue/hedge/backend"
)

// Agreement-test parameters — the multi-tier agreement test's
// wall-clock scale and tail band, applied per composition depth;
// rates are held to metrics.AgreementBand.
const (
	topoRho     = 0.28 // utilization of the entry fleet
	topoK       = 0.99
	topoUnit    = 3 * time.Millisecond
	topoMinMS   = 1.0
	topoTailTol = 0.35
)

// topoSpeeds gives a fleet one permanently slow replica — the
// canonical tail driver of the single-fleet agreement tests.
func topoSpeeds(replicas int) []float64 {
	speeds := make([]float64, replicas)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[replicas-1] = 2.5
	return speeds
}

func agreeWorkload(t *testing.T, n int) *kvstore.Workload {
	t.Helper()
	// Calibrate the sleep response before the allocation-heavy
	// workload build puts GC pressure on the measurement window.
	backend.MeasureSleepResponse()
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{
		NumSets: 300, NumQueries: n, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// topoPoint is one composed topology under agreement test: the spec,
// the per-slot rate-anchor policies, the fleet whose utilization sets
// the arrival rate, and the tier paths whose base rates must match
// EXACTLY (Inf-delay tiers dispatch on the shared miss stream alone).
type topoPoint struct {
	name       string
	spec       Spec
	anchors    map[string]reissue.Policy
	rhoPath    string
	exactTiers []string
}

// runTopoAgreement executes the shared procedure on one composed
// topology: build both worlds from one Spec, measure a live
// no-reissue baseline and a fixed per-slot rate anchor, replay the
// identical runs on the simulator twin with the same arrival seed,
// and hold every edge's statistics to the single-topology tolerance
// bands.
func runTopoAgreement(t *testing.T, pt topoPoint, n, warmup int) {
	t.Helper()
	w := agreeWorkload(t, n)
	tp, err := Build(w, pt.spec, Options{Unit: topoUnit, MinServiceMS: topoMinMS, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	lambda, err := tp.ArrivalRate(topoRho, pt.rhoPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: lambda %.3f queries/model-ms over fleets %v", pt.name, lambda, tp.FleetPaths())

	// Burn-in: bring the process to steady state before measuring.
	if _, err := tp.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	base := RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21}
	anchored := base
	anchored.Policies = pt.anchors

	liveBase, err := tp.RunLive(base)
	if err != nil {
		t.Fatal(err)
	}
	liveFixed, err := tp.RunLive(anchored)
	if err != nil {
		t.Fatal(err)
	}
	simBase, err := tp.RunSim(base)
	if err != nil {
		t.Fatal(err)
	}
	simFixed, err := tp.RunSim(anchored)
	if err != nil {
		t.Fatal(err)
	}

	// Reissue-rate agreement at matched load, edge by edge: the same
	// fixed policy over the same effective trace must reissue at the
	// same per-fleet rate in both worlds, and every tier's delay rule
	// must dispatch its store at the same tier rate.
	for path, lr := range liveFixed.LeafRates {
		sr, ok := simFixed.LeafRates[path]
		if !ok {
			t.Errorf("%s: sim has no leaf %q", pt.name, path)
			continue
		}
		t.Logf("%s leaf %q rate: live %.4f sim %.4f", pt.name, path, lr, sr)
		if d := math.Abs(lr - sr); d > metrics.AgreementBand {
			t.Errorf("%s leaf %q rate differs by %.3f: live=%.4f sim=%.4f", pt.name, path, d, lr, sr)
		}
	}
	for path, lr := range liveFixed.TierRates {
		sr, ok := simFixed.TierRates[path]
		if !ok {
			t.Errorf("%s: sim has no tier %q", pt.name, path)
			continue
		}
		t.Logf("%s tier %q rate: live %.4f sim %.4f", pt.name, path, lr, sr)
		if d := math.Abs(lr - sr); d > metrics.AgreementBand {
			t.Errorf("%s tier %q rate differs by %.3f: live=%.4f sim=%.4f", pt.name, path, d, lr, sr)
		}
	}

	// With an infinite tier delay the tier rate IS the measured miss
	// rate of that tier's shared Bernoulli stream: the two worlds must
	// agree exactly, not just within tolerance.
	for _, path := range pt.exactTiers {
		if liveBase.TierRates[path] != simBase.TierRates[path] {
			t.Errorf("%s tier %q shared miss stream diverged: live %.6f, sim %.6f",
				pt.name, path, liveBase.TierRates[path], simBase.TierRates[path])
		}
	}

	// Tail-latency agreement: the composed end-to-end tail must sit in
	// the same regime in both worlds.
	liveP99 := liveBase.TailLatency(topoK)
	simP99 := simBase.TailLatency(topoK)
	t.Logf("%s baseline end-to-end P99 model-ms: live %.2f, sim %.2f", pt.name, liveP99, simP99)
	if d := math.Abs(liveP99 - simP99); d > topoTailTol*simP99 {
		t.Errorf("%s baseline P99 disagrees beyond %.0f%%: live %.2f, sim %.2f",
			pt.name, 100*topoTailTol, liveP99, simP99)
	}
}

// TestTopoSimLiveAgreement cross-validates composed live graphs
// against their simulator twins, one sub-test per composition depth:
// a cache tier over a sharded store, a sharded fleet of per-shard
// cache tiers, and a depth-3 stack whose store shards sit behind the
// HTTP transport.
func TestTopoSimLiveAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("live composed runs take tens of wall-clock seconds")
	}
	const (
		n      = 900
		warmup = 150
	)
	points := []topoPoint{
		{
			// Depth 2: one cache fleet shielding a 2-shard store —
			// proactive (finite) tier delay, so the tier rate
			// exercises the completion-check rule across the fan-out.
			// The cache fleet must be homogeneous here: the simulator
			// serves every non-shielded store sub-query to completion
			// at its original arrival instant, while live cancels the
			// proactively-dispatched store visit the moment a slow
			// cache hit lands. A heterogeneous cache at this load puts
			// ~20% of hits past the tier delay, and those phantom
			// store visits arrive in queueing-correlated bursts that
			// inflate the simulated store tail ~2x over live. With a
			// light cache tail the slow-hit population is a few
			// percent and the approximation holds; the heterogeneous
			// store shards then drive the composed tail through the
			// miss stream, which both worlds share exactly.
			name: "tier-over-sharded-store",
			spec: Spec{Tier: &TierSpec{
				// Hit rate 0.5 pushes half the traffic through to the
				// store shards: misses are shared exactly between the
				// two worlds, and the per-shard leaf rates are
				// estimated from enough coin events to sit well
				// inside the absolute tolerance (at hit rates much
				// above this, a shard sees so few reissue coins that
				// its realized rate is decided by a handful of
				// Bernoulli draws).
				HitRate:   0.5,
				TierDelay: 4,
				Cache:     FleetSpec{Replicas: 3},
				Store: Spec{Shard: &ShardSpec{N: 2,
					Child: Spec{Fleet: &FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)}}}},
			}},
			anchors: map[string]reissue.Policy{
				"cache":       reissue.SingleR{D: 2, Q: 0.25},
				"store/shard": reissue.SingleR{D: 4, Q: 0.25},
			},
			rhoPath: "cache",
		},
		{
			// Depth 2, the other composition order: a fan-out whose
			// shards each run their own cache tier (per-shard caches
			// with independent hit streams), pure fall-through so the
			// per-shard miss streams pin both worlds exactly.
			name: "sharded-tiers",
			spec: Spec{Shard: &ShardSpec{N: 2, Child: Spec{Tier: &TierSpec{
				HitRate:   0.7,
				TierDelay: math.Inf(1),
				Cache:     FleetSpec{Replicas: 2, SpeedFactors: topoSpeeds(2)},
				Store:     Spec{Fleet: &FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)}},
			}}}},
			anchors: map[string]reissue.Policy{
				"shard/cache": reissue.SingleR{D: 2, Q: 0.25},
				"shard/store": reissue.SingleR{D: 5, Q: 0.25},
			},
			rhoPath:    "shard0/cache",
			exactTiers: []string{"shard0", "shard1"},
		},
		{
			// Depth 3: cache tier over a sharded store whose shards are
			// HTTP replica fleets — every seam at once: tier shield,
			// fan-out merge, wire-overhead calibration. The HTTP fleets
			// are homogeneous: the wire overhead is folded into the
			// trace once per query, and a speed-multiplied overhead
			// approximation on a slow replica would push it toward its
			// knee (see the sharded HTTP agreement test).
			name: "tier-over-sharded-http",
			spec: Spec{Tier: &TierSpec{
				HitRate:   0.5,
				TierDelay: math.Inf(1),
				Cache:     FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)},
				Store: Spec{Shard: &ShardSpec{N: 2,
					Child: Spec{Fleet: &FleetSpec{Replicas: 2, HTTP: true}}}},
			}},
			anchors: map[string]reissue.Policy{
				"cache":       reissue.SingleR{D: 2, Q: 0.25},
				"store/shard": reissue.SingleR{D: 4, Q: 0.25},
			},
			rhoPath:    "cache",
			exactTiers: []string{""},
		},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			runTopoAgreement(t, pt, n, warmup)
		})
	}
}

// TestShardWrapperLiveParity: a 1-shard router wrapper around a fleet
// is the degenerate composition — same coins (shard 0 is unsalted),
// same arrivals — so its live measurements must match the uncomposed
// fleet's within the usual live tolerances.
func TestShardWrapperLiveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs take wall-clock seconds")
	}
	const (
		n      = 700
		warmup = 120
	)
	w := agreeWorkload(t, n)
	opt := Options{Unit: topoUnit, MinServiceMS: topoMinMS, Seed: 17}
	anchor := reissue.SingleR{D: 5, Q: 0.25}

	// Homogeneous replicas: the parity under test is wrapper-vs-plain,
	// and a 2.5x replica at this load sits near its knee, where
	// wall-clock jitter compounds through the queue and the P99 of two
	// separate processes-worth of runs stops being comparable.
	plain, err := Build(w, Spec{Fleet: &FleetSpec{Replicas: 3}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Build(w, Spec{Shard: &ShardSpec{N: 1,
		Child: Spec{Fleet: &FleetSpec{Replicas: 3}}}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := plain.ArrivalRate(topoRho, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	rp, err := plain.RunLive(RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21,
		Policies: map[string]reissue.Policy{"": anchor}})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wrapped.RunLive(RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21,
		Policies: map[string]reissue.Policy{"shard": anchor}})
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("rates: plain %.4f wrapped %.4f | P99: plain %.2f wrapped %.2f",
		rp.LeafRates[""], rw.LeafRates["shard0"], rp.TailLatency(topoK), rw.TailLatency(topoK))
	if d := math.Abs(rp.LeafRates[""] - rw.LeafRates["shard0"]); d > metrics.AgreementBand {
		t.Errorf("1-shard wrapper reissue rate differs by %.3f: plain=%.4f wrapped=%.4f",
			d, rp.LeafRates[""], rw.LeafRates["shard0"])
	}
	pp, wp := rp.TailLatency(topoK), rw.TailLatency(topoK)
	if d := math.Abs(pp - wp); d > topoTailTol*pp {
		t.Errorf("1-shard wrapper P99 disagrees beyond %.0f%%: plain %.2f, wrapped %.2f",
			100*topoTailTol, pp, wp)
	}
}

// TestTierWrapperLiveParity: a hit-rate-1, Inf-delay tier never
// dispatches its store, so the live composition must reproduce the
// uncomposed cache fleet (driven directly through backend.LiveSystem
// with the same seeds) within the usual live tolerances — and its
// tier and store rates must be exactly zero.
func TestTierWrapperLiveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs take wall-clock seconds")
	}
	const (
		n      = 700
		warmup = 120
	)
	w := agreeWorkload(t, n)
	anchor := reissue.SingleR{D: 2, Q: 0.25}
	tp, err := Build(w, Spec{Tier: &TierSpec{
		HitRate:   1,
		TierDelay: math.Inf(1),
		Cache:     FleetSpec{Replicas: 3, SpeedFactors: topoSpeeds(3)},
		Store:     Spec{Fleet: &FleetSpec{Replicas: 2}},
	}}, Options{Unit: topoUnit, MinServiceMS: topoMinMS, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	lambda, err := tp.ArrivalRate(topoRho, "cache")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.RunLive(RunSpec{N: 200, Warmup: 50, Lambda: lambda, Seed: 99}); err != nil {
		t.Fatal(err)
	}

	rc, err := tp.RunLive(RunSpec{N: n, Warmup: warmup, Lambda: lambda, Seed: 21,
		Policies: map[string]reissue.Policy{"cache": anchor}})
	if err != nil {
		t.Fatal(err)
	}
	if rc.TierRates[""] != 0 {
		t.Errorf("tier rate %v, want exactly 0: no query may dispatch the store", rc.TierRates[""])
	}
	if rc.LeafRates["store"] != 0 {
		t.Errorf("store leaf rate %v, want exactly 0", rc.LeafRates["store"])
	}

	// The uncomposed comparator drives the SAME cache substrate with
	// the same arrival seed and the same (unsalted) coin stream.
	plain := &backend.LiveSystem{
		Back: tp.leaves["cache"].src,
		N:    n, Warmup: warmup, Lambda: lambda, Seed: 21,
	}
	rp := plain.Run(anchor)

	t.Logf("rates: plain %.4f wrapped %.4f | P99: plain %.2f wrapped %.2f",
		rp.ReissueRate, rc.LeafRates["cache"], rp.TailLatency(topoK), rc.TailLatency(topoK))
	if d := math.Abs(rp.ReissueRate - rc.LeafRates["cache"]); d > metrics.AgreementBand {
		t.Errorf("degenerate tier cache rate differs by %.3f: plain=%.4f wrapped=%.4f",
			d, rp.ReissueRate, rc.LeafRates["cache"])
	}
	pp, wp := rp.TailLatency(topoK), rc.TailLatency(topoK)
	if d := math.Abs(pp - wp); d > topoTailTol*pp {
		t.Errorf("degenerate tier P99 disagrees beyond %.0f%%: plain %.2f, wrapped %.2f",
			100*topoTailTol, pp, wp)
	}
}
