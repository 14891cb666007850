package cluster

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
)

func queueingCfg(seed uint64) Config {
	return Config{
		Servers:     4,
		ArrivalRate: ArrivalRateForUtilization(0.4, 4, 10),
		Queries:     800,
		Warmup:      80,
		Source:      DistSource{Dist: stats.NewExponential(0.1)},
		Seed:        seed,
	}
}

func sameRun(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ra, rb := a.Log.ResponseTimes(), b.Log.ResponseTimes()
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d vs %d responses", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: response %d differs: %v vs %v", label, i, ra[i], rb[i])
		}
	}
	if a.ReissueRate != b.ReissueRate || a.Duration != b.Duration {
		t.Fatalf("%s: rate/duration differ: %v/%v vs %v/%v",
			label, a.ReissueRate, a.Duration, b.ReissueRate, b.Duration)
	}
	if a.Utilization != b.Utilization &&
		!(math.IsNaN(a.Utilization) && math.IsNaN(b.Utilization)) {
		t.Fatalf("%s: utilization differs: %v vs %v", label, a.Utilization, b.Utilization)
	}
}

// TestAdoptStateReplayIdentical is the load-bearing property of the
// sweep harness's warm engines: a cluster that adopts another's
// pooled state replays exactly the run a cold cluster would.
func TestAdoptStateReplayIdentical(t *testing.T) {
	pol := reissue.SingleR{D: 5, Q: 0.2}

	donor := mustCluster(t, queueingCfg(7))
	donor.RunDetailed(reissue.None{}) // builds and dirties the pooled state

	cold := mustCluster(t, queueingCfg(9))
	want := cold.RunDetailed(pol)

	warm := mustCluster(t, queueingCfg(9))
	warm.AdoptState(donor)
	sameRun(t, "same shape", want, warm.RunDetailed(pol))

	// Adoption across a shape change (server count and discipline)
	// rebuilds the server pool but keeps the rest of the engine.
	shifted := queueingCfg(11)
	shifted.Servers = 7
	shifted.ArrivalRate = ArrivalRateForUtilization(0.4, 7, 10)
	shifted.Discipline = PrioLIFO
	coldShift := mustCluster(t, shifted)
	wantShift := coldShift.RunDetailed(pol)
	warmShift := mustCluster(t, shifted)
	warmShift.AdoptState(warm)
	sameRun(t, "shape change", wantShift, warmShift.RunDetailed(pol))

	// Infinite-server adoption (no server pool at all).
	inf := Config{Queries: 500, Source: DistSource{Dist: stats.NewExponential(0.1)}, Seed: 3}
	coldInf := mustCluster(t, inf)
	wantInf := coldInf.RunDetailed(pol)
	warmInf := mustCluster(t, inf)
	warmInf.AdoptState(warmShift)
	sameRun(t, "infinite servers", wantInf, warmInf.RunDetailed(pol))
}

// TestAdoptStateDonorRebuilds pins the safety property: a cluster
// whose state was adopted away is still usable — it lazily rebuilds
// an engine and reproduces its original results.
func TestAdoptStateDonorRebuilds(t *testing.T) {
	donor := mustCluster(t, queueingCfg(7))
	before := donor.RunDetailed(reissue.None{})

	thief := mustCluster(t, queueingCfg(9))
	thief.AdoptState(donor)
	thief.RunDetailed(reissue.None{})

	sameRun(t, "donor after adoption", before, donor.RunDetailed(reissue.None{}))
}

// TestAdoptStateNoops pins the degenerate cases: nil/self/never-run
// donors and already-warm adopters are all no-ops.
func TestAdoptStateNoops(t *testing.T) {
	c := mustCluster(t, queueingCfg(7))
	c.AdoptState(nil)
	c.AdoptState(c)
	fresh := mustCluster(t, queueingCfg(9))
	c.AdoptState(fresh) // fresh has never run: nothing to adopt
	if c.rs != nil {
		t.Fatal("adopting from a never-run cluster created state")
	}

	donor := mustCluster(t, queueingCfg(7))
	donor.RunDetailed(reissue.None{})
	c.RunDetailed(reissue.None{})
	own := c.rs
	c.AdoptState(donor) // c already warm: keeps its own engine
	if c.rs != own {
		t.Fatal("warm cluster replaced its engine on adoption")
	}
	if donor.rs == nil {
		t.Fatal("no-op adoption stole the donor's engine")
	}
}

// TestAdoptStateAllocFree pins the perf contract: after adoption, a
// run on the new cluster performs no more allocation than a repeat
// run on a single cluster (the warm steady state). The repeat calls
// simulate, as RunDetailed would return the remembered run.
func TestAdoptStateAllocFree(t *testing.T) {
	cfg := queueingCfg(7)
	single := mustCluster(t, cfg)
	single.RunDetailed(reissue.None{})
	baseline := testing.AllocsPerRun(3, func() {
		single.simulate(reissue.None{})
	})

	warm := mustCluster(t, cfg)
	warm.RunDetailed(reissue.None{})
	adopted := testing.AllocsPerRun(3, func() {
		next := mustCluster(t, cfg)
		next.AdoptState(warm)
		next.RunDetailed(reissue.None{})
		warm = next
	})

	// One Cluster struct per iteration plus a little slack; the
	// engine itself (slab, arena, queries, servers) must not be
	// rebuilt.
	if adopted > baseline+8 {
		t.Fatalf("adopted run allocates %.0f/run, warm baseline %.0f/run", adopted, baseline)
	}
}
