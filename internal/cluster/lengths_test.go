package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

// lengthCheckLB wraps a load balancer and, at every pick, compares the
// published queue-length vector it is handed against each server's
// live Len.
type lengthCheckLB struct {
	inner LoadBalancer
	c     *Cluster
	picks int
	bad   []string
}

func (lb *lengthCheckLB) Pick(r *stats.RNG, lengths []int, exclude int) int {
	lb.picks++
	servers := lb.c.rs.servers
	if len(lengths) != len(servers) {
		lb.bad = append(lb.bad, fmt.Sprintf("pick %d: %d lengths for %d servers", lb.picks, len(lengths), len(servers)))
	}
	for i, s := range servers {
		if lengths[i] != s.Len() && len(lb.bad) < 5 {
			lb.bad = append(lb.bad, fmt.Sprintf("pick %d: server %d published %d, Len %d", lb.picks, i, lengths[i], s.Len()))
		}
	}
	return lb.inner.Pick(r, lengths, exclude)
}

func (lb *lengthCheckLB) String() string { return "check(" + lb.inner.String() + ")" }

// TestPublishedLengthsMatchLen pins the published-lengths rule: at
// every LB.Pick the vector the balancer reads equals every server's
// Len, under each discipline, with tied-request cancellation, chaos
// faults and interference slowdowns all changing server state between
// picks.
func TestPublishedLengthsMatchLen(t *testing.T) {
	disciplines := []struct {
		d     Discipline
		batch sched.BatchConfig
	}{
		{d: FIFO},
		{d: PrioLIFO},
		{d: RoundRobin},
		{d: Batch, batch: sched.BatchConfig{Size: 3, LingerMS: 2, Cost: sched.BatchCost{Scale: 0.2}}},
	}
	extras := []struct {
		name string
		set  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"cancel", func(c *Config) { c.CancelOnComplete = true }},
		{"faults", func(c *Config) {
			c.Faults = &FaultPlan{
				Profiles: []fault.Profile{
					{Replica: 1, Kind: fault.ErrorRate, Rate: 0.3, Seed: 7},
					{Replica: 2, Kind: fault.Slow, Factor: 3},
					{Replica: 3, Kind: fault.Stall, From: 200, Until: 260},
				},
				BreakerThreshold: 3,
				BreakerCooldown:  40,
			}
		}},
		{"interference", func(c *Config) { c.Interference = &Interference{Rate: 0.01, MeanDuration: 20, Factor: 4} }},
	}
	for _, lb := range []LoadBalancer{MinOfTwoLB{}, MinOfAllLB{}} {
		for _, dc := range disciplines {
			for _, ex := range extras {
				name := fmt.Sprintf("%v/%v/%s", lb, dc.d, ex.name)
				t.Run(name, func(t *testing.T) {
					cfg := queueingCfg(11)
					cfg.ArrivalRate = ArrivalRateForUtilization(0.7, 4, 10)
					cfg.Discipline = dc.d
					cfg.Batch = dc.batch
					ex.set(&cfg)
					check := &lengthCheckLB{inner: lb}
					cfg.LB = check
					c := mustCluster(t, cfg)
					check.c = c
					// Two runs: the second starts from a reset, pooled state.
					for run := 0; run < 2; run++ {
						c.RunDetailed(reissue.SingleR{D: 8, Q: 0.5})
					}
					if check.picks == 0 {
						t.Fatal("load balancer never consulted")
					}
					if len(check.bad) > 0 {
						t.Fatalf("%d picks; published lengths diverged from Len: %v", check.picks, check.bad)
					}
				})
			}
		}
	}
}

// TestWarmRunAllocationCeiling pins the allocation ceiling of a
// warmed queueing run: its Result (the Result and Log values, the log
// records, the outcomes and the pairs) and its three per-run RNG
// streams (root, policy, load balancer), nothing else — so no server
// queue, event lane or heap grows in steady state.
func TestWarmRunAllocationCeiling(t *testing.T) {
	for _, d := range []Discipline{FIFO, PrioFIFO, PrioLIFO, RoundRobin} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := queueingCfg(7)
			cfg.ArrivalRate = ArrivalRateForUtilization(0.7, 4, 10)
			cfg.Discipline = d
			c := mustCluster(t, cfg)
			var pol reissue.Policy = reissue.SingleR{D: 8, Q: 0.5}
			res := c.RunDetailed(pol)
			if len(res.Pairs) == 0 {
				t.Fatal("workload produced no reissue pairs; the ceiling would not count them")
			}
			const (
				resultAllocs = 5 // Result, Log, Log.Records, Outcomes, Pairs
				rngAllocs    = 3 // root, policy and load-balancer streams
			)
			if got := testing.AllocsPerRun(5, func() { c.RunDetailed(pol) }); got > resultAllocs+rngAllocs {
				t.Fatalf("warm run allocates %.0f/run, want <= %d (its Result and RNG streams)", got, resultAllocs+rngAllocs)
			}
		})
	}
}
