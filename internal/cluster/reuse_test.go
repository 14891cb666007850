package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge/fault"
)

// TestDrawTableKey pins the draw key field by field: a config that
// differs from the base in a key field stores a draw of its own,
// one that differs only elsewhere reads the base's, and every run
// equals a cold cluster's either way.
func TestDrawTableKey(t *testing.T) {
	with := func(edit func(*Config)) Config {
		cfg := queueingCfg(5)
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name  string
		cfg   Config
		share bool
	}{
		{"seed", with(func(c *Config) { c.Seed = 6 }), false},
		{"service-seed", with(func(c *Config) { c.ServiceSeed = 0x77 }), false},
		{"queries", with(func(c *Config) { c.Queries += 40 }), false},
		{"warmup", with(func(c *Config) { c.Warmup += 40 }), false},
		{"arrival-rate", with(func(c *Config) { c.ArrivalRate *= 1.1 }), false},
		{"fan-out", with(func(c *Config) { c.FanOut = 4 }), false},
		{"connections", with(func(c *Config) { c.Connections = 7 }), false},
		{"infinite-servers", with(func(c *Config) { c.Servers = 0 }), false},
		{"dist", with(func(c *Config) { c.Source = DistSource{Dist: stats.NewExponential(0.2)} }), false},
		{"corr", with(func(c *Config) { c.Source = DistSource{Dist: stats.NewExponential(0.1), Corr: 0.5} }), false},
		{"server-count", with(func(c *Config) { c.Servers = 5 }), true},
		{"policy-seed", with(func(c *Config) { c.PolicySeed = 0x99 }), true},
		{"lb", with(func(c *Config) { c.LB = MinOfTwoLB{} }), true},
		{"discipline", with(func(c *Config) { c.Discipline = PrioLIFO }), true},
		{"cancel-on-complete", with(func(c *Config) { c.CancelOnComplete = true }), true},
	}
	pol := reissue.SingleR{D: 5, Q: 0.3}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var table DrawTable
			base := mustCluster(t, queueingCfg(5))
			base.ShareDraws(&table)
			base.RunDetailed(pol)
			c := mustCluster(t, tc.cfg)
			c.ShareDraws(&table)
			identicalRun(t, tc.name, mustCluster(t, tc.cfg).RunDetailed(pol), c.RunDetailed(pol))
			want := 2
			if tc.share {
				want = 1
			}
			if len(table.draws) != want {
				t.Fatalf("table holds %d draws, want %d", len(table.draws), want)
			}
		})
	}

	t.Run("reads-the-table", func(t *testing.T) {
		// A cluster whose key is stored runs on the stored draw, not a
		// draw of its own: a doctored entry shows in its result.
		var table DrawTable
		a := mustCluster(t, queueingCfg(5))
		a.ShareDraws(&table)
		a.RunDetailed(pol)
		key, _ := drawKeyOf(&a.cfg)
		for i := range table.draws[key] {
			table.draws[key][i].sPrim = 1
		}
		b := mustCluster(t, queueingCfg(5))
		b.ShareDraws(&table)
		if got := b.RunDetailed(pol); got.Log.Records[0].Primary != 1 {
			t.Fatalf("first primary response %v: the stored draw was not read", got.Log.Records[0].Primary)
		}
	})
}

// TestRecallRecentRuns pins RunDetailed's memory: a recallable
// cluster returns the Result of an identical recent run, only for a
// policy with the same type and bits, and only within its last
// recallRuns simulated runs.
func TestRecallRecentRuns(t *testing.T) {
	c := mustCluster(t, queueingCfg(5))
	first := c.RunDetailed(reissue.SingleR{D: 5, Q: 0.3})
	if c.RunDetailed(reissue.SingleR{D: 5, Q: 0.3}) != first {
		t.Fatal("an identical run was simulated again")
	}
	if c.RunDetailed(reissue.SingleD{D: 5}) == first {
		t.Fatal("a policy of another type was recalled")
	}
	zero := c.RunDetailed(reissue.SingleR{D: 0, Q: 0.3})
	if c.RunDetailed(reissue.SingleR{D: math.Copysign(0, -1), Q: 0.3}) == zero {
		t.Fatal("-0 recalled +0's run")
	}
	// Four more distinct runs push the first one out.
	for i := 1; i <= recallRuns; i++ {
		c.RunDetailed(reissue.SingleR{D: float64(i), Q: 0.3})
	}
	again := c.RunDetailed(reissue.SingleR{D: 5, Q: 0.3})
	if again == first {
		t.Fatalf("a run older than the last %d was recalled", recallRuns)
	}
	identicalRun(t, "re-simulated", first, again)
}

// TestRecallExclusions pins that every configuration outside the
// recall rule, and every policy that is not a plain value, simulates
// each run.
func TestRecallExclusions(t *testing.T) {
	with := func(edit func(*Config)) Config {
		cfg := queueingCfg(5)
		edit(&cfg)
		return cfg
	}
	schedule := make([]float64, 880)
	for i := range schedule {
		schedule[i] = 2.5 * float64(i)
	}
	pol := reissue.SingleR{D: 5, Q: 0.3}
	multi, err := reissue.NewMultipleR([]float64{2, 6}, []float64{0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		pol  reissue.Policy
	}{
		{"fresh-per-run", with(func(c *Config) { c.FreshPerRun = true }), pol},
		{"on-request-complete", with(func(c *Config) { c.OnRequestComplete = func(bool, float64, float64) {} }), pol},
		{"interference", with(func(c *Config) {
			c.Interference = &Interference{Rate: 0.01, MeanDuration: 20, Factor: 4}
		}), pol},
		{"faults", with(func(c *Config) {
			c.Faults = &FaultPlan{Profiles: []fault.Profile{{Replica: 1, Kind: fault.ErrorRate, Rate: 0.3, Seed: 9}}}
		}), pol},
		{"speed-factors", with(func(c *Config) { c.SpeedFactors = []float64{1, 2, 1, 1} }), pol},
		{"arrival-times", with(func(c *Config) { c.ArrivalTimes = schedule }), pol},
		{"rate-multiplier", with(func(c *Config) { c.RateMultiplier = func(float64) float64 { return 1 } }), pol},
		{"trace-source", with(func(c *Config) { c.Source = &TraceSource{Times: []float64{3, 14, 1, 5}} }), pol},
		{"pointer-lb", with(func(c *Config) { c.LB = &countingLB{} }), pol},
		{"multiple-r", queueingCfg(5), multi},
		{"pointer-policy", queueingCfg(5), &pol},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCluster(t, tc.cfg)
			if c.RunDetailed(tc.pol) == c.RunDetailed(tc.pol) {
				t.Fatal("a run was recalled instead of simulated")
			}
		})
	}
}

// countingLB is a load balancer with state: its value is a pointer,
// so a cluster using it never recalls a run.
type countingLB struct{ picks int }

func (l *countingLB) Pick(r *stats.RNG, lengths []int, exclude int) int {
	l.picks++
	return RandomLB{}.Pick(r, lengths, exclude)
}

func (l *countingLB) String() string { return fmt.Sprintf("counting(%d)", l.picks) }

// TestConfigFieldsClassified makes every Config field take a side in
// the two reuse rules, so a new field cannot join Config without a
// decision on whether it belongs in the DrawTable key (drawKeyOf)
// and whether it keeps a run a pure function of its policy
// (recallable). Update drawKeyOf, recallable and both maps together.
func TestConfigFieldsClassified(t *testing.T) {
	draw := map[string]string{
		"Servers":           "key: finite or infinite",
		"ArrivalRate":       "key",
		"RateMultiplier":    "not shared when set",
		"OnRequestComplete": "not drawn",
		"Queries":           "key: Queries+Warmup",
		"FanOut":            "key",
		"Warmup":            "key: Queries+Warmup",
		"Source":            "key: a DistSource with a comparable Dist; other sources are not shared",
		"LB":                "not drawn",
		"Discipline":        "not drawn",
		"Batch":             "not drawn",
		"Connections":       "key",
		"ArrivalTimes":      "not shared when set",
		"Seed":              "key",
		"PolicySeed":        "not drawn",
		"ServiceSeed":       "key",
		"SpeedFactors":      "not drawn",
		"Interference":      "not drawn: its chain is drawn every run",
		"CancelOnComplete":  "not drawn",
		"Faults":            "not drawn",
		"FreshPerRun":       "not shared when set",
	}
	recall := map[string]string{
		"Servers":           "fixed per cluster",
		"ArrivalRate":       "fixed per cluster",
		"RateMultiplier":    "excluded when set: a func",
		"OnRequestComplete": "excluded when set: a caller callback",
		"Queries":           "fixed per cluster",
		"FanOut":            "fixed per cluster",
		"Warmup":            "fixed per cluster",
		"Source":            "a DistSource only",
		"LB":                "a plain value only",
		"Discipline":        "fixed per cluster",
		"Batch":             "a plain value, fixed per cluster",
		"Connections":       "fixed per cluster",
		"ArrivalTimes":      "excluded when set: a caller slice",
		"Seed":              "fixed per cluster",
		"PolicySeed":        "fixed per cluster",
		"ServiceSeed":       "fixed per cluster",
		"SpeedFactors":      "excluded when set: a caller slice",
		"Interference":      "excluded when set: a caller pointer",
		"CancelOnComplete":  "fixed per cluster",
		"Faults":            "excluded when set: a caller pointer",
		"FreshPerRun":       "excluded when set: every run differs",
	}
	typ := reflect.TypeOf(Config{})
	for _, rule := range []struct {
		name  string
		class map[string]string
	}{{"draw key", draw}, {"recall", recall}} {
		seen := make(map[string]bool)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			seen[name] = true
			if _, ok := rule.class[name]; !ok {
				t.Errorf("Config.%s is not classified for the %s rule", name, rule.name)
			}
		}
		for name := range rule.class {
			if !seen[name] {
				t.Errorf("the %s rule classifies Config.%s, which does not exist", rule.name, name)
			}
		}
	}
	if !plainType(reflect.TypeOf(Config{}.Batch)) {
		t.Error("Config.Batch is no longer a plain value; recallable must check it")
	}
}
