package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// fast returns options scaled down for a smoke run: few queries, a
// small unit, light load.
func fast() options {
	return options{
		workload: "kv",
		queries:  300,
		warmup:   50,
		replicas: 3,
		slow:     2.0,
		util:     0.20,
		k:        0.95,
		budget:   0.05,
		unitMS:   0.2,
		seed:     3,
		sim:      true,
		multi:    true,
	}
}

func TestRunSmoke(t *testing.T) {
	var buf bytes.Buffer
	s, err := run(fast(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"remote fleet:", "baseline:", "hedged #2:",
		"winning-attempt histogram", "cross-validation", "fixed-policy reissue rate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if len(s.multiWins) == 0 {
		t.Error("multi-delay pass recorded no attempt histogram")
	}
}

func TestRunSearchWorkload(t *testing.T) {
	o := fast()
	o.workload = "search"
	o.sim = false
	o.multi = false
	o.unitMS = 0.05
	var buf bytes.Buffer
	if _, err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	o := fast()
	o.workload = "bogus"
	if _, err := run(o, &bytes.Buffer{}); err == nil {
		t.Error("run accepted an unknown workload")
	}
	o = fast()
	o.warmup = o.queries
	if _, err := run(o, &bytes.Buffer{}); err == nil {
		t.Error("run accepted warmup >= queries")
	}
	o = fast()
	o.replicas = 0
	if _, err := run(o, &bytes.Buffer{}); err == nil {
		t.Error("run accepted zero replicas")
	}
}

// TestRemoteSimAgreement is the demo's acceptance check at a
// statistically meaningful scale: across the HTTP transport, the
// fixed rate-anchor policy must reissue at the simulator's rate
// within the same tolerance the in-process agreement test uses, and
// hedging must beat the unhedged P99.
func TestRemoteSimAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("remote runs take tens of wall-clock seconds")
	}
	o := options{
		workload: "kv",
		queries:  1800,
		warmup:   250,
		replicas: 4,
		slow:     2.5,
		util:     0.28,
		k:        0.99,
		budget:   0.05,
		unitMS:   2.0,
		seed:     21,
		sim:      true,
		multi:    false,
	}
	var buf bytes.Buffer
	s, err := run(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	if d := math.Abs(s.fixedLiveRate - s.fixedSimRate); d > metrics.AgreementBand {
		t.Errorf("fixed-policy reissue rates differ by %.4f across the transport: remote=%.4f sim=%.4f",
			d, s.fixedLiveRate, s.fixedSimRate)
	}
	// Assert tail improvement on the run under the policy tuned at
	// the full budget — the same run the in-process agreement test
	// asserts on. The budget-rebound rerun spends less and its tail
	// is noisier.
	if s.tunedP99 >= 0.97*s.baseP99 {
		t.Errorf("remote hedging did not improve P99: %.2f -> %.2f", s.baseP99, s.tunedP99)
	}
	if s.hedgeRate <= 0 || s.hedgeRate > 2.5*o.budget {
		t.Errorf("tuned remote reissue rate %.4f outside (0, %.3f]", s.hedgeRate, 2.5*o.budget)
	}
}
