package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTailLatency(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	cases := []struct{ k, want float64 }{
		{20, 1}, {40, 2}, {50, 3}, {60, 3}, {80, 4}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := TailLatency(xs, c.k); got != c.want {
			t.Errorf("TailLatency(%v) = %v, want %v", c.k, got, c.want)
		}
	}
	if !math.IsNaN(TailLatency(nil, 99)) {
		t.Error("empty input should be NaN")
	}
	if xs[0] != 5 {
		t.Error("input mutated")
	}
}

func TestTailLatencyPanics(t *testing.T) {
	for _, k := range []float64{0, -5, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%v did not panic", k)
				}
			}()
			TailLatency([]float64{1}, k)
		}()
	}
}

func TestReductionRatio(t *testing.T) {
	if got := ReductionRatio(900, 400); math.Abs(got-2.25) > 1e-12 {
		t.Errorf("ratio = %v", got)
	}
	// A policy that makes things worse gives a ratio below 1.
	if got := ReductionRatio(100, 200); got != 0.5 {
		t.Errorf("worsening ratio = %v", got)
	}
	if !math.IsNaN(ReductionRatio(1, 0)) {
		t.Error("zero achieved should be NaN")
	}
}

func TestRemediationRate(t *testing.T) {
	outcomes := []QueryOutcome{
		// Primary fast: reissue was wasted.
		{Primary: 10, Reissued: true, ReissueDelay: 5, Reissue: 10, ReissueCompleted: true},
		// Primary misses t=100, reissue lands at 20+30=50 < 100: remediated.
		{Primary: 150, Reissued: true, ReissueDelay: 20, Reissue: 30, ReissueCompleted: true},
		// Primary misses, reissue also too slow.
		{Primary: 150, Reissued: true, ReissueDelay: 20, Reissue: 200, ReissueCompleted: true},
		// Not reissued: excluded from the denominator.
		{Primary: 500, Reissued: false},
	}
	if got := RemediationRate(outcomes, 100); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("remediation = %v, want 1/3", got)
	}
	if got := RemediationRate(nil, 100); got != 0 {
		t.Fatalf("empty remediation = %v", got)
	}
	if got := RemediationRate([]QueryOutcome{{Primary: 1}}, 100); got != 0 {
		t.Fatalf("no-reissue remediation = %v", got)
	}
	// A cancelled reissue counts in the denominator but can never
	// remediate, even when its (unset) response time looks fast.
	cancelled := []QueryOutcome{
		{Primary: 150, Reissued: true, ReissueDelay: 20, Reissue: 0, ReissueCompleted: false},
	}
	if got := RemediationRate(cancelled, 100); got != 0 {
		t.Fatalf("cancelled reissue remediated: %v", got)
	}
}

func TestInverseCDFSeries(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := InverseCDFSeries(xs, []float64{0.5, 0.95, 1.0})
	want := []float64{50, 95, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
	empty := InverseCDFSeries(nil, []float64{0.5})
	if !math.IsNaN(empty[0]) {
		t.Error("empty series should be NaN")
	}
}

// Property: TailLatency returns an element of the input, and is
// monotone in k.
func TestTailLatencyProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		ka := float64(aRaw%100) + 1
		kb := float64(bRaw%100) + 1
		if ka > kb {
			ka, kb = kb, ka
		}
		va, vb := TailLatency(xs, ka), TailLatency(xs, kb)
		if va > vb {
			return false
		}
		found := false
		for _, x := range xs {
			if x == va {
				found = true
				break
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: remediation rate is always within [0, 1].
func TestRemediationRateRangeProperty(t *testing.T) {
	f := func(prims []float64, target float64) bool {
		outcomes := make([]QueryOutcome, len(prims))
		for i, p := range prims {
			outcomes[i] = QueryOutcome{
				Primary: math.Abs(p), Reissued: i%2 == 0,
				ReissueDelay: 1, Reissue: math.Abs(p) / 2,
				ReissueCompleted: i%4 == 0,
			}
		}
		r := RemediationRate(outcomes, math.Abs(target))
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
