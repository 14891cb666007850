package reissue

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNonePlansNothing(t *testing.T) {
	r := stats.NewRNG(1)
	for i := 0; i < 10; i++ {
		if got := (None{}).Plan(r); len(got) != 0 {
			t.Fatalf("None planned %v", got)
		}
	}
}

func TestSingleDAlwaysPlans(t *testing.T) {
	r := stats.NewRNG(1)
	p := SingleD{D: 3.5}
	for i := 0; i < 10; i++ {
		got := p.Plan(r)
		if len(got) != 1 || got[0] != 3.5 {
			t.Fatalf("SingleD planned %v", got)
		}
	}
}

func TestSingleRPlanFrequency(t *testing.T) {
	r := stats.NewRNG(2)
	p := SingleR{D: 1, Q: 0.3}
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		plan := p.Plan(r)
		if len(plan) > 1 {
			t.Fatalf("SingleR planned %d reissues", len(plan))
		}
		if len(plan) == 1 {
			if plan[0] != 1 {
				t.Fatalf("SingleR delay %v", plan[0])
			}
			hits++
		}
	}
	if got := float64(hits) / trials; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("SingleR reissue frequency %v, want 0.3", got)
	}
}

func TestSingleRExtremes(t *testing.T) {
	r := stats.NewRNG(3)
	if got := (SingleR{D: 1, Q: 0}).Plan(r); len(got) != 0 {
		t.Fatal("q=0 planned a reissue")
	}
	if got := (SingleR{D: 1, Q: 1}).Plan(r); len(got) != 1 {
		t.Fatal("q=1 did not plan a reissue")
	}
}

func TestImmediatePlan(t *testing.T) {
	r := stats.NewRNG(4)
	if got := (Immediate{N: 2}).Plan(r); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("Immediate(2) planned %v", got)
	}
	if got := (Immediate{N: 0}).Plan(r); len(got) != 0 {
		t.Fatalf("Immediate(0) planned %v", got)
	}
	if got := (Immediate{N: -1}).Plan(r); len(got) != 0 {
		t.Fatalf("Immediate(-1) planned %v", got)
	}
}

func TestNewMultipleRValidation(t *testing.T) {
	if _, err := NewMultipleR([]float64{1, 2}, []float64{0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewMultipleR([]float64{2, 1}, []float64{0.5, 0.5}); err == nil {
		t.Error("unsorted delays accepted")
	}
	if _, err := NewMultipleR([]float64{1, 2}, []float64{0.5, 1.5}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := NewMultipleR([]float64{-1, 2}, []float64{0.5, 0.5}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := NewMultipleR([]float64{1, 2}, []float64{0.5, 0.5}); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

func TestMultipleRPlanSubset(t *testing.T) {
	r := stats.NewRNG(5)
	p, err := NewMultipleR([]float64{1, 2, 3}, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Plan(r)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("plan = %v, want [1 3]", got)
	}
}

func TestDoubleRConstructor(t *testing.T) {
	p, err := DoubleR(1, 0.3, 2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Delays) != 2 || p.Delays[1] != 2 || p.Probs[0] != 0.3 {
		t.Fatalf("DoubleR = %+v", p)
	}
	if _, err := DoubleR(2, 0.3, 1, 0.4); err == nil {
		t.Error("descending DoubleR accepted")
	}
}

func TestSingleRValidate(t *testing.T) {
	cases := []struct {
		p  SingleR
		ok bool
	}{
		{SingleR{D: 1, Q: 0.5}, true},
		{SingleR{D: 0, Q: 0}, true},
		{SingleR{D: -1, Q: 0.5}, false},
		{SingleR{D: 1, Q: 1.5}, false},
		{SingleR{D: math.NaN(), Q: 0.5}, false},
		{SingleR{D: math.Inf(1), Q: 0.5}, false},
		{SingleR{D: 1, Q: math.NaN()}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	// Smoke-test the Stringers used in experiment output.
	for _, p := range []Policy{
		None{}, SingleR{D: 1, Q: 0.5}, SingleD{D: 2},
		Immediate{N: 1}, MultipleR{Delays: []float64{1}, Probs: []float64{1}},
	} {
		if p.String() == "" {
			t.Errorf("%T has empty String()", p)
		}
	}
}

// Property: MultipleR plans are always sorted subsets of its delays.
func TestMultipleRPlanProperty(t *testing.T) {
	f := func(seed uint64, q1, q2, q3 float64) bool {
		norm := func(q float64) float64 { return math.Abs(math.Mod(q, 1)) }
		p, err := NewMultipleR([]float64{1, 2, 3}, []float64{norm(q1), norm(q2), norm(q3)})
		if err != nil {
			return false
		}
		r := stats.NewRNG(seed)
		for i := 0; i < 20; i++ {
			plan := p.Plan(r)
			for j := 1; j < len(plan); j++ {
				if plan[j] <= plan[j-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMultipleRAppendPlanSlots: the appending slot variant samples
// exactly like Plan — same delays, same RNG consumption — keeps what
// the buffers already hold, and tags each delay with its slot.
func TestMultipleRAppendPlanSlots(t *testing.T) {
	p, err := NewMultipleR([]float64{1, 2, 2, 5}, []float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := stats.NewRNG(9), stats.NewRNG(9)
	for i := 0; i < 200; i++ {
		want := p.Plan(ra)
		delays, slots := p.AppendPlanSlots(rb, []float64{-1}, []int{-1})
		if delays[0] != -1 || slots[0] != -1 {
			t.Fatalf("draw %d: buffer prefix overwritten: %v %v", i, delays, slots)
		}
		delays, slots = delays[1:], slots[1:]
		if len(delays) != len(want) || len(slots) != len(want) {
			t.Fatalf("draw %d: got %v %v, Plan gave %v", i, delays, slots, want)
		}
		for k := range want {
			if delays[k] != want[k] || p.Delays[slots[k]-1] != delays[k] {
				t.Fatalf("draw %d: got %v slots %v, Plan gave %v", i, delays, slots, want)
			}
			if k > 0 && slots[k] <= slots[k-1] {
				t.Fatalf("draw %d: slots %v not ascending", i, slots)
			}
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Error("AppendPlanSlots consumed a different random stream than Plan")
	}
}
