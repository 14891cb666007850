package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Sample (n-1) standard deviation of this classic set is ~2.138.
	if math.Abs(s.StdDev-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v, want ~2.138", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.StdDev != 0 || s.Min != 3 || s.Max != 3 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeNumericalStability(t *testing.T) {
	// Large offset + small variance: naive sum-of-squares would lose
	// all precision here; Welford must not.
	const offset = 1e9
	xs := []float64{offset + 1, offset + 2, offset + 3}
	s := Summarize(xs)
	if math.Abs(s.Mean-(offset+2)) > 1e-3 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if math.Abs(s.StdDev-1) > 1e-6 {
		t.Errorf("StdDev = %v, want 1", s.StdDev)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := PearsonCorrelation(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive corr = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := PearsonCorrelation(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative corr = %v", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := PearsonCorrelation(xs, flat); got != 0 {
		t.Errorf("zero-variance corr = %v, want 0", got)
	}
}

func TestPearsonCorrelationMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	PearsonCorrelation([]float64{1}, []float64{1, 2})
}

func TestPearsonCorrelationLinearModel(t *testing.T) {
	// Y = 0.5 X + Z reproduces the paper's correlation model; check
	// the measured coefficient is strongly positive.
	r := NewRNG(77)
	d := NewExponential(0.5)
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		xs[i] = x
		ys[i] = 0.5*x + d.Sample(r)
	}
	got := PearsonCorrelation(xs, ys)
	if got < 0.3 || got > 0.7 {
		t.Errorf("correlation = %v, want mid-range positive", got)
	}
}

// total returns the number of observations h recorded, overflow
// included.
func total(h *Histogram) int {
	n := h.Overflow
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(20, 5) // bins [0,20) [20,40) ... [80,100)
	h.AddAll([]float64{0, 19.99, 20, 45, 99, 100, 500, -3})
	if h.Counts[0] != 3 { // 0, 19.99, and clamped -3
		t.Errorf("bin 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Errorf("bins = %v", h.Counts)
	}
	if h.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", h.Overflow)
	}
	if total(h) != 8 {
		t.Errorf("total = %d, want 8", total(h))
	}
	if h.BinCenter(0) != 10 || h.BinCenter(1) != 30 {
		t.Errorf("BinCenter wrong: %v, %v", h.BinCenter(0), h.BinCenter(1))
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(0, 10)
}

// Property: Summarize's min/max/mean bracket correctly.
func TestSummarizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Min > s.Max {
			return false
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram totals equal the number of added values.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(7, 11)
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		return total(h) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: correlation is symmetric and within [-1, 1].
func TestCorrelationRangeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		r := NewRNG(seed)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = r.Float64() * 100
			ys[i] = r.Float64() * 100
		}
		c1 := PearsonCorrelation(xs, ys)
		c2 := PearsonCorrelation(ys, xs)
		return math.Abs(c1-c2) < 1e-9 && c1 >= -1-1e-9 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
