package quantile

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// rankError returns |rank(got) - p*n| / n against the sorted truth.
func rankError(sorted []float64, got, p float64) float64 {
	n := len(sorted)
	rank := sort.SearchFloat64s(sorted, got)
	// Allow any rank covered by equal values.
	hi := sort.Search(n, func(i int) bool { return sorted[i] > got })
	target := p * float64(n)
	lo64, hi64 := float64(rank), float64(hi)
	switch {
	case target < lo64:
		return (lo64 - target) / float64(n)
	case target > hi64:
		return (target - hi64) / float64(n)
	default:
		return 0
	}
}

func TestGKInvalidEpsilonPanics(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%v accepted", eps)
				}
			}()
			NewGK(eps)
		}()
	}
}

func TestGKEmptyAndNaN(t *testing.T) {
	s := NewGK(0.01)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty quantile not NaN")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add(NaN) did not panic")
		}
	}()
	s.Add(math.NaN())
}

func TestGKQuantileRangePanics(t *testing.T) {
	s := NewGK(0.01)
	s.Add(1)
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) accepted", p)
				}
			}()
			s.Quantile(p)
		}()
	}
}

func TestGKExactOnSmallInput(t *testing.T) {
	s := NewGK(0.01)
	for i := 10; i >= 1; i-- {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("max = %v", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-5) > 1 {
		t.Errorf("median = %v", got)
	}
}

func TestGKAccuracyUniform(t *testing.T) {
	const eps = 0.005
	const n = 50000
	s := NewGK(eps)
	r := stats.NewRNG(1)
	vals := make([]float64, n)
	for i := range vals {
		v := r.Float64() * 1000
		vals[i] = v
		s.Add(v)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		got := s.Quantile(p)
		if e := rankError(vals, got, p); e > eps*1.5 {
			t.Errorf("p=%v: rank error %v > %v (got %v)", p, e, eps, got)
		}
	}
}

func TestGKAccuracyHeavyTail(t *testing.T) {
	const eps = 0.005
	const n = 50000
	s := NewGK(eps)
	r := stats.NewRNG(2)
	d := stats.NewPareto(1.1, 2)
	vals := make([]float64, n)
	for i := range vals {
		v := d.Sample(r)
		vals[i] = v
		s.Add(v)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		got := s.Quantile(p)
		if e := rankError(vals, got, p); e > eps*1.5 {
			t.Errorf("p=%v: rank error %v > %v", p, e, eps)
		}
	}
}

func TestGKSpaceSublinear(t *testing.T) {
	const eps = 0.01
	s := NewGK(eps)
	r := stats.NewRNG(3)
	for i := 0; i < 200000; i++ {
		s.Add(r.Float64())
	}
	// GK space bound is O((1/eps) * log(eps*n)); allow a generous
	// constant. Storing all 200k samples would be 200000.
	limit := int(11.0 / eps * math.Log2(eps*200000+2))
	if s.Size() > limit {
		t.Fatalf("sketch holds %d tuples, limit %d", s.Size(), limit)
	}
}

func TestGKSortedAndReverseInputs(t *testing.T) {
	for name, gen := range map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(100000 - i) },
		"constant":   func(int) float64 { return 7 },
	} {
		s := NewGK(0.01)
		var vals []float64
		for i := 0; i < 20000; i++ {
			v := gen(i)
			vals = append(vals, v)
			s.Add(v)
		}
		sort.Float64s(vals)
		for _, p := range []float64{0.1, 0.5, 0.99} {
			got := s.Quantile(p)
			if e := rankError(vals, got, p); e > 0.015 {
				t.Errorf("%s p=%v: rank error %v", name, p, e)
			}
		}
	}
}

func TestGKReset(t *testing.T) {
	s := NewGK(0.01)
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	s.Reset()
	if s.N() != 0 || s.Size() != 0 {
		t.Fatal("Reset did not clear")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("post-Reset quantile not NaN")
	}
	s.Add(42)
	if got := s.Quantile(0.5); got != 42 {
		t.Fatalf("post-Reset Add broken: %v", got)
	}
}

func TestWindowedTracksShift(t *testing.T) {
	w := NewWindowed(0.01, 5000)
	r := stats.NewRNG(4)
	// Phase 1: values near 10.
	for i := 0; i < 10000; i++ {
		w.Add(10 + r.Float64())
	}
	if got := w.Quantile(0.95); got < 10 || got > 11 {
		t.Fatalf("phase-1 P95 = %v", got)
	}
	// Phase 2: distribution shifts to near 100; the window must
	// follow within ~2 windows of samples.
	for i := 0; i < 10000; i++ {
		w.Add(100 + r.Float64())
	}
	if got := w.Quantile(0.95); got < 95 {
		t.Fatalf("windowed P95 = %v did not track the shift", got)
	}
}

func TestWindowedValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window=0 accepted")
		}
	}()
	NewWindowed(0.01, 0)
}

func TestWindowedEmpty(t *testing.T) {
	w := NewWindowed(0.01, 100)
	if !math.IsNaN(w.Quantile(0.5)) {
		t.Fatal("empty windowed quantile not NaN")
	}
	if w.cur.N() != 0 || w.prev != nil {
		t.Fatal("empty N != 0")
	}
}

// Property: GK quantiles are monotone in p and always within the
// observed min/max.
func TestGKMonotoneProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		r := stats.NewRNG(seed)
		s := NewGK(0.01)
		min, max := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := r.Float64() * 100
			min = math.Min(min, v)
			max = math.Max(max, v)
			s.Add(v)
		}
		last := math.Inf(-1)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			q := s.Quantile(p)
			if q < last-1e-12 || q < min || q > max {
				return false
			}
			last = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGKAdd(b *testing.B) {
	s := NewGK(0.001)
	r := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(r.Float64())
	}
}

func BenchmarkGKQuantile(b *testing.B) {
	s := NewGK(0.001)
	r := stats.NewRNG(1)
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantile(0.99)
	}
}
