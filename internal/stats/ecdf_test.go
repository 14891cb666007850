package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2, 5})
	if e.Len() != 5 {
		t.Fatalf("Len = %d", e.Len())
	}
	// PLE is Pr(X <= t), an inclusive count.
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 0.2}, {1.5, 0.2}, {2, 0.6}, {2.5, 0.6},
		{3, 0.8}, {4, 0.8}, {5, 1}, {6, 1},
	}
	for _, c := range cases {
		if got := e.PLE(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PLE(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestECDFInputNotMutated(t *testing.T) {
	in := []float64{3, 1, 2}
	NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewECDF mutated its input")
	}
}

func TestEmptyECDF(t *testing.T) {
	e := NewECDF(nil)
	if e.PLE(10) != 0 {
		t.Error("empty ECDF should return 0 probabilities")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty ECDF did not panic")
		}
	}()
	e.Quantile(0.5)
}

func TestQuantileNearestRank(t *testing.T) {
	// 100 samples: 1..100. Nearest-rank p99 of this set is 99.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	e := NewECDF(xs)
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := e.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := e.Percentile(99); got != 99 {
		t.Errorf("Percentile(99) = %v", got)
	}
}

func TestQuantileSingleSample(t *testing.T) {
	e := NewECDF([]float64{7})
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := e.Quantile(p); got != 7 {
			t.Errorf("Quantile(%v) = %v, want 7", p, got)
		}
	}
}

func TestQuantileOutOfRangePanics(t *testing.T) {
	e := NewECDF([]float64{1, 2})
	for _, p := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			e.Quantile(p)
		}()
	}
}

func TestPackageLevelHelpers(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("Percentile = %v", got)
	}
	if xs[0] != 5 {
		t.Error("helper mutated input")
	}
}

// Property: P and PLE are consistent with brute-force counting.
func TestECDFCountProperty(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(probe) {
			return true
		}
		e := NewECDF(xs)
		lessEq := 0
		for _, v := range xs {
			if v <= probe {
				lessEq++
			}
		}
		return e.CountLessEq(probe) == lessEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile is monotone in p and always returns a sample.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		e := NewECDF(xs)
		qa, qb := e.Quantile(pa), e.Quantile(pb)
		if qa > qb {
			return false
		}
		// Both must be actual samples.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		found := func(v float64) bool {
			i := sort.SearchFloat64s(sorted, v)
			return i < len(sorted) && sorted[i] == v
		}
		return found(qa) && found(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile(PLE(x)) <= x for x in the sample set (Galois-ish
// consistency between the empirical CDF and its inverse).
func TestQuantileCDFConsistencyProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		for _, x := range xs {
			if e.Quantile(e.PLE(x)) > x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
