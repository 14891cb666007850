package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleMany draws n variates from d.
func sampleMany(d Dist, n int, seed uint64) []float64 {
	r := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// checkMean verifies the sample mean approaches the analytic mean.
func checkMean(t *testing.T, d Dist, tol float64) {
	t.Helper()
	s := Summarize(sampleMany(d, 200000, 99))
	want := d.Mean()
	if math.Abs(s.Mean-want)/want > tol {
		t.Errorf("%v: sample mean %v, analytic %v", d, s.Mean, want)
	}
}

// checkQuantileCDFInverse verifies CDF(Quantile(p)) ~ p on a grid.
func checkQuantileCDFInverse(t *testing.T, d Dist) {
	t.Helper()
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := d.Quantile(p)
		if got := d.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("%v: CDF(Quantile(%v)) = %v", d, p, got)
		}
	}
}

// checkEmpiricalCDF verifies sampled quantiles track the analytic CDF.
func checkEmpiricalCDF(t *testing.T, d Dist, seed uint64) {
	t.Helper()
	samples := sampleMany(d, 100000, seed)
	e := NewECDF(samples)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		x := d.Quantile(p)
		if got := e.PLE(x); math.Abs(got-p) > 0.01 {
			t.Errorf("%v: empirical CDF at q%v = %v, want ~%v", d, p, got, p)
		}
	}
}

func TestPareto(t *testing.T) {
	d := NewPareto(2.5, 2.0)
	checkMean(t, d, 0.02)
	checkQuantileCDFInverse(t, d)
	checkEmpiricalCDF(t, d, 101)
	if got := d.CDF(1.0); got != 0 {
		t.Errorf("CDF below mode = %v, want 0", got)
	}
	if min := Summarize(sampleMany(d, 10000, 3)).Min; min < d.Mode {
		t.Errorf("sample %v below mode %v", min, d.Mode)
	}
}

func TestParetoHeavyTailInfiniteMean(t *testing.T) {
	d := NewPareto(1.0, 2.0)
	if !math.IsInf(d.Mean(), 1) {
		t.Fatalf("Pareto(1,2).Mean() = %v, want +Inf", d.Mean())
	}
}

func TestParetoPaperParamsTail(t *testing.T) {
	// The paper's simulation distribution: shape 1.1, mode 2.
	d := NewPareto(1.1, 2.0)
	// P95/median ratio should be large (heavy tail).
	med, p95 := d.Quantile(0.5), d.Quantile(0.95)
	if p95/med < 5 {
		t.Fatalf("Pareto(1.1,2) p95/median = %v, expected heavy tail", p95/med)
	}
}

func TestLogNormal(t *testing.T) {
	d := NewLogNormal(1, 1)
	checkMean(t, d, 0.05)
	checkQuantileCDFInverse(t, d)
	checkEmpiricalCDF(t, d, 103)
	if got, want := d.Quantile(0.5), math.Exp(1.0); math.Abs(got-want) > 1e-6 {
		t.Errorf("median = %v, want e = %v", got, want)
	}
}

func TestExponential(t *testing.T) {
	d := NewExponential(0.1)
	checkMean(t, d, 0.02)
	checkQuantileCDFInverse(t, d)
	checkEmpiricalCDF(t, d, 107)
	if got := d.Mean(); got != 10 {
		t.Errorf("Exponential(0.1).Mean() = %v, want 10", got)
	}
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 4.2}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 4.2 {
			t.Fatal("Deterministic sample varied")
		}
	}
	if d.CDF(4.19) != 0 || d.CDF(4.2) != 1 {
		t.Error("Deterministic CDF wrong")
	}
	if d.Quantile(0.5) != 4.2 {
		t.Error("Deterministic quantile wrong")
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	cases := []func(){
		func() { NewPareto(0, 1) },
		func() { NewPareto(1, -1) },
		func() { NewLogNormal(0, 0) },
		func() { NewExponential(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestQuantileRangePanics(t *testing.T) {
	d := NewExponential(1)
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			d.Quantile(p)
		}()
	}
}

func TestStdNormalQuantileAccuracy(t *testing.T) {
	// Known values of the standard normal inverse CDF.
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.9772498680518208, 2},
		{0.9986501019683699, 3},
		{0.158655253931457, -1},
	}
	for _, c := range cases {
		if got := stdNormalQuantile(c.p); math.Abs(got-c.z) > 1e-9 {
			t.Errorf("stdNormalQuantile(%v) = %v, want %v", c.p, got, c.z)
		}
	}
}

// Property: CDFs are monotone non-decreasing for all distributions.
func TestCDFMonotoneProperty(t *testing.T) {
	dists := []Dist{
		NewPareto(1.1, 2), NewLogNormal(1, 1), NewExponential(0.1),
		Deterministic{Value: 3},
	}
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if x > y {
			x, y = y, x
		}
		for _, d := range dists {
			if d.CDF(x) > d.CDF(y)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: samples are non-negative for all our distributions.
func TestSampleNonNegativeProperty(t *testing.T) {
	dists := []Dist{
		NewPareto(1.1, 2), NewLogNormal(1, 1), NewExponential(0.1),
		Deterministic{Value: 1},
	}
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for _, d := range dists {
			for i := 0; i < 20; i++ {
				if d.Sample(r) < 0 {
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
