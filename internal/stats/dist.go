package stats

import (
	"fmt"
	"math"
)

// Dist is a continuous probability distribution over non-negative
// values, used throughout the repository to model service times and
// inter-arrival times.
type Dist interface {
	// Sample draws one variate using the supplied RNG.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value. Distributions
	// with divergent means (e.g. Pareto with shape <= 1) return +Inf.
	Mean() float64
	// CDF returns Pr(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-th quantile (inverse CDF) for p in [0, 1).
	Quantile(p float64) float64
	// String describes the distribution and its parameters.
	String() string
}

// Pareto is the Pareto (type I) distribution with shape alpha and
// scale (mode) xm: Pr(X > x) = (xm/x)^alpha for x >= xm.
//
// The paper's simulation workloads draw service times from
// Pareto(shape=1.1, mode=2.0), a heavy-tailed distribution whose
// 95th percentile is far above its median — exactly the regime where
// reissue policies pay off.
type Pareto struct {
	Shape float64 // alpha > 0
	Mode  float64 // xm > 0
}

// NewPareto returns a Pareto distribution, panicking on invalid
// parameters so that misconfigured experiments fail fast.
func NewPareto(shape, mode float64) Pareto {
	if shape <= 0 || mode <= 0 {
		panic(fmt.Sprintf("stats: invalid Pareto(%v, %v)", shape, mode))
	}
	return Pareto{Shape: shape, Mode: mode}
}

// Sample draws via inverse-transform sampling.
func (p Pareto) Sample(r *RNG) float64 {
	u := 1 - r.Float64() // in (0, 1]
	return p.Mode / math.Pow(u, 1/p.Shape)
}

// Mean returns xm*alpha/(alpha-1), or +Inf when alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Shape <= 1 {
		return math.Inf(1)
	}
	return p.Mode * p.Shape / (p.Shape - 1)
}

// CDF returns 1 - (xm/x)^alpha for x >= xm, else 0.
func (p Pareto) CDF(x float64) float64 {
	if x < p.Mode {
		return 0
	}
	return 1 - math.Pow(p.Mode/x, p.Shape)
}

// Quantile returns the inverse CDF.
func (p Pareto) Quantile(q float64) float64 {
	checkProb(q)
	return p.Mode / math.Pow(1-q, 1/p.Shape)
}

func (p Pareto) String() string {
	return fmt.Sprintf("Pareto(shape=%g, mode=%g)", p.Shape, p.Mode)
}

// LogNormal is the log-normal distribution: ln X ~ N(Mu, Sigma^2).
// The paper's sensitivity study uses LogNormal(1, 1) service times and
// the Redis workload uses log-normally distributed set cardinalities.
type LogNormal struct {
	Mu    float64
	Sigma float64 // > 0
}

// NewLogNormal returns a LogNormal distribution, panicking on invalid
// parameters.
func NewLogNormal(mu, sigma float64) LogNormal {
	if sigma <= 0 {
		panic(fmt.Sprintf("stats: invalid LogNormal(%v, %v)", mu, sigma))
	}
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample draws exp(mu + sigma*Z).
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// CDF returns Phi((ln x - mu)/sigma).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return stdNormalCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// Quantile returns the inverse CDF.
func (l LogNormal) Quantile(p float64) float64 {
	checkProb(p)
	return math.Exp(l.Mu + l.Sigma*stdNormalQuantile(p))
}

func (l LogNormal) String() string {
	return fmt.Sprintf("LogNormal(mu=%g, sigma=%g)", l.Mu, l.Sigma)
}

// Exponential is the exponential distribution with the given Rate;
// mean 1/Rate. The paper's sensitivity study uses Exponential(0.1)
// (mean 10 ms) service times.
type Exponential struct {
	Rate float64 // > 0
}

// NewExponential returns an Exponential distribution, panicking on an
// invalid rate.
func NewExponential(rate float64) Exponential {
	if rate <= 0 {
		panic(fmt.Sprintf("stats: invalid Exponential(%v)", rate))
	}
	return Exponential{Rate: rate}
}

// Sample draws via the RNG's exponential stream.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }

// Mean returns 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// CDF returns 1 - exp(-rate*x).
func (e Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*x)
}

// Quantile returns -ln(1-p)/rate.
func (e Exponential) Quantile(p float64) float64 {
	checkProb(p)
	return -math.Log(1-p) / e.Rate
}

func (e Exponential) String() string {
	return fmt.Sprintf("Exponential(rate=%g)", e.Rate)
}

// Deterministic is a degenerate distribution that always returns
// Value: the service time of an M/D/1 queue.
//
//lint:allow deadexports the M/D/1 service distribution the simulator's theory-validation test checks against the Pollaczek-Khinchine oracle
type Deterministic struct {
	Value float64
}

// Sample returns Value.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

// CDF is the step function at Value.
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// Quantile returns Value for every p.
func (d Deterministic) Quantile(p float64) float64 {
	checkProb(p)
	return d.Value
}

func (d Deterministic) String() string {
	return fmt.Sprintf("Deterministic(%g)", d.Value)
}

func checkProb(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v outside [0, 1)", p))
	}
}

// stdNormalCDF evaluates the standard normal CDF via the complementary
// error function.
func stdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// stdNormalQuantile evaluates the standard normal inverse CDF using
// Acklam's rational approximation refined with one Halley step,
// accurate to ~1e-15 over (0, 1).
func stdNormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := stdNormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}
