package stats

import (
	"fmt"
	"math"
)

// Summary holds moment-based summary statistics of a sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics in a single numerically stable
// pass (Welford's algorithm). It returns a zero Summary for an empty
// input.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := Summary{N: len(samples), Min: samples[0], Max: samples[0]}
	var mean, m2 float64
	for i, x := range samples {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = mean
	if s.N > 1 {
		s.StdDev = math.Sqrt(m2 / float64(s.N-1))
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// PearsonCorrelation returns the sample Pearson correlation coefficient
// between xs and ys. It panics if the slices differ in length and
// returns 0 when either side has zero variance or fewer than two
// points, since the coefficient is undefined there.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: PearsonCorrelation length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram is a fixed-width-bin histogram over [0, BinWidth*len(Counts)).
// Values beyond the last bin are accumulated in Overflow. It renders
// the service-time histograms of the paper's Figure 9.
type Histogram struct {
	BinWidth float64
	Counts   []int
	Overflow int
}

// NewHistogram creates a histogram with the given bin width and bin
// count. It panics on non-positive parameters.
func NewHistogram(binWidth float64, bins int) *Histogram {
	if binWidth <= 0 || bins <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram (width=%v, bins=%v)", binWidth, bins))
	}
	return &Histogram{BinWidth: binWidth, Counts: make([]int, bins)}
}

// Add records one observation. Negative values count in bin 0.
func (h *Histogram) Add(x float64) {
	i := int(x / h.BinWidth)
	switch {
	case i < 0:
		h.Counts[0]++
	case i >= len(h.Counts):
		h.Overflow++
	default:
		h.Counts[i]++
	}
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinCenter returns the midpoint of bin i, matching the paper's
// x-axis labelling (10, 30, 50, ... for 20 ms bins).
func (h *Histogram) BinCenter(i int) float64 {
	return (float64(i) + 0.5) * h.BinWidth
}
