package reissue

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rangequery"
	"repro/internal/stats"
)

// sampleLog draws n samples from d with the given seed.
func sampleLog(d stats.Dist, n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// bruteForceOptimal scans every candidate reissue delay d in rx and
// returns the smallest achievable predicted tail latency — an
// independent O(N^2 log N) reference for the Figure 1 algorithm. It
// counts Pr(X > d) inclusively, as the optimizer does.
func bruteForceOptimal(rx, ry []float64, k, B float64) (SingleR, float64) {
	sx := sortedCopy(rx)
	best := SingleR{D: sx[0], Q: 1}
	bestT := math.Inf(1)
	for _, d := range sx {
		pxGT := 1 - float64(countLE(sx, d))/float64(len(sx))
		q := 1.0
		if pxGT > 0 {
			q = math.Min(1, B/pxGT)
		}
		pol := SingleR{D: d, Q: q}
		pred := PredictSingleR(rx, ry, pol, k)
		if pred.TailLatency < bestT {
			bestT = pred.TailLatency
			best = pol
		}
	}
	return best, bestT
}

func TestOptimizerArgsValidation(t *testing.T) {
	rx := []float64{1, 2, 3}
	if _, _, err := ComputeOptimalSingleR(nil, rx, 0.95, 0.1); err == nil {
		t.Error("empty rx accepted")
	}
	if _, _, err := ComputeOptimalSingleR(rx, rx, 0, 0.1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := ComputeOptimalSingleR(rx, rx, 1, 0.1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, _, err := ComputeOptimalSingleR(rx, rx, 0.95, -0.1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, _, err := ComputeOptimalSingleR(rx, rx, 0.95, 1.1); err == nil {
		t.Error("budget > 1 accepted")
	}
}

func TestOptimizerRespectsBudget(t *testing.T) {
	rx := sampleLog(stats.NewPareto(1.1, 2), 20000, 1)
	for _, B := range []float64{0.01, 0.05, 0.1, 0.3} {
		pol, pred, err := ComputeOptimalSingleR(rx, nil, 0.95, B)
		if err != nil {
			t.Fatal(err)
		}
		if err := pol.Validate(); err != nil {
			t.Fatalf("B=%v: invalid policy: %v", B, err)
		}
		if pred.Budget > B+1e-9 {
			t.Errorf("B=%v: predicted budget %v exceeds budget", B, pred.Budget)
		}
	}
}

func TestOptimizerImprovesOnBaseline(t *testing.T) {
	rx := sampleLog(stats.NewPareto(1.1, 2), 20000, 2)
	base := stats.Percentile(rx, 95)
	pol, pred, err := ComputeOptimalSingleR(rx, nil, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TailLatency >= base {
		t.Fatalf("optimizer did not improve: %v >= baseline %v (policy %v)",
			pred.TailLatency, base, pol)
	}
	// With a 5% budget on a heavy-tailed workload the paper's model
	// predicts a large reduction; requiring 25% is conservative.
	if pred.TailLatency > base*0.75 {
		t.Errorf("reduction too small: %v vs baseline %v", pred.TailLatency, base)
	}
}

func TestOptimizerMatchesBruteForce(t *testing.T) {
	type tcase struct {
		dist stats.Dist
		k, B float64
		n    int
		seed uint64
	}
	cases := []tcase{
		{stats.NewPareto(1.1, 2), 0.95, 0.05, 2000, 42},
		{stats.NewPareto(1.1, 2), 0.99, 0.02, 2000, 42},
		{stats.NewLogNormal(1, 1), 0.95, 0.10, 2000, 42},
		{stats.NewExponential(0.1), 0.90, 0.20, 2000, 42},
	}
	r := stats.NewRNG(5)
	dists := []stats.Dist{stats.NewPareto(1.1, 2), stats.NewLogNormal(1, 1), stats.NewExponential(0.1)}
	for i := 0; i < 24; i++ {
		cases = append(cases, tcase{
			dist: dists[r.Intn(len(dists))],
			k:    0.5 + 0.49*r.Float64(),
			B:    0.3 * r.Float64(),
			n:    10 + r.Intn(400),
			seed: r.Uint64(),
		})
	}
	for _, tc := range cases {
		rx := sampleLog(tc.dist, tc.n, tc.seed)
		ry := sampleLog(tc.dist, tc.n, tc.seed+1)
		_, pred, err := ComputeOptimalSingleR(rx, ry, tc.k, tc.B)
		if err != nil {
			t.Fatal(err)
		}
		// The Figure 1 search must find the brute-force optimum; both
		// return sample values, so they compare exactly.
		if _, bruteT := bruteForceOptimal(rx, ry, tc.k, tc.B); pred.TailLatency != bruteT {
			t.Errorf("%v n=%d seed=%d k=%v B=%v: optimizer %v vs brute force %v",
				tc.dist, tc.n, tc.seed, tc.k, tc.B, pred.TailLatency, bruteT)
		}
	}
}

// bruteForceCorrelated runs the Figure 1 search with the correlated
// success rate, counting Pr(Y <= t-d | X > t) by scanning every pair
// on each evaluation: an O(N^2) reference for the Fenwick sweep.
func bruteForceCorrelated(sx []float64, pairs []rangequery.Point, k, B float64) (SingleR, Prediction) {
	nx := float64(len(sx))
	success := func(t, d float64) float64 {
		pxLE := float64(countLE(sx, t)) / nx
		pxGT := 1 - float64(countLE(sx, d))/nx
		q := 1.0
		if pxGT > 0 {
			q = math.Min(1, B/pxGT)
		}
		if t < d {
			return pxLE
		}
		var gt, gtYLE, yLE int
		for _, p := range pairs {
			if p.Y <= t-d {
				yLE++
			}
			if p.X > t {
				gt++
				if p.Y <= t-d {
					gtYLE++
				}
			}
		}
		pyLE := float64(yLE) / float64(len(pairs))
		if gt > 0 {
			pyLE = float64(gtYLE) / float64(gt)
		}
		return pxLE + q*(1-pxLE)*pyLE
	}
	dStar := sx[0]
	hi := len(sx) - 1
	t := sx[hi]
	for lo := 0; lo <= hi; lo++ {
		d := sx[lo]
		for alpha := success(t, d); alpha > k && t > d && hi > lo; alpha = success(t, d) {
			hi--
			t = sx[hi]
			dStar = d
		}
	}
	pxGT := 1 - float64(countLE(sx, dStar))/nx
	q := 1.0
	if pxGT > 0 {
		q = math.Min(1, B/pxGT)
	}
	return SingleR{D: dStar, Q: q}, Prediction{TailLatency: t, SuccessRate: success(t, dStar), Budget: q * pxGT}
}

// The correlated optimizer matches its O(N^2) reference bit for bit on
// point sets where most X and Y values are tied, so the sweep's
// insertion boundary and the rank queries land on ties. The first
// 300 sets are drawn as the retired merge-sort tree's tied-X test drew
// them; the rest add a primary log wider than the pair set.
func TestCorrelatedOptimizerMatchesBruteForce(t *testing.T) {
	ks := []float64{0.5, 0.9, 0.95, 0.99}
	Bs := []float64{0, 0.05, 0.3, 1}
	check := func(trial int, rx []float64, pairs []rangequery.Point) {
		k, B := ks[trial%4], Bs[trial/4%4]
		sx := sortedCopy(rx)
		pol, pred, err := ComputeOptimalSingleRCorrelatedSorted(sx, pairs, k, B)
		if len(pairs) == 0 {
			if err == nil {
				t.Fatalf("trial %d: empty pairs accepted", trial)
			}
			return
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if wantPol, wantPred := bruteForceCorrelated(sx, pairs, k, B); pol != wantPol || pred != wantPred {
			t.Fatalf("trial %d (k=%v B=%v, %d pairs): got %v %+v, brute force %v %+v",
				trial, k, B, len(pairs), pol, pred, wantPol, wantPred)
		}
	}
	r := stats.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(80)
		distinctX := 1 + r.Intn(6)
		pairs := make([]rangequery.Point, n)
		rx := []float64{float64(distinctX)}
		for i := range pairs {
			pairs[i] = rangequery.Point{X: float64(r.Intn(distinctX)), Y: float64(r.Intn(10))}
			rx = append(rx, pairs[i].X)
		}
		check(trial, rx, pairs)
	}
	r = stats.NewRNG(8)
	for trial := 300; trial < 600; trial++ {
		rx := make([]float64, 1+r.Intn(200))
		var pairs []rangequery.Point
		for i := range rx {
			rx[i] = float64(r.Intn(30))
			if r.Bool(0.3) {
				pairs = append(pairs, rangequery.Point{X: rx[i], Y: float64(r.Intn(15)) + 0.5*rx[i]})
			}
		}
		check(trial, rx, pairs)
	}
}

func TestOptimizerEmptyReissueLogFallsBack(t *testing.T) {
	rx := sampleLog(stats.NewExponential(1), 1000, 7)
	a, _, err := ComputeOptimalSingleR(rx, nil, 0.95, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ComputeOptimalSingleR(rx, rx, 0.95, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nil ry (%+v) differs from ry=rx (%+v)", a, b)
	}
}

func TestOptimizerAgreesWithAnalytic(t *testing.T) {
	// On a large log, the data-driven optimum should approach the
	// analytic (distribution-level) optimum.
	X := stats.NewPareto(1.3, 2)
	rx := sampleLog(X, 50000, 11)
	ry := sampleLog(X, 50000, 12)
	k, B := 0.95, 0.05
	_, predData, err := ComputeOptimalSingleR(rx, ry, k, B)
	if err != nil {
		t.Fatal(err)
	}
	_, tailAnalytic := OptimalSingleRAnalytic(X, X, k, B, 600)
	if math.Abs(predData.TailLatency-tailAnalytic)/tailAnalytic > 0.1 {
		t.Fatalf("data-driven %v vs analytic %v", predData.TailLatency, tailAnalytic)
	}
}

func TestPredictSingleRNoneEqualsPercentile(t *testing.T) {
	rx := sampleLog(stats.NewLogNormal(1, 1), 5000, 13)
	pred := PredictSingleR(rx, nil, SingleR{D: 0, Q: 0}, 0.99)
	want := stats.Percentile(rx, 99)
	if math.Abs(pred.TailLatency-want) > 1e-9 {
		t.Fatalf("no-reissue prediction %v != empirical P99 %v", pred.TailLatency, want)
	}
}

func TestOptimalSingleD(t *testing.T) {
	rx := make([]float64, 100)
	for i := range rx {
		rx[i] = float64(i + 1) // 1..100
	}
	pol, err := OptimalSingleD(rx, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Pr(X > 95) = 5/100 = B exactly.
	if pol.D != 95 {
		t.Fatalf("SingleD delay = %v, want 95", pol.D)
	}
	if _, err := OptimalSingleD(nil, 0.05); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := OptimalSingleD(rx, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestCorrelatedOptimizerIndependentDataMatches(t *testing.T) {
	// With independent X, Y pairs the correlated optimizer should pick
	// approximately the same policy as the independent one.
	r := stats.NewRNG(17)
	d := stats.NewPareto(1.2, 2)
	n := 20000
	pairs := make([]rangequery.Point, n)
	rx := make([]float64, n)
	ry := make([]float64, n)
	for i := 0; i < n; i++ {
		rx[i] = d.Sample(r)
		ry[i] = d.Sample(r)
		pairs[i] = rangequery.Point{X: rx[i], Y: ry[i]}
	}
	k, B := 0.95, 0.05
	_, predI, err := ComputeOptimalSingleR(rx, ry, k, B)
	if err != nil {
		t.Fatal(err)
	}
	_, predC, err := ComputeOptimalSingleRCorrelated(rx, pairs, k, B)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(predC.TailLatency-predI.TailLatency)/predI.TailLatency > 0.25 {
		t.Fatalf("correlated %v vs independent %v on independent data",
			predC.TailLatency, predI.TailLatency)
	}
}

func TestCorrelatedOptimizerReissuesEarlierUnderCorrelation(t *testing.T) {
	// Section 5.3: with correlated service times (Y = r*X + Z) the
	// optimal policy reissues *earlier* (smaller d, smaller q) than
	// the independence assumption suggests.
	r := stats.NewRNG(19)
	d := stats.NewPareto(1.1, 2)
	n := 30000
	pairs := make([]rangequery.Point, n)
	rx := make([]float64, n)
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		rx[i] = x
		pairs[i] = rangequery.Point{X: x, Y: 0.5*x + d.Sample(r)}
	}
	k, B := 0.95, 0.10
	polI, _, err := ComputeOptimalSingleR(rx, rx, k, B)
	if err != nil {
		t.Fatal(err)
	}
	polC, _, err := ComputeOptimalSingleRCorrelated(rx, pairs, k, B)
	if err != nil {
		t.Fatal(err)
	}
	if polC.D > polI.D {
		t.Fatalf("correlated optimizer reissued later (d=%v) than independent (d=%v)",
			polC.D, polI.D)
	}
	if polC.Q > polI.Q+1e-9 {
		t.Fatalf("correlated optimizer used larger q (%v) than independent (%v)",
			polC.Q, polI.Q)
	}
}

func TestCorrelatedOptimizerValidation(t *testing.T) {
	if _, _, err := ComputeOptimalSingleRCorrelated(nil, nil, 0.95, 0.1); err == nil {
		t.Error("empty pairs accepted")
	}
}

// Property: for arbitrary sample logs and parameters, the optimizer
// returns a valid policy whose predicted budget never exceeds B and
// whose predicted tail never exceeds the no-reissue percentile.
func TestOptimizerInvariantsProperty(t *testing.T) {
	f := func(seed uint64, kRaw, bRaw uint8) bool {
		k := 0.5 + float64(kRaw%49)/100  // 0.50 .. 0.98
		B := 0.01 + float64(bRaw%40)/100 // 0.01 .. 0.40
		rx := sampleLog(stats.NewLogNormal(1, 1), 500, seed)
		pol, pred, err := ComputeOptimalSingleR(rx, nil, k, B)
		if err != nil {
			return false
		}
		if pol.Validate() != nil {
			return false
		}
		if pred.Budget > B+1e-9 {
			return false
		}
		base := stats.NewECDF(rx).Quantile(k)
		return pred.TailLatency <= base+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the predicted tail latency is monotone non-increasing in
// the budget (more reissue allowance can never hurt in the model).
func TestOptimizerMonotoneInBudgetProperty(t *testing.T) {
	rx := sampleLog(stats.NewPareto(1.1, 2), 3000, 23)
	f := func(aRaw, bRaw uint8) bool {
		a := 0.01 + float64(aRaw%50)/100
		b := 0.01 + float64(bRaw%50)/100
		if a > b {
			a, b = b, a
		}
		_, predA, err := ComputeOptimalSingleR(rx, nil, 0.95, a)
		if err != nil {
			return false
		}
		_, predB, err := ComputeOptimalSingleR(rx, nil, 0.95, b)
		if err != nil {
			return false
		}
		return predB.TailLatency <= predA.TailLatency+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkComputeOptimalSingleR(b *testing.B) {
	rx := sampleLog(stats.NewPareto(1.1, 2), 100000, 1)
	ry := sampleLog(stats.NewPareto(1.1, 2), 100000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ComputeOptimalSingleR(rx, ry, 0.99, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeOptimalSingleRCorrelated(b *testing.B) {
	r := stats.NewRNG(1)
	d := stats.NewPareto(1.1, 2)
	pairs := make([]rangequery.Point, 20000)
	rx := make([]float64, len(pairs))
	for i := range pairs {
		x := d.Sample(r)
		rx[i] = x
		pairs[i] = rangequery.Point{X: x, Y: 0.5*x + d.Sample(r)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ComputeOptimalSingleRCorrelated(rx, pairs, 0.99, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBindBudget(t *testing.T) {
	// 100 samples 1..100: Pr(X > 80) = 0.20, so a 5% budget binds
	// q = 0.25.
	rx := make([]float64, 100)
	for i := range rx {
		rx[i] = float64(i + 1)
	}
	pol, err := BindBudget(rx, 80, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if pol.D != 80 || math.Abs(pol.Q-0.25) > 1e-12 {
		t.Fatalf("BindBudget = %+v, want D=80 Q=0.25", pol)
	}
	// Delay beyond every sample: Pr(X > d) = 0, q saturates at 1.
	pol, err = BindBudget(rx, 1000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Q != 1 {
		t.Fatalf("BindBudget beyond max sample gave q=%v, want 1", pol.Q)
	}
	if _, err := BindBudget(nil, 10, 0.05); err == nil {
		t.Error("BindBudget accepted an empty log")
	}
	if _, err := BindBudget(rx, -1, 0.05); err == nil {
		t.Error("BindBudget accepted a negative delay")
	}
	if _, err := BindBudget(rx, 10, 1.5); err == nil {
		t.Error("BindBudget accepted budget > 1")
	}
}

// TestPairsByXDescMatchesComparisonSort pins the radix pair sort to
// the comparison sort it replaces: the same X sequence (descending,
// NaNs last) and the same pairs at each X, across sizes on both
// sides of the cutoff, negative values, signed zeros, heavy ties,
// a single repeated X and a NaN.
func TestPairsByXDescMatchesComparisonSort(t *testing.T) {
	r := stats.NewRNG(11)
	pareto := stats.NewPareto(1.1, 2)
	gen := map[string]func(i int) float64{
		"pareto":   func(int) float64 { return pareto.Sample(r) },
		"signed":   func(int) float64 { return r.Float64()*20 - 10 },
		"ties":     func(int) float64 { return float64(r.Intn(7)) },
		"zeros":    func(i int) float64 { return math.Copysign(0, float64(i%2)-0.5) },
		"constant": func(int) float64 { return 3.5 },
		"nan": func(i int) float64 {
			if i == 17 {
				return math.NaN()
			}
			return r.Float64()
		},
	}
	for name, x := range gen {
		for _, n := range []int{1, 50, pairRadixCutoff - 1, pairRadixCutoff, 5000} {
			pairs := make([]rangequery.Point, n)
			for i := range pairs {
				pairs[i] = rangequery.Point{X: x(i), Y: float64(i)}
			}
			orig := append([]rangequery.Point(nil), pairs...)
			got, want := pairsByXDesc(pairs), pairsByXDescCmp(pairs)
			for i := range pairs {
				if math.Float64bits(pairs[i].X) != math.Float64bits(orig[i].X) || pairs[i].Y != orig[i].Y {
					t.Fatalf("%s/%d: input modified at %d", name, n, i)
				}
			}
			if len(got) != n {
				t.Fatalf("%s/%d: %d pairs out", name, n, len(got))
			}
			// Equal X may come in any order: compare each run of equal
			// X as a set of Ys.
			for i := 0; i < n; {
				j := i
				ys := map[float64]int{}
				for ; j < n && sameX(want[j].X, want[i].X); j++ {
					ys[want[j].Y]++
				}
				for k := i; k < j; k++ {
					if !sameX(got[k].X, want[i].X) {
						t.Fatalf("%s/%d: X[%d] = %v, want %v", name, n, k, got[k].X, want[i].X)
					}
					ys[got[k].Y]--
				}
				for y, c := range ys {
					if c != 0 {
						t.Fatalf("%s/%d: pair (%v, %v) moved across X", name, n, want[i].X, y)
					}
				}
				i = j
			}
		}
	}
}

// sameX is X equality for the sort test: NaNs are equal, and -0
// equals +0 as the sweep's comparisons see them.
func sameX(a, b float64) bool { return a == b || a != a && b != b }
