package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.s == [4]uint64{} {
		t.Fatal("zero seed left zero state")
	}
	v := r.Float64()
	if v < 0 || v >= 1 {
		t.Fatalf("Float64 = %v out of range", v)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBoolExtremes(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := NewRNG(13)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bool(%v) frequency = %v", p, got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(19)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 = %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestSplitDecorrelated(t *testing.T) {
	parent := NewRNG(23)
	a := parent.Split(1)
	b := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched %d/100 times", same)
	}
}

// perm returns a random permutation of [0, n) made by Shuffle.
func perm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := perm(r, n)
		if len(p) != n {
			t.Fatalf("perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := NewRNG(31)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[perm(r, n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("first element %d: count %d, want ~%.0f", i, c, want)
		}
	}
}

// Property: Intn respects its bound for arbitrary seeds and bounds.
func TestIntnPropertyBounded(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reseeding with the same value restarts the same stream.
func TestSeedPropertyReproducible(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewRNG(seed)
		x := []uint64{a.Uint64(), a.Uint64(), a.Uint64()}
		a.Seed(seed)
		return a.Uint64() == x[0] && a.Uint64() == x[1] && a.Uint64() == x[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
