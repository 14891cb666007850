package rangequery

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestFenwickBasics(t *testing.T) {
	f := NewFenwick(10)
	if f.Len() != 10 {
		t.Fatalf("Len = %d", f.Len())
	}
	f.Add(0, 1)
	f.Add(4, 3)
	f.Add(9, 2)
	cases := []struct{ i, want int }{
		{-1, 0}, {0, 1}, {3, 1}, {4, 4}, {8, 4}, {9, 6}, {100, 6},
	}
	for _, c := range cases {
		if got := f.PrefixSum(c.i); got != c.want {
			t.Errorf("PrefixSum(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

func TestFenwickNegativeDeltas(t *testing.T) {
	f := NewFenwick(5)
	f.Add(2, 10)
	f.Add(2, -4)
	if got := f.PrefixSum(4); got != 6 {
		t.Fatalf("sum after negative delta = %d", got)
	}
}

func TestFenwickOutOfRangePanics(t *testing.T) {
	f := NewFenwick(3)
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", i)
				}
			}()
			f.Add(i, 1)
		}()
	}
}

// Property: Fenwick prefix sums match a brute-force array.
func TestFenwickProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 32
		fw := NewFenwick(n)
		ref := make([]int, n)
		for _, op := range ops {
			i := int(op) % n
			delta := int(op>>8)%7 - 3
			fw.Add(i, delta)
			ref[i] += delta
		}
		sum := 0
		for i := 0; i < n; i++ {
			sum += ref[i]
			if fw.PrefixSum(i) != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerMatchesBinarySearch(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 5, 8, 13}
	fg := NewFinger(xs)
	// Ascending sweep.
	for _, q := range []float64{0, 1, 1.5, 2, 2.5, 3, 9, 20} {
		want := sort.SearchFloat64s(xs, q)
		if got := fg.CountLess(q); got != want {
			t.Errorf("asc CountLess(%v) = %d, want %d", q, got, want)
		}
	}
	// Descending sweep on the same finger.
	for _, q := range []float64{20, 9, 3, 2.5, 2, 1.5, 1, 0} {
		want := sort.SearchFloat64s(xs, q)
		if got := fg.CountLess(q); got != want {
			t.Errorf("desc CountLess(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestFingerCDF(t *testing.T) {
	fg := NewFinger([]float64{1, 2, 3, 4})
	if got := fg.CDF(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDF(3) = %v, want 0.5", got)
	}
	fg.Reset()
	if got := fg.CDF(0.5); got != 0 {
		t.Fatalf("CDF(0.5) = %v", got)
	}
}

func TestFingerEmpty(t *testing.T) {
	fg := NewFinger(nil)
	if fg.CountLess(5) != 0 || fg.CDF(5) != 0 {
		t.Fatal("empty finger returned nonzero")
	}
}

func TestFingerUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted finger did not panic")
		}
	}()
	NewFinger([]float64{3, 1})
}

// Property: finger cursor agrees with binary search under arbitrary
// (non-monotone) query sequences.
func TestFingerProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 100)
		r := stats.NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 50
		}
		sort.Float64s(xs)
		fg := NewFinger(xs)
		for trial := 0; trial < 50; trial++ {
			q := r.Float64()*60 - 5
			if fg.CountLess(q) != sort.SearchFloat64s(xs, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFingerMonotoneSweep(b *testing.B) {
	r := stats.NewRNG(1)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	sort.Float64s(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg := NewFinger(xs)
		for q := 0.0; q < 1.0; q += 0.0001 {
			fg.CountLess(q)
		}
	}
}
