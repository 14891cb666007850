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
	if got := f.RangeSum(1, 4); got != 3 {
		t.Errorf("RangeSum(1,4) = %d, want 3", got)
	}
	if got := f.RangeSum(5, 3); got != 0 {
		t.Errorf("empty RangeSum = %d", got)
	}
	if got := f.RangeSum(-5, 0); got != 1 {
		t.Errorf("clamped RangeSum = %d, want 1", got)
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

func bruteCount(pts []Point, x, y float64) (gt, gtYle int) {
	for _, p := range pts {
		if p.X > x {
			gt++
			if p.Y <= y {
				gtYle++
			}
		}
	}
	return
}

func TestMergeTreeSmall(t *testing.T) {
	pts := []Point{{1, 10}, {2, 20}, {3, 5}, {4, 15}, {5, 25}}
	mt := NewMergeTree(pts)
	if mt.Len() != 5 {
		t.Fatalf("Len = %d", mt.Len())
	}
	cases := []struct {
		x, y         float64
		wantGt, want int
	}{
		{0, 100, 5, 5},
		{2, 15, 3, 2},  // points with X>2: (3,5),(4,15),(5,25); Y<=15: two
		{3, 10, 2, 0},  // (4,15),(5,25); none <= 10
		{5, 100, 0, 0}, // nothing beyond x=5
		{2.5, 5, 3, 1},
	}
	for _, c := range cases {
		if got := mt.CountXGreater(c.x); got != c.wantGt {
			t.Errorf("CountXGreater(%v) = %d, want %d", c.x, got, c.wantGt)
		}
		if got := mt.CountXGreaterYLE(c.x, c.y); got != c.want {
			t.Errorf("CountXGreaterYLE(%v,%v) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestMergeTreeEmpty(t *testing.T) {
	mt := NewMergeTree(nil)
	if mt.CountXGreater(0) != 0 || mt.CountXGreaterYLE(0, 0) != 0 {
		t.Fatal("empty tree returned nonzero counts")
	}
	if got := mt.CondYLEGivenXGreater(1, 1, 0.42); got != 0.42 {
		t.Fatalf("fallback = %v", got)
	}
}

func TestMergeTreeDuplicateCoordinates(t *testing.T) {
	pts := []Point{{1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 2}}
	mt := NewMergeTree(pts)
	if got := mt.CountXGreaterYLE(1, 2); got != 2 {
		t.Fatalf("dup coords: got %d, want 2", got)
	}
	if got := mt.CountXGreater(0.999); got != 5 {
		t.Fatalf("CountXGreater = %d", got)
	}
}

func TestCondYLEGivenXGreater(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	mt := NewMergeTree(pts)
	// X > 2 leaves {(3,3),(4,4)}; Y <= 3 matches one of two.
	if got := mt.CondYLEGivenXGreater(3, 2, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("conditional = %v, want 0.5", got)
	}
	// X > 4 leaves nothing: fallback.
	if got := mt.CondYLEGivenXGreater(3, 4, 0.9); got != 0.9 {
		t.Fatalf("fallback = %v", got)
	}
}

// Property: merge-tree counts equal brute force on random point sets.
func TestMergeTreeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		r := stats.NewRNG(seed)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		}
		mt := NewMergeTree(pts)
		for trial := 0; trial < 20; trial++ {
			x := r.Float64() * 110
			y := r.Float64() * 110
			gt, gtYle := bruteCount(pts, x, y)
			if mt.CountXGreater(x) != gt || mt.CountXGreaterYLE(x, y) != gtYle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every query method matches a brute-force count on point sets where
// most X values are tied — the case where the sort may order equal-X
// points differently from their input order — with query coordinates
// drawn from the same small grids so boundaries land on ties too.
func TestMergeTreeTiedXMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(80)
		distinctX := 1 + r.Intn(6)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: float64(r.Intn(distinctX)), Y: float64(r.Intn(10))}
		}
		mt := NewMergeTree(pts)
		if mt.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, mt.Len(), n)
		}
		for x := -1.0; x <= float64(distinctX); x += 0.5 {
			for y := -1.0; y <= 10; y += 0.5 {
				gt, gtYle := bruteCount(pts, x, y)
				if got := mt.CountXGreater(x); got != gt {
					t.Fatalf("trial %d: CountXGreater(%v) = %d, want %d", trial, x, got, gt)
				}
				if got := mt.CountXGreaterYLE(x, y); got != gtYle {
					t.Fatalf("trial %d: CountXGreaterYLE(%v, %v) = %d, want %d", trial, x, y, got, gtYle)
				}
				want := -1.0
				if gt > 0 {
					want = float64(gtYle) / float64(gt)
				}
				if got := mt.CondYLEGivenXGreater(y, x, -1); got != want {
					t.Fatalf("trial %d: CondYLEGivenXGreater(%v, %v) = %v, want %v", trial, y, x, got, want)
				}
			}
		}
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

func BenchmarkMergeTreeBuild(b *testing.B) {
	r := stats.NewRNG(1)
	pts := make([]Point, 10000)
	for i := range pts {
		pts[i] = Point{X: r.Float64(), Y: r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMergeTree(pts)
	}
}

func BenchmarkMergeTreeQuery(b *testing.B) {
	r := stats.NewRNG(1)
	pts := make([]Point, 10000)
	for i := range pts {
		pts[i] = Point{X: r.Float64(), Y: r.Float64()}
	}
	mt := NewMergeTree(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.CountXGreaterYLE(0.5, 0.5)
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
