package stats

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// checkSortFloat64s sorts a copy of xs both ways and fails unless
// SortFloat64s returns a permutation of xs whose every element equals
// sort.Float64s' element at the same index (NaN matching NaN). Equal
// values with different bits (-0 and +0, NaN payloads) may sit in
// either order, as sort.Float64s promises no order among them.
func checkSortFloat64s(t *testing.T, xs []float64) {
	t.Helper()
	got := slices.Clone(xs)
	want := slices.Clone(xs)
	SortFloat64s(got)
	sort.Float64s(want)
	for i := range want {
		g, w := got[i], want[i]
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("len %d: index %d holds %v, sort.Float64s has %v", len(xs), i, g, w)
		}
	}
	gb := make([]uint64, len(got))
	xb := make([]uint64, len(xs))
	for i := range xs {
		gb[i], xb[i] = math.Float64bits(got[i]), math.Float64bits(xs[i])
	}
	slices.Sort(gb)
	slices.Sort(xb)
	if !slices.Equal(gb, xb) {
		t.Fatalf("len %d: output is not a permutation of the input", len(xs))
	}
}

// specialFloats are the values whose keys sit at the edges of the
// order: signed zeros, infinities, subnormals, extremes and NaNs.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 1e-300, -1e300,
	math.NaN(), math.Float64frombits(0xfff8000000000001),
}

func TestSortFloat64sMatchesSortPackage(t *testing.T) {
	r := NewRNG(11)
	pareto := NewPareto(1, 1.1)
	lengths := []int{0, 1, 2, 17, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 4099}
	gens := []struct {
		name string
		gen  func(i int) float64
	}{
		// A response-time log: positive, heavy-tailed, distinct.
		{"pareto", func(int) float64 { return pareto.Sample(r) }},
		// Every bit pattern but NaN is fair game.
		{"bits", func(int) float64 {
			for {
				if x := math.Float64frombits(r.Uint64()); !math.IsNaN(x) {
					return x
				}
			}
		}},
		{"mixed-sign", func(int) float64 { return r.NormFloat64() * 1e3 }},
		// Few distinct values: long runs of duplicates.
		{"duplicates", func(int) float64 { return float64(r.Intn(5)) }},
		{"constant", func(int) float64 { return 3.25 }},
		{"ascending", func(i int) float64 { return float64(i) }},
		{"descending", func(i int) float64 { return -float64(i) }},
		{"specials", func(int) float64 { return specialFloats[r.Intn(len(specialFloats)-2)] }},
		// NaNs take the fallback path, at every length.
		{"specials-nan", func(int) float64 { return specialFloats[r.Intn(len(specialFloats))] }},
		{"one-nan", func(i int) float64 {
			if i == 7 {
				return math.NaN()
			}
			return r.Float64()
		}},
	}
	for _, g := range gens {
		for _, n := range lengths {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = g.gen(i)
			}
			t.Run(g.name, func(t *testing.T) { checkSortFloat64s(t, xs) })
		}
	}
}

func TestSortFloat64sKeyOrder(t *testing.T) {
	ordered := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 2.2250738585072014e-308, 1, math.MaxFloat64, math.Inf(1),
	}
	for i, x := range ordered {
		if got := keyFloat(floatKey(x)); math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("keyFloat(floatKey(%v)) = %v", x, got)
		}
		if i > 0 && floatKey(ordered[i-1]) >= floatKey(x) {
			t.Fatalf("key(%v) >= key(%v)", ordered[i-1], x)
		}
	}
}

func TestSortFloat64sAllocs(t *testing.T) {
	r := NewRNG(3)
	src := make([]float64, 2000)
	for i := range src {
		src[i] = r.ExpFloat64()
	}
	xs := make([]float64, len(src))
	SortFloat64s(slices.Clone(src)) // fill the spare buffer
	allocs := testing.AllocsPerRun(20, func() {
		copy(xs, src)
		SortFloat64s(xs)
		runtime.GC() // empties the sync.Pool, not the spare
	})
	if allocs != 0 {
		t.Fatalf("SortFloat64s allocates %.2f times per call once warm", allocs)
	}
}

// TestSortFloat64sConcurrent sorts from several goroutines at once, so
// buffers pass between the spare slot and the pool under contention
// (run with -race).
func TestSortFloat64sConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := NewRNG(seed)
			for i := 0; i < 30; i++ {
				xs := make([]float64, radixCutoff+r.Intn(3000))
				for j := range xs {
					xs[j] = r.NormFloat64()
				}
				want := slices.Clone(xs)
				sort.Float64s(want)
				SortFloat64s(xs)
				if !slices.Equal(xs, want) {
					t.Errorf("goroutine %d sort %d differs from sort.Float64s", seed, i)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
}

// FuzzSortFloat64s reads data as little-endian float64 bit patterns and
// repeats them in 1 + rep mod (a bound) tiles, each tile flipping the
// low mantissa bits by its index, so that short inputs still reach
// lengths on both sides of the radix cutoff.
func FuzzSortFloat64s(f *testing.F) {
	for _, x := range specialFloats {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)), uint16(radixCutoff))
	}
	f.Fuzz(func(t *testing.T, data []byte, rep uint16) {
		words := len(data) / 8
		if words == 0 {
			return
		}
		tiles := 1 + int(rep)%(8*radixCutoff/words+1)
		xs := make([]float64, 0, words*tiles)
		for j := 0; j < tiles; j++ {
			for w := 0; w < words; w++ {
				u := binary.LittleEndian.Uint64(data[8*w:])
				xs = append(xs, math.Float64frombits(u^uint64(j&0xff)))
			}
		}
		checkSortFloat64s(t, xs)
	})
}

func BenchmarkSortFloat64s(b *testing.B) {
	for _, n := range []int{100, 2000, 100_000} {
		r := NewRNG(1)
		src := make([]float64, n)
		for i := range src {
			src[i] = NewPareto(1, 1.1).Sample(r)
		}
		xs := make([]float64, n)
		b.Run("radix/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, src)
				SortFloat64s(xs)
			}
		})
		b.Run("sort/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, src)
				sort.Float64s(xs)
			}
		})
	}
}
