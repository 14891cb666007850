package stats

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// radixCutoff is the length below which SortFloat64s hands the slice
// to sort.Float64s: under it the histogram setup costs more than the
// comparison sort saves.
const radixCutoff = 384

// radixScratch pools the key buffers SortFloat64s scatters through,
// so repeated sorts of same-sized logs (the adaptive loop's trials)
// allocate nothing in steady state. Garbage collection empties a
// sync.Pool, so one buffer of at most radixSpareMax keys also waits
// in radixSpare, which a collection leaves alone: a caller sorting
// on one goroutine at a time never allocates again.
var (
	radixScratch sync.Pool
	radixSpare   atomic.Pointer[[]uint64]
)

// radixSpareMax bounds the memory radixSpare keeps (8 MB of keys).
const radixSpareMax = 1 << 20

// getScratch returns a key buffer with capacity for n keys, from the
// spare, the pool, or a fresh allocation, in that order.
func getScratch(n int) *[]uint64 {
	bufp := radixSpare.Swap(nil)
	if bufp == nil {
		bufp, _ = radixScratch.Get().(*[]uint64)
	}
	if bufp == nil {
		bufp = new([]uint64)
	}
	if cap(*bufp) < n {
		*bufp = make([]uint64, n)
	}
	return bufp
}

// putScratch returns a buffer to the spare slot, or to the pool when
// the slot is taken or the buffer too large to keep.
func putScratch(bufp *[]uint64) {
	if cap(*bufp) > radixSpareMax || !radixSpare.CompareAndSwap(nil, bufp) {
		radixScratch.Put(bufp)
	}
}

// SortFloat64s sorts xs ascending in place, in the order
// sort.Float64s gives: NaNs first, then increasing values. Equal
// values (including -0 and +0) carry no order sort.Float64s promises
// either; here -0 precedes +0.
//
// It is a least-significant-digit radix sort on order-preserving
// keys of the Float64bits patterns, one byte per pass, skipping every
// pass whose byte is the same across the whole slice. A slice holding
// a NaN, shorter than a few hundred elements, or too long for 32-bit
// bucket counts goes to sort.Float64s instead.
func SortFloat64s(xs []float64) {
	n := len(xs)
	if n < radixCutoff || n > math.MaxUint32 {
		sort.Float64s(xs)
		return
	}
	var hist [8][256]uint32
	for _, x := range xs {
		if x != x {
			sort.Float64s(xs)
			return
		}
		k := floatKey(x)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	bufp := getScratch(n)
	scratch := (*bufp)[:n]

	// Keys travel between xs (as floats) and scratch (as keys); inXs
	// says which of the two holds the current order.
	inXs := true
	first := floatKey(xs[0])
	for b := range hist {
		h := &hist[b]
		shift := 8 * uint(b)
		if int(h[byte(first>>shift)]) == n {
			continue // every key shares this byte: the pass is the identity
		}
		var offs [256]uint32
		var sum uint32
		for d, c := range h {
			offs[d] = sum
			sum += c
		}
		if inXs {
			for _, x := range xs {
				k := floatKey(x)
				d := byte(k >> shift)
				scratch[offs[d]] = k
				offs[d]++
			}
		} else {
			for _, k := range scratch {
				d := byte(k >> shift)
				xs[offs[d]] = keyFloat(k)
				offs[d]++
			}
		}
		inXs = !inXs
	}
	if !inXs {
		for i, k := range scratch {
			xs[i] = keyFloat(k)
		}
	}
	putScratch(bufp)
}

// floatKey maps x to a uint64 whose unsigned order is x's numeric
// order: negative values have every bit flipped, the rest only the
// sign bit.
func floatKey(x float64) uint64 {
	u := math.Float64bits(x)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
