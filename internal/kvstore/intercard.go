package kvstore

import (
	"slices"
	"sync"
)

// This file holds the kernels behind SInterCard. The work an
// intersection is charged is always that of the modeled linear merge
// (see Work); these kernels only decide how fast the cardinality is
// counted. Their thresholds were measured on the paper-scale workload
// (go1.24, 2-vCPU Xeon); they change speed, never a result.

// gallopRatio is the size skew from which galloping search, which
// touches O(small · log(large/small)) members, beats streaming the
// larger set past a bitset. In-cache micro-benchmarks favour galloping
// from about 8×, but on the paper-scale workload, whose large sets
// outgrow the cache, generation was fastest at 32×: a gallop's probes
// miss where the bitset kernel's scan streams.
const gallopRatio = 32

// bitsetWordsPerMember caps a bitset at 16 words (128 bytes) per
// member counted, so allocating and zeroing a fresh scratch, when the
// pool has none large enough, costs the same order as the counting
// itself. A sparse span, such as a universe of 2^30 values, gallops
// instead of paying for a bitset its members would barely touch.
const bitsetWordsPerMember = 16

// scratchPool holds zeroed bitsets for bitsetCard. Each is returned
// zeroed, so a caller pays only for the words its members touch.
var scratchPool = sync.Pool{New: func() any { return new([]uint64) }}

// countLT returns how many members of the sorted set s are < v.
func countLT(s Set, v int32) int {
	i, _ := slices.BinarySearch(s, v)
	return i
}

// countLE returns how many members of the sorted set s are ≤ v.
func countLE(s Set, v int32) int {
	i, found := slices.BinarySearch(s, v)
	if found {
		i++
	}
	return i
}

// interCard returns |a ∩ b| for sorted sets. Balanced pairs over a
// dense span mark the smaller set in a scratch bitset and probe the
// larger; skewed pairs and sparse spans gallop.
func interCard(a, b Set) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Common members lie in [max of minima, min of maxima]; narrowing
	// both sets to that span bounds the bitset and the scans.
	lo := max(a[0], b[0])
	hi := min(a[len(a)-1], b[len(b)-1])
	if lo > hi {
		return 0
	}
	a = a[countLT(a, lo):countLE(a, hi)]
	b = b[countLT(b, lo):countLE(b, hi)]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	// The span fits in 2^32 bits because lo and hi are int32s.
	words := int((uint32(hi)-uint32(lo))>>6) + 1
	if len(b) < gallopRatio*len(a) && words <= bitsetWordsPerMember*(len(a)+len(b)) {
		return bitsetCard(a, b, lo, words)
	}
	return gallopCard(a, b)
}

// gallopCard counts small ∩ large by searching for each member of
// small in what remains of large: an exponential probe brackets it,
// then a binary search without data-dependent branches places it.
func gallopCard(small, large Set) int {
	n := 0
	for _, x := range small {
		// large[:lo] < x, and the first member ≥ x is in large[lo:hi].
		lo, hi := 0, 1
		for hi <= len(large) && large[hi-1] < x {
			lo, hi = hi, 2*hi
		}
		hi = min(hi, len(large))
		for size := hi - lo; size > 1; size -= size / 2 {
			if large[lo+size/2-1] < x {
				lo += size / 2
			}
		}
		if lo < len(large) && large[lo] < x {
			lo++
		}
		if lo < len(large) && large[lo] == x {
			n++
			lo++
		}
		large = large[lo:]
		if len(large) == 0 {
			break
		}
	}
	return n
}

// bitsetCard marks small in a scratch bitset over [lo, lo+64·words)
// and probes every member of large against it, with no data-dependent
// branch per member. The bitset is zeroed again before it returns to
// the pool.
func bitsetCard(small, large Set, lo int32, words int) int {
	p := scratchPool.Get().(*[]uint64)
	if len(*p) < words {
		*p = make([]uint64, words)
	}
	set := (*p)[:words]
	for _, v := range small {
		off := uint32(v) - uint32(lo)
		set[off>>6] |= 1 << (off & 63)
	}
	n := uint64(0)
	for _, v := range large {
		off := uint32(v) - uint32(lo)
		n += set[off>>6] >> (off & 63) & 1
	}
	for _, v := range small {
		set[(uint32(v)-uint32(lo))>>6] = 0
	}
	scratchPool.Put(p)
	return int(n)
}
