// Package stats provides the statistical substrate for the reissue-policy
// library: seeded pseudo-random number generation, the service-time
// distributions used in the paper's evaluation (Pareto, LogNormal,
// Exponential, ...), empirical CDFs and quantiles, histograms, and summary
// statistics.
//
// Everything in this package is deterministic given a seed so that every
// experiment in the repository is reproducible bit-for-bit.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256++ seeded through splitmix64. It is intentionally not
// safe for concurrent use; simulations create one RNG per logical
// stream (arrivals, service times, policy coin flips, ...) so that
// changing one consumer does not perturb the others.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a single 64-bit seed using
// splitmix64, which guarantees a well-distributed non-zero state even
// for small or zero seeds.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		//lint:allow saltdiscipline this IS the splitmix64 finalizer the discipline routes derivations through
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// Uint64 returns the next 64 bits from the xoshiro256++ stream.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniformly distributed value in [0, 1) with 53 bits
// of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection to
	// remove modulo bias.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + (t >> 32) + (aLo*bHi+t&mask)>>32
	return hi, lo
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponentially distributed variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// Split returns a new RNG whose stream is decorrelated from r's by
// hashing the next output together with the given label. It is used to
// derive independent named streams from a single experiment seed.
func (r *RNG) Split(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
//
//lint:allow deadexports the e2ebench module shuffles its sweep points with it
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Mix64 is the repository's shared SplitMix64-style finalizer for
// derandomized placement and per-shard stream salting: a fixed
// four-operation avalanche of x. The live runtime's replica
// placement (backend.PrimaryReplica), the simulator's HashedLB, and
// the per-shard coin salts of the sharded router and simulator all
// route through this one definition, so the live and simulated
// halves cannot silently drift apart.
func Mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// Mix64NonZero is Mix64 with a non-zero guarantee, for derived seeds
// and salts whose consumers treat zero as an "unset" sentinel.
func Mix64NonZero(x uint64) uint64 {
	if h := Mix64(x); h != 0 {
		return h
	}
	return 0x9e3779b97f4a7c15
}

// ShardSalt is the structural salt XORed into shard k's seeds: the
// live router (reissue/hedge/shard) salts shard k > 0's coin seed
// with it, and a simulator graph salts shard k > 0's PolicySeed and
// ServiceSeed with it, so per-shard streams are independent over one
// shared base. Shard 0 takes no salt, so a one-shard composition
// replays the uncomposed fleet exactly.
func ShardSalt(k int) uint64 { return Mix64NonZero(uint64(k) + 1) }

// TierSalt is the structural salt XORed into a tier's store-side
// coin seed (live tier.New and the simulator graph alike), so the
// cache and store tiers flip independent coins over one base seed.
func TierSalt() uint64 { return Mix64NonZero(1) }
