package kvstore

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// referenceInterCard is the two-pointer merge SInterCard used to run;
// SInter still runs it. Every kernel is held to its count and to the
// work it charges.
func referenceInterCard(sa, sb Set) (int, Work) {
	n := 0
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n, Work{Scanned: i + j + n}
}

// checkInterCard compares SInterCard, SInter and each counting kernel
// with the reference merge on one pair of sorted sets.
func checkInterCard(t *testing.T, sa, sb Set) {
	t.Helper()
	s := NewStore()
	s.setSorted("a", sa)
	s.setSorted("b", sb)
	wantN, wantW := referenceInterCard(sa, sb)
	for _, order := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if n, w := s.SInterCard(order[0], order[1]); n != wantN || w != wantW {
			t.Fatalf("SInterCard(%s, %s) = %d, %+v; reference %d, %+v (|a|=%d |b|=%d)",
				order[0], order[1], n, w, wantN, wantW, len(sa), len(sb))
		}
		if set, w := s.SInter(order[0], order[1]); len(set) != wantN || w != wantW {
			t.Fatalf("SInter(%s, %s) = %d members, %+v; reference %d, %+v",
				order[0], order[1], len(set), w, wantN, wantW)
		}
	}
	// interCard picks one kernel per input; check the other on the
	// same pair too, so both are exercised whatever the dispatch.
	small, large := sa, sb
	if len(small) > len(large) {
		small, large = large, small
	}
	if n := gallopCard(small, large); len(small) > 0 && n != wantN {
		t.Fatalf("gallopCard = %d, reference %d", n, wantN)
	}
	if len(sa) > 0 && len(sb) > 0 {
		lo := min(sa[0], sb[0])
		hi := max(sa[len(sa)-1], sb[len(sb)-1])
		if words := int((uint32(hi)-uint32(lo))>>6) + 1; words <= 1<<16 {
			if n := bitsetCard(small, large, lo, words); n != wantN {
				t.Fatalf("bitsetCard = %d, reference %d", n, wantN)
			}
		}
	}
}

// shifted maps a set monotonically, keeping it sorted and distinct.
func shifted(s Set, f func(int64) int64) Set {
	out := make(Set, len(s))
	for i, v := range s {
		out[i] = int32(f(int64(v)))
	}
	return out
}

func TestSInterCardEdgeCases(t *testing.T) {
	seq := func(from, to, step int32) Set {
		var s Set
		for v := from; v <= to; v += step {
			s = append(s, v)
		}
		return s
	}
	for _, c := range []struct {
		name   string
		sa, sb Set
	}{
		{"both empty", nil, nil},
		{"one empty", nil, seq(0, 100, 1)},
		{"disjoint interleaved", seq(0, 1000, 2), seq(1, 1001, 2)},
		{"identical", seq(0, 5000, 3), seq(0, 5000, 3)},
		{"single equal", Set{7}, Set{7}},
		{"single unequal", Set{7}, Set{8}},
		{"single in large", Set{500}, seq(0, 100000, 1)},
		{"single past large", Set{200000}, seq(0, 100000, 1)},
		{"equal maxima", seq(0, 999, 1), seq(1, 999, 2)},
		{"one below the other", seq(0, 99, 1), seq(100, 5000, 1)},
		{"one below the other, skewed", Set{3, 9}, seq(100, 50000, 1)},
		{"spans apart", seq(0, 499, 1), seq(250, 10000, 1)},
		{"negative members", seq(-3000, 3000, 3), seq(-1000, 1000, 2)},
		{"full int32 span", Set{math.MinInt32, 0, math.MaxInt32}, Set{math.MinInt32, 1, math.MaxInt32}},
	} {
		t.Run(c.name, func(t *testing.T) { checkInterCard(t, c.sa, c.sb) })
	}
}

// Property: for random pairs over small and huge universes, balanced
// and skewed, every kernel agrees with the reference merge.
func TestSInterCardProperty(t *testing.T) {
	r := stats.NewRNG(42)
	universes := []int32{64, 1000, 100_000, 1 << 30}
	for trial := 0; trial < 600; trial++ {
		u := universes[trial%len(universes)]
		capCard := min(int(u), 3000)
		ca := 1 + r.Intn(capCard)
		cb := 1 + r.Intn(capCard)
		if trial%3 == 0 {
			cb = 1 + r.Intn(max(1, ca/40))
		}
		sa := randomSubset(r, u, ca, nil)
		sb := randomSubset(r, u, cb, nil)
		switch trial % 5 {
		case 1: // centre on zero, so members go negative
			half := int64(u / 2)
			f := func(v int64) int64 { return v - half }
			sa, sb = shifted(sa, f), shifted(sb, f)
		case 2: // stretch across the whole int32 range
			f := func(v int64) int64 { return v*(math.MaxUint32/int64(u)) + math.MinInt32 }
			sa, sb = shifted(sa, f), shifted(sb, f)
		}
		checkInterCard(t, sa, sb)
	}
}

// FuzzSInterCard builds two sorted sets from byte strings: each member
// is the previous one (base-1 before the first) plus 1 + gap·stride,
// one gap per byte.
func FuzzSInterCard(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte, base int32, stride uint8) {
		build := func(gaps []byte) Set {
			var s Set
			v := int64(base) - 1
			for _, g := range gaps {
				v += 1 + int64(g)*int64(stride)
				if v > math.MaxInt32 {
					break
				}
				s = append(s, int32(v))
			}
			return s
		}
		checkInterCard(t, build(a), build(b))
	})
}

func BenchmarkSInterCard(b *testing.B) {
	for _, c := range []struct {
		name   string
		ca, cb int
	}{
		{"skewed", 1000, 200_000},
		{"balanced", 50_000, 50_000},
		{"balanced-small", 2000, 2000},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := stats.NewRNG(1)
			s := NewStore()
			s.setSorted("a", randomSubset(r, 1_000_000, c.ca, nil))
			s.setSorted("b", randomSubset(r, 1_000_000, c.cb, nil))
			b.ReportAllocs()
			for b.Loop() {
				s.SInterCard("a", "b")
			}
		})
	}
}
