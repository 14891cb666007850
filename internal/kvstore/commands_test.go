package kvstore

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func setEqual(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSUnion(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 3, 5)
	s.SAdd("b", 2, 3, 6)
	got, work := s.SUnion("a", "b")
	if !setEqual(got, Set{1, 2, 3, 5, 6}) {
		t.Fatalf("SUnion = %v", got)
	}
	if work.Scanned == 0 {
		t.Fatal("no work recorded")
	}
	if got, _ := s.SUnion("a", "missing"); !setEqual(got, Set{1, 3, 5}) {
		t.Fatalf("union with missing = %v", got)
	}
}

func TestSDiff(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 2, 3, 4)
	s.SAdd("b", 2, 4, 6)
	if got, _ := s.SDiff("a", "b"); !setEqual(got, Set{1, 3}) {
		t.Fatalf("SDiff = %v", got)
	}
	if got, _ := s.SDiff("b", "a"); !setEqual(got, Set{6}) {
		t.Fatalf("reverse SDiff = %v", got)
	}
	if got, _ := s.SDiff("missing", "a"); len(got) != 0 {
		t.Fatalf("missing SDiff = %v", got)
	}
}

func TestSIsMember(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 5, 9)
	for _, c := range []struct {
		m    int32
		want bool
	}{{1, true}, {5, true}, {9, true}, {0, false}, {6, false}, {10, false}} {
		got, work := s.SIsMember("a", c.m)
		if got != c.want {
			t.Errorf("SIsMember(%d) = %v", c.m, got)
		}
		if work.Scanned <= 0 {
			t.Errorf("SIsMember(%d) recorded no work", c.m)
		}
	}
	if got, _ := s.SIsMember("missing", 1); got {
		t.Error("member of missing set")
	}
}

func TestSRem(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 2, 3)
	if got := s.SRem("a", 2, 9); got != 1 {
		t.Fatalf("SRem removed %d", got)
	}
	if got := s.SMembers("a"); !setEqual(got, Set{1, 3}) {
		t.Fatalf("after SRem: %v", got)
	}
	// Removing the last members deletes the key entirely.
	s.SRem("a", 1, 3)
	if s.SCard("a") != 0 {
		t.Fatal("set not emptied")
	}
	if len(s.Keys()) != 0 {
		t.Fatal("empty set still listed")
	}
}

func TestSMembersCopies(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 2)
	m := s.SMembers("a")
	m[0] = 99
	if got := s.SMembers("a"); got[0] != 1 {
		t.Fatal("SMembers exposed internal storage")
	}
}

func TestSRandMember(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1, 2, 3, 4, 5, 6, 7, 8)
	r := stats.NewRNG(5)
	got := s.SRandMember("a", 3, r)
	if len(got) != 3 {
		t.Fatalf("SRandMember returned %d members", len(got))
	}
	for i, v := range got {
		if ok, _ := s.SIsMember("a", v); !ok {
			t.Fatalf("SRandMember returned non-member %d", v)
		}
		if i > 0 && got[i-1] >= v {
			t.Fatal("SRandMember result not sorted")
		}
	}
	// n >= card returns everything.
	if got := s.SRandMember("a", 100, r); len(got) != 8 {
		t.Fatalf("oversized SRandMember returned %d", len(got))
	}
	if got := s.SRandMember("a", 0, r); got != nil {
		t.Fatalf("zero SRandMember = %v", got)
	}
}

func TestDel(t *testing.T) {
	s := NewStore()
	s.SAdd("a", 1)
	if !s.Del("a") {
		t.Fatal("Del existing returned false")
	}
	if s.Del("a") {
		t.Fatal("Del missing returned true")
	}
}

// Property: |A∪B| + |A∩B| = |A| + |B| (inclusion-exclusion), and
// A\B, A∩B partition A.
func TestSetAlgebraProperty(t *testing.T) {
	f := func(seed uint64, caRaw, cbRaw uint8) bool {
		r := stats.NewRNG(seed)
		s := NewStore()
		ca, cb := int(caRaw%60)+1, int(cbRaw%60)+1
		s.setSorted("a", randomSubset(r, 150, ca, nil))
		s.setSorted("b", randomSubset(r, 150, cb, nil))
		union, _ := s.SUnion("a", "b")
		inter, _ := s.SInter("a", "b")
		diff, _ := s.SDiff("a", "b")
		if len(union)+len(inter) != ca+cb {
			return false
		}
		return len(diff)+len(inter) == ca
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SIsMember agrees with a linear scan.
func TestSIsMemberProperty(t *testing.T) {
	f := func(seed uint64, probe uint8) bool {
		r := stats.NewRNG(seed)
		s := NewStore()
		s.setSorted("a", randomSubset(r, 100, int(probe%50)+1, nil))
		m := int32(probe % 100)
		got, _ := s.SIsMember("a", m)
		want := false
		for _, v := range s.SMembers("a") {
			if v == m {
				want = true
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
