package des

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// at schedules fn at time t through AtArg, for tests that want a
// closure per event.
func at(s *Sim, t float64, fn func(now float64)) {
	s.AtArg(t, func(now float64, _ int, _ float64) { fn(now) }, 0, 0)
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		at(s, tm, func(now float64) { order = append(order, now) })
	}
	s.Run()
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("final time = %v", s.Now())
	}
	if s.Fired() != 5 {
		t.Fatalf("fired = %d", s.Fired())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(s, 7, func(float64) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New()
	var got float64
	at(s, 10, func(now float64) {
		s.AfterArg(5, func(now2 float64, _ int, _ float64) { got = now2 }, 0, 0)
	})
	s.Run()
	if got != 15 {
		t.Fatalf("After fired at %v, want 15", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		at(s, float64(i), func(float64) { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("fired %d events, want 5", count)
	}
	if s.Now() != 5.5 {
		t.Fatalf("Now = %v, want 5.5", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("after Run, fired %d", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	at(s, 10, func(float64) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	at(s, 5, func(float64) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.AfterArg(-1, func(float64, int, float64) {}, 0, 0)
}

func TestCascadingEvents(t *testing.T) {
	// An arrival process: each event schedules the next, up to n.
	s := New()
	const n = 1000
	count := 0
	var arrive func(now float64)
	arrive = func(now float64) {
		count++
		if count < n {
			at(s, now+1, arrive)
		}
	}
	at(s, 0, arrive)
	s.Run()
	if count != n {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != n-1 {
		t.Fatalf("final time = %v", s.Now())
	}
}

// Property: events always fire in non-decreasing time order, for
// arbitrary schedules including duplicates.
func TestOrderProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := stats.NewRNG(seed)
		s := New()
		var times []float64
		for i := 0; i < n; i++ {
			tm := float64(r.Intn(20))
			at(s, tm, func(now float64) { times = append(times, now) })
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	cb := func(float64, int, float64) {}
	for i := 0; i < b.N; i++ {
		s := New()
		r := stats.NewRNG(uint64(i))
		for j := 0; j < 10000; j++ {
			s.AtArg(r.Float64()*1000, cb, j, 0)
		}
		s.Run()
	}
}
