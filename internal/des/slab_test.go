package des

import (
	"testing"

	"repro/internal/stats"
)

// A fired event's record goes back to the pool: scheduling and firing
// one event at a time never grows the slab past one record.
func TestSlotRecycledAfterFire(t *testing.T) {
	s := New()
	fired := 0
	cb := func(float64, int, float64) { fired++ }
	for i := 0; i < 3; i++ {
		s.AtArg(float64(i), cb, i, 0)
		s.Run()
	}
	if fired != 3 || len(s.slab) != 1 {
		t.Fatalf("fired %d events with %d slab records, want 3 and 1", fired, len(s.slab))
	}
}

// Events at the same instant fire in scheduling order regardless of
// how they were scheduled (AtArg, AtSorted or AtMonotone) and of heap
// layout.
func TestSameInstantOrderingMixedKinds(t *testing.T) {
	s := New()
	var order []int
	record := func(_ float64, arg int, _ float64) { order = append(order, arg) }
	const n = 99
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			s.AtArg(5, record, i, 0)
		case 1:
			s.AtSorted(5, record, i, 0)
		default:
			s.AtMonotone(5, record, i, 0)
		}
	}
	// Interleave an earlier and a later event so the same-instant run
	// is framed by other heap traffic.
	nop := func(float64, int, float64) {}
	s.AtArg(1, nop, 0, 0)
	s.AtArg(9, nop, 0, 0)
	s.Run()
	if len(order) != n {
		t.Fatalf("fired %d of %d same-instant events", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order diverged at %d: %v...", i, order[:i+1])
		}
	}
}

// AtArg payloads are delivered with the event.
func TestAtArgPayload(t *testing.T) {
	s := New()
	type rec struct {
		now float64
		arg int
		x   float64
	}
	var got []rec
	cb := func(now float64, arg int, x float64) { got = append(got, rec{now, arg, x}) }
	s.AtArg(2, cb, 7, 3.5)
	s.AfterArg(1, cb, 9, -1)
	s.Run()
	want := []rec{{1, 9, -1}, {2, 7, 3.5}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Reset drops every pending event, on the heap and on both lanes, and
// the events scheduled after it fire normally.
func TestResetDropsPendingEvents(t *testing.T) {
	s := New()
	stale := func(float64, int, float64) { t.Fatal("pre-Reset event fired") }
	s.AtArg(1, stale, 0, 0)
	s.AtMonotone(1, stale, 0, 0)
	s.AtSorted(1, stale, 0, 0)
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Fired() != 0 {
		t.Fatalf("Reset left state: pending=%d now=%v fired=%d", s.Pending(), s.Now(), s.Fired())
	}
	fired := false
	s.AtArg(1, func(float64, int, float64) { fired = true }, 0, 0)
	s.Run()
	if !fired {
		t.Fatal("post-Reset event did not fire")
	}
}

// Reset preserves capacity: a warmed Sim schedules and fires without
// allocating, on the heap and on both sorted lanes. The budget of 1
// covers the event payload; in steady state the engine itself
// allocates nothing.
func TestScheduleFireAllocFree(t *testing.T) {
	s := New()
	var cb ArgEvent
	cb = func(now float64, arg int, x float64) {
		if x > 0 {
			// A timer per laned arrival, mostly in order, as the
			// cluster's reissue timers are; every 8th one is early and
			// falls back to the heap.
			s.AtSorted(now+x, cb, arg, 0)
		}
	}
	warm := func() {
		s.Reset()
		for i := 0; i < 512; i++ {
			s.AtArg(float64(i%17), cb, i, 0)
			d := 3.0
			if i%8 == 0 {
				d = 1
			}
			s.AtMonotone(float64(i)*0.25, cb, i, d)
		}
		s.Run()
	}
	warm() // grow slab, heap, lanes, free list
	avg := testing.AllocsPerRun(20, warm)
	// 2048 schedule+fire cycles per run: ≤1 total alloc per run is far
	// under the ≤1-per-cycle acceptance bar, and catches any per-event
	// allocation creeping back in.
	if avg > 1 {
		t.Fatalf("warmed schedule+fire allocated %.1f allocs per 2048-event run, want ≤1", avg)
	}
}

// AtSorted lanes an event at or after its lane's tail and heaps an
// earlier one; either way events fire in (time, seq) order.
func TestSortedLaneFallsBackToHeap(t *testing.T) {
	s := New()
	var order []int
	rec := func(_ float64, arg int, _ float64) { order = append(order, arg) }
	s.AtSorted(5, rec, 0, 0)
	s.AtSorted(5, rec, 1, 0) // equal to the tail: laned
	s.AtSorted(3, rec, 2, 0) // before the tail: heap
	s.AtSorted(7, rec, 3, 0)
	if l := &s.lanes[sortedLane]; len(l.ents)-l.head != 3 || len(s.heap) != 1 {
		t.Fatalf("lane holds %d, heap %d; want 3 and 1", len(l.ents)-l.head, len(s.heap))
	}
	s.Run()
	want := []int{2, 0, 1, 3}
	for i := range want {
		if len(order) != len(want) || order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// Callbacks that schedule while their own record is being recycled
// must not clobber pending events: every spawned event and every leaf
// fires exactly once.
func TestRecycleDuringRun(t *testing.T) {
	s := New()
	r := stats.NewRNG(42)
	count, leaves := 0, 0
	leaf := func(float64, int, float64) { leaves++ }
	var spawn ArgEvent
	spawn = func(now float64, _ int, _ float64) {
		count++
		if count < 1000 {
			s.AtArg(now+r.Float64(), leaf, 0, 0)
			s.AtArg(now+r.Float64(), spawn, 0, 0)
		}
	}
	s.AtArg(0, spawn, 0, 0)
	s.Run()
	if count != 1000 || leaves != 999 {
		t.Fatalf("count = %d, leaves = %d; want 1000 and 999", count, leaves)
	}
}

// Lane events interleave with heap events under the global
// (time, seq) order: a laned arrival stream and heap-scheduled events
// at overlapping times must fire exactly as if all were heap events.
func TestMonotoneLaneInterleavesWithHeap(t *testing.T) {
	s := New()
	var order []int
	rec := func(_ float64, arg int, _ float64) { order = append(order, arg) }
	// Lane: times 1, 3, 3, 5 (seqs 0-3). Heap: 2, 3, 5 (seqs 4-6).
	s.AtMonotone(1, rec, 0, 0)
	s.AtMonotone(3, rec, 1, 0)
	s.AtMonotone(3, rec, 2, 0)
	s.AtMonotone(5, rec, 3, 0)
	s.AtArg(2, rec, 4, 0)
	s.AtArg(3, rec, 5, 0)
	s.AtArg(5, rec, 6, 0)
	s.Run()
	// Global (time, seq): (1,0) (2,4) (3,1) (3,2) (3,5) (5,3) (5,6).
	want := []int{0, 4, 1, 2, 5, 3, 6}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merge order = %v, want %v", order, want)
		}
	}
}

func TestMonotoneLaneRejectsOutOfOrder(t *testing.T) {
	s := New()
	s.AtMonotone(5, func(float64, int, float64) {}, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order AtMonotone did not panic")
		}
	}()
	s.AtMonotone(4, func(float64, int, float64) {}, 1, 0)
}

func BenchmarkScheduleFireReused(b *testing.B) {
	s := New()
	cb := func(now float64, arg int, x float64) {}
	run := func(seed uint64) {
		s.Reset()
		r := stats.NewRNG(seed)
		for j := 0; j < 10000; j++ {
			s.AtArg(r.Float64()*1000, cb, j, 0)
		}
		s.Run()
	}
	run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(uint64(i))
	}
}
