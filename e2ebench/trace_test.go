package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Start: at(0), End: at(100)},   // parent
		{Start: at(10), End: at(40)},   // overlaps the next child
		{Start: at(30), End: at(50)},   //
		{Start: at(90), End: at(120)},  // runs past the parent's end
		{Start: at(200), End: at(210)}, // outside the parent
	}
	if got, want := selfTime(spans, 0, []int{1, 2, 3, 4}), 50*time.Millisecond; got != want {
		t.Fatalf("selfTime = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 0, nil), 100*time.Millisecond; got != want {
		t.Fatalf("selfTime without children = %v, want %v", got, want)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
