package leakcheck

import (
	"fmt"
	"testing"
)

// recorder is a testing.TB that records a Fatalf instead of stopping
// the goroutine, so the failure path can be observed.
type recorder struct {
	testing.TB
	failed string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) { r.failed = fmt.Sprintf(format, args...) }

func TestCheckPassesWhenGoroutinesExit(t *testing.T) {
	b := Start()
	done := make(chan struct{})
	for i := 0; i < 10; i++ {
		go func() { <-done }()
	}
	close(done)
	b.Check(t)
}

func TestCheckReportsLeak(t *testing.T) {
	b := Start()
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < Slack+1; i++ {
		go func() { <-stop }()
	}
	r := &recorder{TB: t}
	b.Check(r)
	if r.failed == "" {
		t.Fatalf("Check missed %d parked goroutines", Slack+1)
	}
}

// TestStartWaitsOutExitingGoroutines starts the baseline while
// goroutines are still on their way out: they must not be counted, or
// their exit would hide the parked ones from Check.
func TestStartWaitsOutExitingGoroutines(t *testing.T) {
	done := make(chan struct{})
	for i := 0; i < 10; i++ {
		go func() { <-done }()
	}
	close(done)
	b := Start()
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < Slack+1; i++ {
		go func() { <-stop }()
	}
	r := &recorder{TB: t}
	b.Check(r)
	if r.failed == "" {
		t.Fatalf("Check missed %d parked goroutines behind exiting ones", Slack+1)
	}
}
