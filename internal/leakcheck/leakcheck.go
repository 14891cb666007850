// Package leakcheck is the goroutine-leak check the live-runtime test
// suites share: record a baseline before starting work, wait the work
// out, then require the goroutine count to fall back to the baseline.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Slack is how many goroutines above the baseline a check tolerates,
// for runtime and testing-package goroutines that come and go on their
// own.
const Slack = 2

// settle is how long a check waits for exiting goroutines to be
// reaped before it fails.
const settle = 2 * time.Second

// Baseline is a goroutine count taken before the checked work starts.
type Baseline int

// quiet is how long the goroutine count must hold still before Start
// takes it as the baseline.
const quiet = 30 * time.Millisecond

// Start records the goroutine count once it has held still for a
// moment. Goroutines that earlier work left on their way out would
// otherwise sit in the baseline, and once they exit, as many leaked
// goroutines would pass the check unseen.
//
//lint:allow deadexports a test helper: the live-runtime test suites are its only callers
func Start() Baseline {
	deadline := time.Now().Add(settle)
	n, still := runtime.NumGoroutine(), time.Now()
	for time.Since(still) < quiet && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		}
	}
	return Baseline(n)
}

// Check fails t unless, within a short settling window, the goroutine
// count drops back to at most b+Slack.
//
//lint:allow deadexports a test helper: the live-runtime test suites are its only callers
func (b Baseline) Check(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(settle)
	for {
		n := runtime.NumGoroutine()
		if n <= int(b)+Slack {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("goroutine leak: before=%d after=%d (slack %d)", b, n, Slack)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
