// Package reissue is the public API of the repository: the reissue
// policy families of Kaler, He and Elnikety, "Optimal Reissue
// Policies for Reducing Tail Latency" (SPAA 2017) — SingleR, SingleD,
// DoubleR, MultipleR, immediate reissue, and the no-reissue baseline
// — the data-driven optimizer ComputeOptimalSingleR from Section 4.1,
// its correlation-aware variant from Section 4.2, the iterative
// adaptation loop for load-dependent queueing delays from Section
// 4.3, the budget search procedures from Section 4.4, and the
// OnlineAdapter that re-tunes a policy against a live response-time
// stream.
//
// A reissue policy decides, per query, at which delays after the
// primary dispatch a redundant copy of the request should be sent if
// no response has arrived yet. SingleR — reissue once after delay D
// with probability Q — is proved optimal in the paper's simplified
// model (Theorems 3.1 and 3.2); the other families exist as baselines
// and as subjects for the property tests that verify those theorems
// numerically.
//
// The policy and optimizer layer is deliberately transport-agnostic:
// anything implementing System (the cluster simulator in
// internal/cluster, or a live service) can be tuned. The subpackage
// reissue/hedge executes policies for real, as a goroutine-based
// hedging client that issues redundant copies of actual requests and
// cancels the loser via context cancellation. See DESIGN.md for the
// layering.
package reissue

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Policy is a reissue policy. Plan samples the policy's randomness
// and returns the set of delays (relative to the primary dispatch,
// sorted ascending) at which the query should be reissued if it has
// not completed by then. An empty plan means the query is never
// reissued.
type Policy interface {
	Plan(r *stats.RNG) []float64
	String() string
}

// PlanAppender is an optional Policy fast path for execution engines
// that plan millions of queries: AppendPlan samples the policy
// exactly like Plan — consuming the identical RNG stream — but
// appends the delays to buf instead of allocating a fresh slice, so a
// caller reusing its buffer plans without allocation. Every policy
// family in this package implements it; the cluster simulator uses it
// when available.
type PlanAppender interface {
	AppendPlan(r *stats.RNG, buf []float64) []float64
}

// None is the no-reissue baseline policy.
type None struct{}

// Plan returns no reissue times.
func (None) Plan(*stats.RNG) []float64 { return nil }

// AppendPlan returns buf unchanged: no reissues.
func (None) AppendPlan(_ *stats.RNG, buf []float64) []float64 { return buf }

func (None) String() string { return "None" }

// SingleR reissues a request once, after delay D, with probability Q.
// This is the paper's headline policy family (Section 2.3).
type SingleR struct {
	D float64 // reissue delay
	Q float64 // reissue probability in [0, 1]
}

// Plan flips the policy's coin and returns {D} with probability Q.
func (p SingleR) Plan(r *stats.RNG) []float64 {
	if r.Bool(p.Q) {
		return []float64{p.D}
	}
	return nil
}

// AppendPlan flips the same coin as Plan, appending into buf.
func (p SingleR) AppendPlan(r *stats.RNG, buf []float64) []float64 {
	if r.Bool(p.Q) {
		return append(buf, p.D)
	}
	return buf
}

func (p SingleR) String() string {
	return fmt.Sprintf("SingleR(d=%.4g, q=%.4g)", p.D, p.Q)
}

// SingleD reissues a request deterministically after delay D — the
// "delayed reissue" strategy of prior work ("The Tail at Scale"),
// formalized in Section 2.2. It is SingleR with Q = 1.
type SingleD struct {
	D float64
}

// Plan always returns {D}.
func (p SingleD) Plan(*stats.RNG) []float64 { return []float64{p.D} }

// AppendPlan appends the deterministic delay into buf.
func (p SingleD) AppendPlan(_ *stats.RNG, buf []float64) []float64 {
	return append(buf, p.D)
}

func (p SingleD) String() string { return fmt.Sprintf("SingleD(d=%.4g)", p.D) }

// Immediate reissues N extra copies of every request at time zero —
// the "immediate reissue" strategy of prior work.
type Immediate struct {
	N int
}

// Plan returns N zero delays.
func (p Immediate) Plan(*stats.RNG) []float64 {
	if p.N <= 0 {
		return nil
	}
	return make([]float64, p.N)
}

// AppendPlan appends N zero delays into buf.
func (p Immediate) AppendPlan(_ *stats.RNG, buf []float64) []float64 {
	for i := 0; i < p.N; i++ {
		buf = append(buf, 0)
	}
	return buf
}

func (p Immediate) String() string { return fmt.Sprintf("Immediate(n=%d)", p.N) }

// MultipleR reissues a request at up to len(Delays) distinct times;
// the copy at Delays[i] is sent with independent probability
// Probs[i] (Section 3.1). DoubleR is the special case of two times.
type MultipleR struct {
	Delays []float64
	Probs  []float64
}

// NewMultipleR validates and constructs a MultipleR policy. Delays
// must be sorted ascending and each probability must lie in [0, 1].
func NewMultipleR(delays, probs []float64) (MultipleR, error) {
	if len(delays) != len(probs) {
		return MultipleR{}, fmt.Errorf("reissue: %d delays but %d probabilities", len(delays), len(probs))
	}
	if !sort.Float64sAreSorted(delays) {
		return MultipleR{}, fmt.Errorf("reissue: MultipleR delays must be sorted ascending")
	}
	for i, q := range probs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return MultipleR{}, fmt.Errorf("reissue: probability %v at index %d outside [0, 1]", q, i)
		}
	}
	for _, d := range delays {
		if d < 0 || math.IsNaN(d) {
			return MultipleR{}, fmt.Errorf("reissue: negative or NaN delay %v", d)
		}
	}
	return MultipleR{Delays: delays, Probs: probs}, nil
}

// Plan flips each reissue time's coin independently.
func (p MultipleR) Plan(r *stats.RNG) []float64 {
	delays, _ := p.PlanSlots(r)
	return delays
}

// AppendPlan flips the same per-delay coins as Plan (and PlanSlots),
// appending the sampled delays into buf.
func (p MultipleR) AppendPlan(r *stats.RNG, buf []float64) []float64 {
	for i, d := range p.Delays {
		if r.Bool(p.Probs[i]) {
			buf = append(buf, d)
		}
	}
	return buf
}

// PlanSlots samples the policy exactly like Plan — one coin per
// configured delay, in order, so the two consume identical random
// streams — and also reports each sampled delay's slot, 1 + its
// index in Delays. Execution engines that route or attribute copies
// by configured reissue time (reissue/hedge) need the slots: two
// configured delays may be equal, which makes recovering them from
// Plan's compacted output ambiguous.
func (p MultipleR) PlanSlots(r *stats.RNG) (delays []float64, slots []int) {
	return p.AppendPlanSlots(r, nil, nil)
}

// AppendPlanSlots is PlanSlots appending into caller-owned buffers, so
// an execution engine reusing them plans without allocation.
func (p MultipleR) AppendPlanSlots(r *stats.RNG, delays []float64, slots []int) ([]float64, []int) {
	for i, d := range p.Delays {
		if r.Bool(p.Probs[i]) {
			delays = append(delays, d)
			slots = append(slots, i+1)
		}
	}
	return delays, slots
}

func (p MultipleR) String() string {
	return fmt.Sprintf("MultipleR(d=%v, q=%v)", p.Delays, p.Probs)
}

// DoubleR constructs the two-time MultipleR policy used throughout
// the proof of Theorem 3.1.
func DoubleR(d1, q1, d2, q2 float64) (MultipleR, error) {
	return NewMultipleR([]float64{d1, d2}, []float64{q1, q2})
}

// Validate reports whether a SingleR policy's parameters are sane:
// non-negative finite delay and probability in [0, 1].
func (p SingleR) Validate() error {
	if p.D < 0 || math.IsNaN(p.D) || math.IsInf(p.D, 0) {
		return fmt.Errorf("reissue: invalid SingleR delay %v", p.D)
	}
	if p.Q < 0 || p.Q > 1 || math.IsNaN(p.Q) {
		return fmt.Errorf("reissue: invalid SingleR probability %v", p.Q)
	}
	return nil
}
