// Package quantile provides an epsilon-approximate streaming quantile
// sketch (Greenwald-Khanna, SIGMOD 2001). The online adaptation
// scenario of the paper's Section 4.4 — response-time distributions
// drifting over hours or days — needs tail-latency estimates over
// unbounded streams without retaining every sample; the GK sketch
// answers any quantile query within epsilon rank error using
// O((1/epsilon) log(epsilon N)) space.
package quantile

import (
	"fmt"
	"math"
)

// tuple is one GK summary entry: a stored value v, g = rankMin(v) -
// rankMin(prev), and del = rankMax(v) - rankMin(v).
type tuple struct {
	v   float64
	g   int
	del int
}

// GK is a Greenwald-Khanna epsilon-approximate quantile sketch.
// It is not safe for concurrent use.
type GK struct {
	eps     float64
	tuples  []tuple
	n       int
	pending int // inserts since last compress
}

// NewGK creates a sketch answering quantile queries within eps rank
// error (e.g. eps = 0.001 answers P99 within ±0.1% of rank). It
// panics on a non-positive or >= 0.5 epsilon.
func NewGK(eps float64) *GK {
	if eps <= 0 || eps >= 0.5 || math.IsNaN(eps) {
		panic(fmt.Sprintf("quantile: invalid epsilon %v", eps))
	}
	return &GK{eps: eps}
}

// N returns the number of observations added.
func (s *GK) N() int { return s.n }

// Size returns the number of summary tuples retained.
func (s *GK) Size() int { return len(s.tuples) }

// Add inserts one observation. NaN values panic: silently accepting
// them would poison every later query.
func (s *GK) Add(v float64) {
	if math.IsNaN(v) {
		panic("quantile: Add(NaN)")
	}
	// Find insertion position (first tuple with value >= v).
	lo, hi := 0, len(s.tuples)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.tuples[mid].v < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	del := 0
	if lo > 0 && lo < len(s.tuples) {
		// Interior insert: the new tuple's uncertainty matches the
		// local bound.
		del = int(2*s.eps*float64(s.n)) - 1
		if del < 0 {
			del = 0
		}
	}
	nt := tuple{v: v, g: 1, del: del}
	s.tuples = append(s.tuples, tuple{})
	copy(s.tuples[lo+1:], s.tuples[lo:])
	s.tuples[lo] = nt
	s.n++
	s.pending++
	if s.pending >= int(1/(2*s.eps)) {
		s.compress()
		s.pending = 0
	}
}

// compress merges adjacent tuples whose combined uncertainty stays
// within the 2*eps*n bound.
func (s *GK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	bound := int(2 * s.eps * float64(s.n))
	out := s.tuples[:1] // never merge away the minimum
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		if len(out) > 1 && last.g+t.g+t.del <= bound {
			// Merge the previous tuple into this one.
			t.g += last.g
			out = out[:len(out)-1]
		}
		out = append(out, t)
	}
	out = append(out, s.tuples[len(s.tuples)-1]) // never merge the maximum
	s.tuples = out
}

// Quantile returns a value whose rank is within eps*N of ceil(p*N).
// It panics on p outside [0, 1] and returns NaN on an empty sketch.
func (s *GK) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("quantile: Quantile(%v) outside [0, 1]", p))
	}
	if s.n == 0 {
		return math.NaN()
	}
	target := int(math.Ceil(p * float64(s.n)))
	if target < 1 {
		target = 1
	}
	bound := int(s.eps * float64(s.n))
	rankMin := 0
	for i, t := range s.tuples {
		rankMin += t.g
		rankMax := rankMin + t.del
		if target-rankMin <= bound && rankMax-target <= bound {
			return t.v
		}
		if i == len(s.tuples)-1 {
			break
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// Reset empties the sketch, keeping its epsilon.
func (s *GK) Reset() {
	s.tuples = s.tuples[:0]
	s.n = 0
	s.pending = 0
}

// Windowed wraps a pair of GK sketches to answer quantile queries
// over (approximately) the most recent Window observations: a classic
// two-pane rotation where the older pane is dropped whenever the
// active pane fills. Rank error within a pane is eps; across the
// rotation boundary the estimate covers between Window and 2*Window
// recent samples.
type Windowed struct {
	eps    float64
	window int
	cur    *GK
	prev   *GK
}

// NewWindowed creates a windowed estimator over the last `window`
// observations (approximately). It panics on a non-positive window.
func NewWindowed(eps float64, window int) *Windowed {
	if window <= 0 {
		panic(fmt.Sprintf("quantile: invalid window %d", window))
	}
	return &Windowed{eps: eps, window: window, cur: NewGK(eps)}
}

// Add inserts one observation, rotating panes when the active pane
// reaches the window size.
func (w *Windowed) Add(v float64) {
	w.cur.Add(v)
	if w.cur.N() >= w.window {
		w.prev = w.cur
		w.cur = NewGK(w.eps)
	}
}

// Quantile estimates the p-th quantile over the recent window by
// querying both panes and weighting by their sizes. Returns NaN when
// nothing has been observed.
func (w *Windowed) Quantile(p float64) float64 {
	switch {
	case w.prev == nil || w.prev.N() == 0:
		return w.cur.Quantile(p)
	case w.cur.N() == 0:
		return w.prev.Quantile(p)
	default:
		qc := w.cur.Quantile(p)
		qp := w.prev.Quantile(p)
		fc := float64(w.cur.N()) / float64(w.cur.N()+w.prev.N())
		return fc*qc + (1-fc)*qp
	}
}
