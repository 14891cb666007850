// Package queueing provides closed-form queueing-theory results —
// M/M/1, M/M/c (Erlang C), and M/G/1 (Pollaczek-Khinchine) — used to
// validate the discrete-event cluster simulator against theory. The
// paper's analysis deliberately avoids queueing theory for policy
// design (Section 1 lists its limits), but the simulator underneath
// must still reproduce the textbook systems exactly; the tests in
// internal/cluster/theory_validation_test.go hold it to these
// formulas.
package queueing

import (
	"fmt"
	"math"
)

// MM1 models an M/M/1 queue with arrival rate Lambda and service rate
// Mu.
type MM1 struct {
	Lambda, Mu float64
}

// NewMM1 validates the parameters; the queue must be stable
// (Lambda < Mu).
//
//lint:allow deadexports the M/M/1 oracle the simulator's theory-validation test checks against
func NewMM1(lambda, mu float64) (MM1, error) {
	if lambda <= 0 || mu <= 0 {
		return MM1{}, fmt.Errorf("queueing: rates must be positive (lambda=%v, mu=%v)", lambda, mu)
	}
	if lambda >= mu {
		return MM1{}, fmt.Errorf("queueing: unstable M/M/1 (rho=%v >= 1)", lambda/mu)
	}
	return MM1{Lambda: lambda, Mu: mu}, nil
}

// Rho returns the utilization.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// MeanWait returns the expected time in queue (excluding service):
// W_q = rho / (mu - lambda).
//
//lint:allow deadexports M/M/1 oracle value for the theory-validation test
func (q MM1) MeanWait() float64 { return q.Rho() / (q.Mu - q.Lambda) }

// MeanResponse returns the expected sojourn time W = 1/(mu - lambda).
//
//lint:allow deadexports M/M/1 oracle value for the theory-validation test
func (q MM1) MeanResponse() float64 { return 1 / (q.Mu - q.Lambda) }

// MeanNumber returns the expected number in system L = rho/(1-rho).
//
//lint:allow deadexports M/M/1 oracle value for the theory-validation test
func (q MM1) MeanNumber() float64 { return q.Rho() / (1 - q.Rho()) }

// ResponseQuantile returns the p-th quantile of the sojourn time,
// which is exponential with rate mu - lambda.
//
//lint:allow deadexports M/M/1 oracle value for the theory-validation test
func (q MM1) ResponseQuantile(p float64) float64 {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("queueing: quantile %v outside [0, 1)", p))
	}
	return -math.Log(1-p) / (q.Mu - q.Lambda)
}

// MMC models an M/M/c queue with arrival rate Lambda, per-server
// service rate Mu, and C servers sharing one queue.
type MMC struct {
	Lambda, Mu float64
	C          int
}

// NewMMC validates the parameters; the system must be stable
// (Lambda < C*Mu).
//
//lint:allow deadexports the M/M/c oracle the simulator's theory-validation test checks against
func NewMMC(lambda, mu float64, c int) (MMC, error) {
	if lambda <= 0 || mu <= 0 || c <= 0 {
		return MMC{}, fmt.Errorf("queueing: invalid M/M/c (lambda=%v, mu=%v, c=%d)", lambda, mu, c)
	}
	if lambda >= float64(c)*mu {
		return MMC{}, fmt.Errorf("queueing: unstable M/M/c (rho=%v >= 1)", lambda/(float64(c)*mu))
	}
	return MMC{Lambda: lambda, Mu: mu, C: c}, nil
}

// Rho returns the per-server utilization lambda/(c*mu).
func (q MMC) Rho() float64 { return q.Lambda / (float64(q.C) * q.Mu) }

// ErlangC returns the probability an arriving customer waits (all c
// servers busy), computed with the numerically stable iterative form.
func (q MMC) ErlangC() float64 {
	a := q.Lambda / q.Mu // offered load in Erlangs
	// Erlang B via the stable recurrence, then convert to C.
	b := 1.0
	for k := 1; k <= q.C; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := q.Rho()
	return b / (1 - rho*(1-b))
}

// MeanWait returns the expected queueing delay
// W_q = ErlangC / (c*mu - lambda).
func (q MMC) MeanWait() float64 {
	return q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
}

// MeanResponse returns the expected sojourn time W_q + 1/mu.
//
//lint:allow deadexports M/M/c oracle value for the theory-validation test
func (q MMC) MeanResponse() float64 { return q.MeanWait() + 1/q.Mu }

// WaitQuantile returns the p-th quantile of the queueing delay. The
// wait is 0 with probability 1-ErlangC and exponential with rate
// c*mu - lambda otherwise.
//
//lint:allow deadexports M/M/c oracle value for the theory-validation test
func (q MMC) WaitQuantile(p float64) float64 {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("queueing: quantile %v outside [0, 1)", p))
	}
	pc := q.ErlangC()
	if p <= 1-pc {
		return 0
	}
	// Pr(W > t) = pc * exp(-(c*mu-lambda) t) = 1-p.
	return -math.Log((1-p)/pc) / (float64(q.C)*q.Mu - q.Lambda)
}

// MG1 models an M/G/1 queue with arrival rate Lambda and a general
// service distribution described by its first two moments.
type MG1 struct {
	Lambda  float64
	MeanS   float64 // E[S]
	SecondS float64 // E[S^2]
}

// NewMG1 validates the parameters; requires stability and a
// consistent second moment (E[S^2] >= E[S]^2).
//
//lint:allow deadexports the M/G/1 oracle the simulator's theory-validation test checks against
func NewMG1(lambda, meanS, secondS float64) (MG1, error) {
	if lambda <= 0 || meanS <= 0 {
		return MG1{}, fmt.Errorf("queueing: invalid M/G/1 (lambda=%v, E[S]=%v)", lambda, meanS)
	}
	if secondS < meanS*meanS {
		return MG1{}, fmt.Errorf("queueing: E[S^2]=%v below E[S]^2=%v", secondS, meanS*meanS)
	}
	if lambda*meanS >= 1 {
		return MG1{}, fmt.Errorf("queueing: unstable M/G/1 (rho=%v >= 1)", lambda*meanS)
	}
	return MG1{Lambda: lambda, MeanS: meanS, SecondS: secondS}, nil
}

// Rho returns the utilization lambda*E[S].
func (q MG1) Rho() float64 { return q.Lambda * q.MeanS }

// MeanWait returns the Pollaczek-Khinchine mean queueing delay:
// W_q = lambda*E[S^2] / (2*(1-rho)).
func (q MG1) MeanWait() float64 {
	return q.Lambda * q.SecondS / (2 * (1 - q.Rho()))
}

// MeanResponse returns W_q + E[S].
func (q MG1) MeanResponse() float64 { return q.MeanWait() + q.MeanS }

// MeanNumber returns L = lambda * W by Little's law.
//
//lint:allow deadexports M/G/1 oracle value for the theory-validation test
func (q MG1) MeanNumber() float64 { return q.Lambda * q.MeanResponse() }
