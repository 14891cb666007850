package reissue

import (
	"math"
	"testing"

	"repro/internal/rangequery"
	"repro/internal/stats"
)

// The adaptive loops sort each trial's logs once and read every
// optimizer call, prediction and tail measurement off the sorted
// views. These tests pin that path to the public functions that sort
// for themselves, bit for bit.

func TestCorrelatedSortedMatchesUnsorted(t *testing.T) {
	r := stats.NewRNG(23)
	d := stats.NewPareto(1.1, 2)
	rx := make([]float64, 5000)
	var pairs []rangequery.Point
	for i := range rx {
		x := d.Sample(r)
		rx[i] = x
		if r.Bool(0.1) {
			pairs = append(pairs, rangequery.Point{X: x, Y: 0.4*x + d.Sample(r)})
		}
	}
	sx := sortedCopy(rx)
	for _, k := range []float64{0.9, 0.99} {
		for _, B := range []float64{0, 0.02, 0.2} {
			polU, predU, errU := ComputeOptimalSingleRCorrelated(rx, pairs, k, B)
			polS, predS, errS := ComputeOptimalSingleRCorrelatedSorted(sx, pairs, k, B)
			if errU != nil || errS != nil {
				t.Fatalf("k=%v B=%v: errors %v, %v", k, B, errU, errS)
			}
			if polU != polS || predU != predS {
				t.Fatalf("k=%v B=%v: sorted variant gives %v %+v, unsorted %v %+v", k, B, polS, predS, polU, predU)
			}
		}
	}
	if _, _, err := ComputeOptimalSingleRCorrelatedSorted(sx, nil, 0.95, 0.1); err == nil {
		t.Error("empty pairs accepted")
	}
	if _, _, err := ComputeOptimalSingleRCorrelatedSorted(nil, pairs, 0.95, 0.1); err == nil {
		t.Error("empty primary log accepted")
	}
}

// TestAdaptiveTrialsMatchFinalLog recomputes the last trial's record
// of each adaptive loop from its Final run with the self-sorting
// public functions.
func TestAdaptiveTrialsMatchFinalLog(t *testing.T) {
	const k, B = 0.95, 0.10
	newSys := func() *toySystem {
		return &toySystem{dist: stats.NewPareto(1.1, 2), n: 5000, sensitivity: 0.5, corr: 0.3, seed: 41}
	}
	for _, correlated := range []bool{false, true} {
		res, err := AdaptiveOptimize(newSys(), AdaptiveConfig{K: k, B: B, Lambda: 0.5, Trials: 4, Correlated: correlated})
		if err != nil {
			t.Fatal(err)
		}
		last := res.Trials[len(res.Trials)-1]
		var pred Prediction
		if correlated {
			if len(res.Final.Pairs) < 100 {
				t.Fatalf("only %d pairs: the correlated path did not run", len(res.Final.Pairs))
			}
			_, pred, err = ComputeOptimalSingleRCorrelated(res.Final.Primary, res.Final.Pairs, k, B)
		} else {
			_, pred, err = ComputeOptimalSingleR(res.Final.Primary, res.Final.Reissue, k, B)
		}
		if err != nil {
			t.Fatal(err)
		}
		if last.Predicted != pred.TailLatency {
			t.Errorf("correlated=%v: trial predicted %v, recomputed %v", correlated, last.Predicted, pred.TailLatency)
		}
		if got, want := res.FinalTail(), res.Final.TailLatency(k); got != want || last.Actual != want {
			t.Errorf("correlated=%v: FinalTail %v, trial actual %v, Final.TailLatency %v", correlated, got, last.Actual, want)
		}
	}

	res, err := AdaptiveOptimizeSingleD(newSys(), AdaptiveConfig{K: k, B: B, Lambda: 0.5, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Trials[len(res.Trials)-1]
	local, err := OptimalSingleD(res.Final.Primary, B)
	if err != nil {
		t.Fatal(err)
	}
	want := PredictSingleR(res.Final.Primary, res.Final.Reissue, SingleR{D: local.D, Q: 1}, k).TailLatency
	if last.Predicted != want {
		t.Errorf("SingleD: trial predicted %v, recomputed %v", last.Predicted, want)
	}
	if got := res.FinalTail(); got != res.Final.TailLatency(k) {
		t.Errorf("SingleD: FinalTail %v, Final.TailLatency %v", got, res.Final.TailLatency(k))
	}

	if got := (AdaptiveResult{}).FinalTail(); !math.IsNaN(got) {
		t.Errorf("FinalTail with no trials = %v, want NaN", got)
	}
}
