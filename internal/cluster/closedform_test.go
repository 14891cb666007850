package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/rangequery"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/reissue"
)

// refQuery is one query of the infinite-server reference model.
type refQuery struct {
	arrival, sPrim, sReis float64

	done, primaryDone, reissueDone bool
	response, primaryResp          float64
	reissues                       int
	reissueDelay, reissueResp      float64
}

// referenceInfinite is the infinite-server run as an event simulation:
// every copy goes straight into service, its completion is an event at
// dispatch plus service, and a reissue timer sends its copy only while
// the query is unanswered. It draws the workload and the policy coins
// from the same streams RunDetailed uses, for the run-th Run of a
// Cluster (1-based), and shares no simulation code with RunDetailed.
func referenceInfinite(cfg Config, p reissue.Policy, run uint64) *Result {
	seed := cfg.Seed
	if cfg.FreshPerRun {
		seed += run * 0x9e3779b9
	}
	root := stats.NewRNG(seed)
	root.Split(1) // arrivals: unused, every query arrives at 0 or at ArrivalTimes[i]
	serviceRNG := root.Split(2)
	if cfg.ServiceSeed != 0 {
		serviceRNG = stats.NewRNG(seed ^ cfg.ServiceSeed).Split(2)
	}
	policyRNG := root.Split(3)
	if cfg.PolicySeed != 0 {
		policyRNG = stats.NewRNG(seed ^ cfg.PolicySeed).Split(3)
	}

	total := cfg.Queries + cfg.Warmup
	qs := make([]refQuery, total)
	cfg.Source.Reset()
	sim := des.New()
	var arrive, timer, primDone, reisDone des.ArgEvent
	answer := func(q *refQuery, now float64) {
		if !q.done {
			q.done = true
			q.response = now - q.arrival
		}
	}
	arrive = func(now float64, i int, _ float64) {
		sim.AtArg(now+qs[i].sPrim, primDone, i, 0)
		for _, d := range p.Plan(policyRNG) {
			sim.AtArg(now+d, timer, i, d)
		}
	}
	timer = func(now float64, i int, d float64) {
		q := &qs[i]
		if q.done {
			return
		}
		q.reissues++
		if q.reissues == 1 {
			q.reissueDelay = d
		}
		sim.AtArg(now+q.sReis, reisDone, i, now)
	}
	primDone = func(now float64, i int, _ float64) {
		q := &qs[i]
		q.primaryDone = true
		q.primaryResp = now - q.arrival
		answer(q, now)
	}
	reisDone = func(now float64, i int, sent float64) {
		q := &qs[i]
		if !q.reissueDone {
			q.reissueDone = true
			q.reissueResp = now - sent
		}
		answer(q, now)
	}
	for i := range qs {
		if cfg.ArrivalTimes != nil {
			qs[i].arrival = cfg.ArrivalTimes[i]
		}
		qs[i].sPrim, qs[i].sReis = cfg.Source.Sample(serviceRNG)
		sim.AtArg(qs[i].arrival, arrive, i, 0)
	}
	sim.Run()

	res := &Result{Log: &trace.Log{}, Duration: sim.Now(), Utilization: math.NaN()}
	reissued := 0
	for i := cfg.Warmup; i < total; i++ {
		q := &qs[i]
		rec := trace.Record{ID: int64(i), Arrival: q.arrival, Primary: q.primaryResp,
			PrimaryDone: q.primaryDone, Response: q.response}
		out := metrics.QueryOutcome{Primary: q.primaryResp}
		if q.reissues > 0 {
			reissued += q.reissues
			rec.Reissued, rec.Reissues, rec.ReissueDelay = true, q.reissues, q.reissueDelay
			rec.Reissue, rec.ReissueDone = q.reissueResp, q.reissueDone
			out.Reissued, out.ReissueDelay = true, q.reissueDelay
			out.Reissue, out.ReissueCompleted = q.reissueResp, q.reissueDone
			if q.primaryDone && q.reissueDone {
				res.Pairs = append(res.Pairs, rangequery.Point{X: q.primaryResp, Y: q.reissueResp})
			}
		}
		res.Log.Add(rec)
		res.Outcomes = append(res.Outcomes, out)
	}
	res.ReissueRate = float64(reissued) / float64(cfg.Queries)
	if cfg.FanOut > 1 {
		for i := cfg.Warmup; i < total; i += cfg.FanOut {
			worst := 0.0
			for j := i; j < i+cfg.FanOut; j++ {
				worst = math.Max(worst, qs[j].response)
			}
			res.FanOutResponses = append(res.FanOutResponses, worst)
		}
	}
	return res
}

// unsortedPolicy is a foreign policy: it has no AppendPlan, and its
// plans are permutations of its delays, so timers are scheduled out of
// time order.
type unsortedPolicy struct{ delays []float64 }

func (p unsortedPolicy) Plan(r *stats.RNG) []float64 {
	out := append([]float64(nil), p.delays...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > 0 && r.Bool(0.2) {
		out = out[1:]
	}
	return out
}

func (p unsortedPolicy) String() string { return fmt.Sprintf("unsorted(%v)", p.delays) }

// byteChooser turns fuzz bytes into choices; once the bytes run out
// every choice is 0.
type byteChooser struct{ data []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

// delay draws a reissue delay: a small integer (so timers tie with
// integer service times), a fraction, or +Inf.
func (c *byteChooser) delay() float64 {
	switch c.intn(8) {
	case 0:
		return math.Inf(1)
	case 1:
		return float64(c.intn(256)) / 37
	default:
		return float64(c.intn(6))
	}
}

func (c *byteChooser) prob() float64 { return float64(c.intn(5)) / 4 }

// infiniteCase is one generated infinite-server configuration and
// policy, with how many consecutive runs to compare.
type infiniteCase struct {
	cfg    Config
	policy reissue.Policy
	runs   int
}

// genInfiniteCase builds a random infinite-server case from data:
// SingleR, SingleD, DoubleR, MultipleR, Immediate or an unsorted
// foreign policy; a DistSource with or without Corr, or a TraceSource
// of small integers; optional ArrivalTimes or FanOut, stream-seed
// overrides, FreshPerRun, and options that infinite servers ignore.
func genInfiniteCase(data []byte) infiniteCase {
	c := &byteChooser{data: data}
	cfg := Config{Queries: 1 + c.intn(40), Warmup: c.intn(8), Seed: uint64(c.intn(256)) + 1}
	switch c.intn(4) {
	case 0:
		cfg.Source = DistSource{Dist: stats.NewExponential(0.5)}
	case 1:
		cfg.Source = DistSource{Dist: stats.NewPareto(1, 1.1), Corr: 0.5}
	case 2:
		times := make([]float64, 1+c.intn(12))
		for i := range times {
			times[i] = float64(c.intn(6))
		}
		cfg.Source = &TraceSource{Times: times}
	default:
		// Integer primary and reissue times that differ, so a reissue
		// can complete exactly when a later timer is due.
		pairs := make([][2]float64, 1+c.intn(12))
		for i := range pairs {
			pairs[i] = [2]float64{float64(c.intn(8)), float64(c.intn(4))}
		}
		cfg.Source = &pairTrace{pairs: pairs}
	}
	switch c.intn(3) {
	case 0:
		cfg.ArrivalTimes = make([]float64, cfg.Queries+cfg.Warmup)
		at := 0.0
		for i := range cfg.ArrivalTimes {
			at += float64(c.intn(4)) / 2
			cfg.ArrivalTimes[i] = at
		}
	case 1:
		cfg.FanOut = 1 + c.intn(4)
		cfg.Queries = (cfg.Queries + cfg.FanOut - 1) / cfg.FanOut * cfg.FanOut
		cfg.Warmup = cfg.Warmup / cfg.FanOut * cfg.FanOut
	}
	if c.intn(3) == 0 {
		cfg.PolicySeed = uint64(c.intn(256)) + 1
	}
	if c.intn(3) == 0 {
		cfg.ServiceSeed = uint64(c.intn(256)) + 1
	}
	cfg.FreshPerRun = c.intn(2) == 0
	cfg.CancelOnComplete = c.intn(2) == 0
	if c.intn(4) == 0 {
		cfg.Interference = &Interference{Rate: 0.1, MeanDuration: 2, Factor: 3}
	}

	var p reissue.Policy
	switch c.intn(6) {
	case 0:
		p = reissue.SingleR{D: c.delay(), Q: c.prob()}
	case 1:
		p = reissue.SingleD{D: c.delay()}
	case 2:
		d1 := c.delay()
		p = reissue.MultipleR{ // DoubleR
			Delays: []float64{d1, d1 + float64(c.intn(3))},
			Probs:  []float64{c.prob(), c.prob()},
		}
	case 3:
		delays := make([]float64, 1+c.intn(4))
		probs := make([]float64, len(delays))
		at := 0.0
		for i := range delays {
			at += float64(c.intn(3))
			delays[i], probs[i] = at, c.prob()
		}
		p = reissue.MultipleR{Delays: delays, Probs: probs}
	case 4:
		p = reissue.Immediate{N: c.intn(3)}
	default:
		delays := make([]float64, 1+c.intn(4))
		for i := range delays {
			delays[i] = c.delay()
		}
		p = unsortedPolicy{delays: delays}
	}
	return infiniteCase{cfg: cfg, policy: p, runs: 1 + c.intn(3)}
}

// checkInfiniteCase runs the case's Cluster tc.runs times and requires
// every run to equal the reference model's, bit for bit: %v prints
// each float in its shortest round-trip form, sign of zero included.
func checkInfiniteCase(tc infiniteCase) error {
	cl, err := New(tc.cfg)
	if err != nil {
		return err
	}
	for run := 1; run <= tc.runs; run++ {
		got := cl.RunDetailed(tc.policy)
		want := referenceInfinite(tc.cfg, tc.policy, uint64(run))
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Log", got.Log.Records, want.Log.Records},
			{"Outcomes", got.Outcomes, want.Outcomes},
			{"Pairs", got.Pairs, want.Pairs},
			{"ReissueRate", got.ReissueRate, want.ReissueRate},
			{"Duration", got.Duration, want.Duration},
			{"FanOutResponses", got.FanOutResponses, want.FanOutResponses},
		} {
			if g, w := fmt.Sprintf("%v", f.got), fmt.Sprintf("%v", f.want); g != w {
				return fmt.Errorf("run %d (%v, %+v): %s differs:\n got %s\nwant %s", run, tc.policy, tc.cfg, f.name, g, w)
			}
		}
		if !math.IsNaN(got.Utilization) {
			return fmt.Errorf("run %d: Utilization = %v, want NaN", run, got.Utilization)
		}
	}
	return nil
}

// TestInfiniteServerMatchesReference checks infinite-server runs
// against the event-simulation reference model on random cases.
func TestInfiniteServerMatchesReference(t *testing.T) {
	r := stats.NewRNG(0xc10f)
	for i := 0; i < 600; i++ {
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		if err := checkInfiniteCase(genInfiniteCase(data)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

// FuzzInfiniteServerMatchesReference runs the same check on fuzzed
// cases. The seed corpus in testdata/fuzz/FuzzInfiniteServerMatchesReference
// covers each policy family, both tie rules, +Inf delays, ArrivalTimes,
// FanOut and an unsorted foreign plan.
func FuzzInfiniteServerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkInfiniteCase(genInfiniteCase(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// The closed form's two tie rules, on integer service times: a timer
// at its primary's completion instant does not fire, and a timer at an
// earlier reissue's completion instant does.
func TestInfiniteServerTieRules(t *testing.T) {
	cases := []struct {
		name               string
		prim, reis         float64
		policy             reissue.Policy
		reissues           int
		response, duration float64
	}{
		// The primary completes at 2, when the timer is due: the
		// primary wins and no reissue is sent.
		{"primary-wins-tie", 2, 2, reissue.SingleD{D: 2}, 0, 2, 2},
		// Timer 1 sends at 1 and its copy completes at 3, when timer 2
		// is due: timer 2 still sends. The primary completes at 4.
		{"timer-beats-reissue-tie", 4, 2, reissue.MultipleR{Delays: []float64{1, 3}, Probs: []float64{1, 1}}, 2, 3, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(Config{Queries: 1, Source: &pairTrace{pairs: [][2]float64{{tc.prim, tc.reis}}}})
			if err != nil {
				t.Fatal(err)
			}
			res := cl.RunDetailed(tc.policy)
			rec := res.Log.Records[0]
			if rec.Reissues != tc.reissues || rec.Response != tc.response || res.Duration != tc.duration {
				t.Fatalf("reissues %d response %v duration %v, want %d %v %v",
					rec.Reissues, rec.Response, res.Duration, tc.reissues, tc.response, tc.duration)
			}
		})
	}
}

// pairTrace replays (primary, reissue) service-time pairs, cycling.
type pairTrace struct {
	pairs [][2]float64
	next  int
}

func (s *pairTrace) Sample(*stats.RNG) (float64, float64) {
	p := s.pairs[s.next]
	s.next = (s.next + 1) % len(s.pairs)
	return p[0], p[1]
}

func (s *pairTrace) Reset() { s.next = 0 }

// OnRequestComplete reports copies in global time order, which only an
// event simulation yields, so infinite servers reject it.
func TestNewRejectsOnRequestCompleteWithInfiniteServers(t *testing.T) {
	_, err := New(Config{
		Queries:           10,
		Source:            DistSource{Dist: stats.NewExponential(1)},
		OnRequestComplete: func(bool, float64, float64) {},
	})
	if err == nil {
		t.Fatal("New accepted OnRequestComplete with Servers == 0")
	}
}
