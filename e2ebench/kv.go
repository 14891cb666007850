package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/shard"
	"repro/reissue/hedge/transport"
)

// The live workloads replay the paper's Redis experiment: set
// intersections over the kvstore dataset, served by single-threaded
// replicas that hold each request for its calibrated model service
// time.
const (
	// kvStoreSeed fixes the dataset: the stored sets and the query
	// log, replayed in log order. The benchmark seed draws the
	// arrival times and the policy coins. Redrawing the dataset per
	// seed moved the service-time P99 fourfold between seeds (17 to
	// 78 model ms): it is set by the few "queries of death" that
	// intersect two of the handful of giant sets. Of the dataset
	// seeds tried, 15 keeps such queries (1.3% of the log above 20
	// model ms) while its simulated latency P99 varies least between
	// arrival seeds.
	kvStoreSeed = 15
	kvNumSets   = 300
	kvTraceLen  = 12000
	// kvUnit is the wall-clock length of one model millisecond.
	// Together with kvMinService it keeps every hold at 2 ms or more,
	// well above a ~1 ms kernel sleep floor, so latency reflects
	// queueing and hedging rather than timer resolution.
	kvUnit       = 2 * time.Millisecond
	kvMinService = 1.0
	kvRho        = 0.3
	kvK          = 0.99
	kvBudget     = 0.05
	kvSlowFactor = 2.5
	kvTwinWarmup = 1000
	// kvTwinSeed seeds the simulator twins, so the trained policy is
	// the same in every run.
	kvTwinSeed = 0x7e15
	// kvProbes is how many idle sequential RPCs per shard the traced
	// fan-out run sends to measure wire overhead.
	kvProbes = 200
)

// kvTrace is the fixed query log over the fixed dataset, with every
// query's answer precomputed.
type kvTrace struct {
	w        *kvstore.Workload
	expected []int // intersection cardinality of each query
}

func newKVTrace() (*kvTrace, error) {
	w, err := kvstore.GenerateWorkload(kvstore.WorkloadConfig{NumSets: kvNumSets, NumQueries: kvTraceLen, Seed: kvStoreSeed})
	if err != nil {
		return nil, err
	}
	t := &kvTrace{w: w, expected: make([]int, len(w.Queries))}
	for i, q := range w.Queries {
		t.expected[i], _ = w.Store.SInterCard(q.A, q.B)
	}
	return t, nil
}

// fleetSpeeds is a fleet of n replicas whose last one is slow.
func fleetSpeeds(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	s[n-1] = kvSlowFactor
	return s
}

// tuning is a SingleR policy trained on simulator twins, with what
// the training cost.
type tuning struct {
	pol    reissue.SingleR
	twinMS float64 // internal/cluster runs
	optMS  float64 // optimizer and budget re-binding
}

// tuneSingleR trains SingleR(kvK, kvBudget) on the simulator twin of
// each fleet (one per shard) at arrival rate lambda per model ms:
// the optimizer runs on the pooled no-reissue logs, then BindBudget
// re-binds the probability on the pooled logs measured under that
// policy. Twins replay the nominal (clamped) trace, so the policy
// depends only on the inputs, never on live timing.
func tuneSingleR(fleets [][]float64, speeds []float64, lambda float64) (tuning, error) {
	var t tuning
	sims := make([]*cluster.Cluster, len(fleets))
	for s, times := range fleets {
		c, err := cluster.New(cluster.Config{
			Servers: len(speeds), ArrivalRate: lambda,
			Queries: len(times) - kvTwinWarmup, Warmup: kvTwinWarmup,
			Source: &cluster.TraceSource{Times: times}, SpeedFactors: speeds,
			LB: cluster.HashedLB{}, Seed: kvTwinSeed, PolicySeed: uint64(s),
		})
		if err != nil {
			return t, err
		}
		sims[s] = c
	}
	runAll := func(p reissue.Policy) []float64 {
		t0 := time.Now()
		var pooled []float64
		for _, c := range sims {
			pooled = append(pooled, c.Run(p).Query...)
		}
		t.twinMS += msSince(t0)
		return pooled
	}
	base := runAll(reissue.None{})
	t0 := time.Now()
	pol, _, err := reissue.ComputeOptimalSingleR(base, nil, kvK, kvBudget)
	t.optMS += msSince(t0)
	if err != nil {
		return t, err
	}
	hedged := runAll(pol)
	t0 = time.Now()
	t.pol, err = reissue.BindBudget(hedged, pol.D, kvBudget)
	t.optMS += msSince(t0)
	return t, err
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tracedSource wraps a fleet's Request so every copy a hedging client
// dispatches becomes a span under its query's Do span.
type tracedSource struct {
	backend.Source
	tr     *tracer
	shard  int
	times  []float64 // model ms per trace index, as the replicas hold it
	speeds []float64 // per replica
	parent func(k int) int
}

func (s *tracedSource) Request(k int) hedge.Fn {
	fn := s.Source.Request(k)
	base := backend.PrimaryReplica(k, len(s.speeds))
	return func(ctx context.Context, attempt int) (any, error) {
		rep := (base + attempt) % len(s.speeds)
		hold := time.Duration(s.times[k%len(s.times)] * s.speeds[rep] * float64(kvUnit))
		i := s.tr.begin(span{Name: "copy", Parent: s.parent(k), Query: k, Shard: s.shard,
			Attempt: attempt, Replica: rep, Worker: -1, Hold: hold, Start: time.Now()})
		v, err := fn(ctx, attempt)
		s.tr.finish(i, err == nil)
		return v, err
	}
}

// kvInproc is the in-process fleet: one hedging client over
// backend.NewKV replicas.
type kvInproc struct {
	rng    *stats.RNG
	trace  *kvTrace
	back   *backend.Cluster
	speeds []float64
	tune   tuning
	perSec float64
}

const kvInprocReplicas = 12

func (w *kvInproc) setup() error {
	var err error
	if w.trace, err = newKVTrace(); err != nil {
		return err
	}
	w.speeds = fleetSpeeds(kvInprocReplicas)
	w.back, err = backend.NewKV(w.trace.w, backend.Config{
		Replicas: kvInprocReplicas, Unit: kvUnit, SpeedFactors: w.speeds, MinServiceMS: kvMinService,
	})
	if err != nil {
		return err
	}
	lambda := w.back.ArrivalRate(kvRho)
	w.perSec = lambda / kvUnit.Seconds()
	w.tune, err = tuneSingleR([][]float64{w.back.ModelTimes()}, w.speeds, lambda)
	return err
}

func (w *kvInproc) measure(d time.Duration, tr *tracer) (window, error) {
	client, err := hedge.New(hedge.Config{Policy: w.tune.pol, Unit: kvUnit, Seed: w.rng.Uint64()})
	if err != nil {
		return window{}, err
	}
	sched := poissonSchedule(w.rng, w.perSec, d)
	doSpan := make([]int, len(sched))
	var src backend.Source = w.back
	if tr != nil {
		src = &tracedSource{Source: w.back, tr: tr, shard: -1,
			times: w.back.ModelTimes(), speeds: w.speeds,
			parent: func(k int) int { return doSpan[k] }}
	}
	base := 0
	if tr != nil {
		base = tr.len()
	}
	res := openLoop(sched, tr, func(ctx context.Context, k, parent int) error {
		if tr != nil {
			doSpan[k] = tr.begin(span{Name: "hedge.Do", Parent: parent, Query: k,
				Shard: -1, Attempt: -1, Replica: -1, Worker: -1, Start: time.Now()})
		}
		v, err := client.Do(ctx, src.Request(k))
		if tr != nil {
			tr.finish(doSpan[k], err == nil)
		}
		if err != nil {
			return err
		}
		if got, ok := answerInt(v); !ok || got != w.trace.expected[k%kvTraceLen] {
			return errWrong
		}
		return nil
	}, client.Wait)
	win := liveWindow(res)
	if tr != nil {
		snap := client.Snapshot()
		liveLayers(tr.snapshot(base), base, liveLayerConfig{
			delay: time.Duration(w.tune.pol.D * float64(kvUnit)), replicas: kvInprocReplicas,
			wall: res.use.wall, inProcess: true,
		}, win.layers)
		win.layers["hedge.reissue_rate"] = snap.ReissueRate
		win.layers["hedge.reissue_win_ratio"] = ratio(float64(snap.ReissueWins), float64(snap.Reissued))
		win.layers["reissue.optimize_ms"] = w.tune.optMS
		win.layers["cluster.twin_run_ms"] = w.tune.twinMS
	}
	return win, nil
}

func (w *kvInproc) meta() map[string]any {
	return map[string]any{
		"policy": w.tune.pol.String(), "replicas": kvInprocReplicas, "speed_factors": w.speeds,
		"unit_ms": ms(kvUnit), "min_service_model_ms": kvMinService, "rho": kvRho,
		"arrivals_per_s": w.perSec, "store_seed": kvStoreSeed, "num_sets": kvNumSets,
	}
}

func (w *kvInproc) close() {}

// kvFanout is the sharded HTTP fleet: a shard.Router over one
// transport.Client per shard, each fronting single-replica HTTP
// servers on loopback.
type kvFanout struct {
	rng        *stats.RNG
	trace      *kvTrace
	speeds     []float64
	shardTimes [][]float64 // per shard, model ms as the replicas hold it
	servers    [][]*transport.ReplicaServer
	clients    []*transport.Client
	transports []*http.Transport
	dials      atomic.Int64
	tune       tuning
	perSec     float64
}

const (
	kvShards        = 2
	kvShardReplicas = 4
)

func (w *kvFanout) setup() error {
	var err error
	if w.trace, err = newKVTrace(); err != nil {
		return err
	}
	parts, err := w.trace.w.Partition(kvShards)
	if err != nil {
		return err
	}
	w.speeds = fleetSpeeds(kvShardReplicas)
	lambda := 0.0
	for _, p := range parts {
		backs := make([]*backend.Cluster, kvShardReplicas)
		for r := range backs {
			backs[r], err = backend.NewKV(p, backend.Config{Replicas: 1, Unit: kvUnit,
				SpeedFactors: []float64{w.speeds[r]}, MinServiceMS: kvMinService})
			if err != nil {
				return err
			}
		}
		servers, urls, err := transport.ServeAll(backs)
		if err != nil {
			return err
		}
		w.servers = append(w.servers, servers)
		// A clone of the default transport, sized as transport.NewClient
		// sizes its own, with a dial counter.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 1024
		tr.MaxIdleConnsPerHost = 256
		dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			w.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		}
		w.transports = append(w.transports, tr)
		c, err := transport.NewClient(transport.ClientConfig{Replicas: urls, Unit: kvUnit,
			HTTPClient: &http.Client{Transport: tr}})
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
		times := backs[0].ModelTimes()
		w.shardTimes = append(w.shardTimes, times)
		// Load the busier shard to kvRho; every query visits both.
		l := backend.FleetArrivalRate(kvRho, kvShardReplicas, backs[0].MeanServiceMS())
		if lambda == 0 || l < lambda {
			lambda = l
		}
	}
	w.perSec = lambda / kvUnit.Seconds()
	// shard.Config takes one hedge.Config for every shard, so both
	// shards run one SingleR, trained on their twins' pooled logs.
	w.tune, err = tuneSingleR(w.shardTimes, w.speeds, lambda)
	return err
}

// serverCounts sums Served and Cancelled over every replica server.
func (w *kvFanout) serverCounts() (served, cancelled int64) {
	for _, ss := range w.servers {
		for _, s := range ss {
			served += s.Handler.Served()
			cancelled += s.Handler.Cancelled()
		}
	}
	return served, cancelled
}

func (w *kvFanout) measure(d time.Duration, tr *tracer) (window, error) {
	sched := poissonSchedule(w.rng, w.perSec, d)
	doSpan := make([]int, len(sched))
	srcs := make([]backend.Source, kvShards)
	for s, c := range w.clients {
		srcs[s] = c
		if tr != nil {
			srcs[s] = &tracedSource{Source: c, tr: tr, shard: s,
				times: w.shardTimes[s], speeds: w.speeds,
				parent: func(k int) int { return doSpan[k] }}
		}
	}
	router, err := shard.New(shard.Config{Shards: srcs,
		Hedge: hedge.Config{Policy: w.tune.pol, Unit: kvUnit, Seed: w.rng.Uint64()}})
	if err != nil {
		return window{}, err
	}
	base := 0
	if tr != nil {
		base = tr.len()
	}
	dials0 := w.dials.Load()
	served0, cancelled0 := w.serverCounts()
	res := openLoop(sched, tr, func(ctx context.Context, k, parent int) error {
		if tr != nil {
			doSpan[k] = tr.begin(span{Name: "shard.Do", Parent: parent, Query: k,
				Shard: -1, Attempt: -1, Replica: -1, Worker: -1, Start: time.Now()})
		}
		vals, err := router.Do(ctx, k)
		if tr != nil {
			tr.finish(doSpan[k], err == nil)
		}
		if err != nil {
			return err
		}
		return w.check(k, vals)
	}, router.Wait)
	win := liveWindow(res)
	if tr == nil {
		return win, nil
	}
	snap := router.Snapshot()
	var completed, reissued, reissueWins int64
	for _, s := range snap.Shards {
		completed += s.Completed
		reissued += s.Reissued
		reissueWins += s.ReissueWins
	}
	liveLayers(tr.snapshot(base), base, liveLayerConfig{
		delay: time.Duration(w.tune.pol.D * float64(kvUnit)), replicas: kvShards * kvShardReplicas,
		wall: res.use.wall,
	}, win.layers)
	served, cancelled := w.serverCounts()
	win.layers["hedge.reissue_rate"] = ratio(float64(reissued), float64(completed))
	win.layers["hedge.reissue_win_ratio"] = ratio(float64(reissueWins), float64(reissued))
	win.layers["transport.server_cancelled_ratio"] = ratio(float64(cancelled-cancelled0), float64(served-served0))
	win.layers["transport.dials_per_kquery"] = ratio(float64(w.dials.Load()-dials0), float64(res.sent)/1000)
	win.layers["reissue.optimize_ms"] = w.tune.optMS
	win.layers["cluster.twin_run_ms"] = w.tune.twinMS
	wrong, err := w.probe(win.layers)
	win.wrong += wrong
	return win, err
}

// check verifies a fan-out answer: the shards hold disjoint slices of
// every set, so their intersection sizes sum to the full one.
func (w *kvFanout) check(k int, vals []any) error {
	sum := 0
	for _, v := range vals {
		x, ok := answerInt(v)
		if !ok {
			return errWrong
		}
		sum += x
	}
	if sum != w.trace.expected[k%kvTraceLen] {
		return errWrong
	}
	return nil
}

// probe sends idle, sequential, unhedged RPCs to every shard and
// reports the RPC time and the wire overhead (RPC minus the replica's
// hold). It returns how many probes got a wrong answer.
func (w *kvFanout) probe(out map[string]float64) (int, error) {
	var rpc, wire []float64
	wrong := 0
	ctx := context.Background()
	// A cancelled loser that had started service still holds its
	// replica after the client gave up on it; let those finish so
	// the probes see idle servers.
	time.Sleep(time.Second)
	for j := 0; j < kvProbes; j++ {
		k := j * (kvTraceLen / kvProbes)
		vals := make([]any, kvShards)
		for s, c := range w.clients {
			rep := backend.PrimaryReplica(k, kvShardReplicas)
			hold := time.Duration(w.shardTimes[s][k%kvTraceLen] * w.speeds[rep] * float64(kvUnit))
			t0 := time.Now()
			v, err := c.Request(k)(ctx, 0)
			d := time.Since(t0)
			if err != nil {
				return wrong, fmt.Errorf("probe %d shard %d: %w", k, s, err)
			}
			vals[s] = v
			rpc = append(rpc, ms(d))
			wire = append(wire, float64(d-hold)/1e3)
		}
		if w.check(k, vals) != nil {
			wrong++
		}
	}
	rpc, wire = sortedCopy(rpc), sortedCopy(wire)
	out["transport.rpc_ms_p50"] = quantile(rpc, 0.5)
	out["transport.rpc_ms_p99"] = quantile(rpc, 0.99)
	out["transport.wire_us_p50"] = quantile(wire, 0.5)
	out["transport.wire_us_p99"] = quantile(wire, 0.99)
	return wrong, nil
}

func (w *kvFanout) meta() map[string]any {
	return map[string]any{
		"policy": w.tune.pol.String(), "shards": kvShards, "replicas_per_shard": kvShardReplicas,
		"speed_factors": w.speeds, "unit_ms": ms(kvUnit), "min_service_model_ms": kvMinService,
		"rho": kvRho, "arrivals_per_s": w.perSec, "store_seed": kvStoreSeed, "num_sets": kvNumSets,
	}
}

func (w *kvFanout) close() {
	for _, ss := range w.servers {
		for _, s := range ss {
			s.Close()
		}
	}
	for _, t := range w.transports {
		t.CloseIdleConnections()
	}
}

// liveLayerConfig says how to read a live window's spans.
type liveLayerConfig struct {
	delay    time.Duration // the policy's reissue delay on the wall clock
	replicas int           // replicas across all shards
	wall     time.Duration
	// inProcess: a copy's span is the replica's queueing plus hold,
	// and the hedging client's Do span is observable, so cancel lag
	// is measured from Do's return. Over the router, a sub-query's
	// Do is internal; its winning copy's return stands in for it.
	inProcess bool
}

// liveLayers derives the hedge, backend and shard metrics from one
// window's spans: gen.send roots, hedge.Do or shard.Do children, and
// copy spans under those.
func liveLayers(spans []span, base int, c liveLayerConfig, out map[string]float64) {
	kids := children(spans, base)
	var doSelf, late, cancelLag, qwait, straggle []float64
	var copies, subqueries, withdrawn int
	var busy time.Duration
	for i, s := range spans {
		if s.Name != "hedge.Do" && s.Name != "shard.Do" {
			continue
		}
		doSelf = append(doSelf, float64(selfTime(spans, i, kids[i]))/1e3)
		bySub := make(map[int][]int)
		for _, k := range kids[i] {
			bySub[spans[k].Shard] = append(bySub[spans[k].Shard], k)
		}
		var firstWin, lastWin time.Time
		for _, sub := range bySub {
			subqueries++
			winner := -1
			for _, k := range sub {
				cp := spans[k]
				copies++
				if cp.Attempt > 0 {
					late = append(late, ms(cp.Start.Sub(s.Start)-c.delay))
				}
				if !cp.OK {
					withdrawn++
					continue
				}
				busy += cp.Hold
				if c.inProcess {
					qwait = append(qwait, ms(cp.dur()-cp.Hold))
				}
				if winner < 0 || cp.End.Before(spans[winner].End) {
					winner = k
				}
			}
			if winner < 0 {
				continue
			}
			won := spans[winner].End
			ref := won
			if c.inProcess {
				ref = s.End
			}
			for _, k := range sub {
				if k != winner && spans[k].End.After(won) {
					cancelLag = append(cancelLag, ms(spans[k].End.Sub(ref)))
				}
			}
			if firstWin.IsZero() || won.Before(firstWin) {
				firstWin = won
			}
			if won.After(lastWin) {
				lastWin = won
			}
		}
		if len(bySub) > 1 {
			straggle = append(straggle, ms(lastWin.Sub(firstWin)))
		}
	}
	doSelf, late, cancelLag = sortedCopy(doSelf), sortedCopy(late), sortedCopy(cancelLag)
	qwait, straggle = sortedCopy(qwait), sortedCopy(straggle)
	out["hedge.copies_per_query"] = ratio(float64(copies), float64(subqueries))
	out["hedge.dispatch_late_ms_p99"] = quantile(late, 0.99)
	out["hedge.cancel_lag_ms_p50"] = quantile(cancelLag, 0.5)
	out["hedge.cancel_lag_ms_p99"] = quantile(cancelLag, 0.99)
	out["backend.withdrawn_ratio"] = ratio(float64(withdrawn), float64(copies))
	out["backend.busy_share"] = ratio(float64(busy), float64(c.replicas)*float64(c.wall))
	if c.inProcess {
		out["hedge.self_us_p50"] = quantile(doSelf, 0.5)
		out["hedge.self_us_p99"] = quantile(doSelf, 0.99)
		out["backend.queue_wait_ms_p50"] = quantile(qwait, 0.5)
		out["backend.queue_wait_ms_p99"] = quantile(qwait, 0.99)
	} else {
		out["shard.self_us_p50"] = quantile(doSelf, 0.5)
		out["shard.straggler_ms_p50"] = quantile(straggle, 0.5)
		out["shard.straggler_ms_p99"] = quantile(straggle, 0.99)
	}
}
