// Package topo composes replicated fleets, shard fan-outs, and
// cache→store tiers into arbitrary service graphs — and builds each
// graph in BOTH worlds at once: the live wall-clock system wired from
// Source combinators (hedge.Client, tier.Client, shard.Router, in
// process or behind the HTTP transport) and its virtual-time cluster
// twin (internal/cluster.Graph), composed identically from one
// declarative Spec.
//
// The twinning discipline is the package's reason to exist. Both
// worlds share the arrival rate and seed (the live open loop draws its
// instants from stats.NewRNG(seed), the simulator from
// NewRNG(seed).Split(1), so the two see statistically identical but
// not equal arrival instants), the effective service trace (the
// nominal workload passed through the machine's measured sleep
// response, plus the calibrated wire overhead for HTTP fleets), and
// each tier's Bernoulli hit stream — so a live run and a simulated run
// of the same Spec are the same experiment, and their reissue-rate and
// tail statistics can be compared within tolerance. Reissue coins are structurally
// independent per hedged edge in both worlds: the builder accumulates
// the SAME per-edge seed salts along the graph path that the live
// constructors apply internally (tier.New salts its store client by
// stats.TierSalt(); shard.New salts shard s > 0 by
// stats.ShardSalt(s)), and hands the accumulated salt to the
// simulator leaf as its PolicySeed/ServiceSeed. Degenerate
// compositions therefore collapse exactly: a 1-shard node or a
// hit-rate-1/Inf-delay tier adds no salt and no shielding, so both
// worlds reproduce the uncomposed system bit for bit (simulator) or
// within the usual live tolerances.
//
// Policies are per-run, not per-topology: RunSpec.Policies maps SLOT
// paths — concrete paths with every "shard<k>" segment collapsed to
// "shard" (see SlotOf), because a shard fan-out hedges all shards from
// one template — to within-fleet reissue policies. Composite edges (a
// hedging client wrapping a tier or a router) always run
// reissue.None: replica diversity lives inside the subgraph, and
// reissue-the-whole-subtree has no simulator twin. The builder
// rejects a policy on a composite slot.
package topo

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/searchengine"
	"repro/internal/stats"
	"repro/reissue"
	"repro/reissue/hedge"
	"repro/reissue/hedge/backend"
	"repro/reissue/hedge/shard"
	"repro/reissue/hedge/tier"
	"repro/reissue/hedge/transport"
)

// Spec is one node of a declarative topology: exactly one of the
// three forms must be set.
type Spec struct {
	// Fleet is a replicated service fleet — a leaf of the graph.
	Fleet *FleetSpec
	// Shard fans every query out over N partitioned child subgraphs
	// and completes when the slowest answers.
	Shard *ShardSpec
	// Tier runs a cache fleet in front of a store subgraph with the
	// tier-delay reissue rule.
	Tier *TierSpec
}

// FleetSpec describes one replicated fleet.
type FleetSpec struct {
	// Replicas is the number of identical single-threaded servers.
	Replicas int
	// SpeedFactors optionally gives each replica a static service-
	// time multiplier; length must equal Replicas when set.
	SpeedFactors []float64
	// HTTP serves the fleet as per-replica HTTP servers behind a
	// transport.Client instead of in-process, with the wire overhead
	// calibrated into the simulator's trace.
	HTTP bool
}

// ShardSpec fans out over N shards, each running an identical child
// Spec over its own partition of the workload — shard.Router's
// topology, with arbitrary subgraphs where the router has fleets.
type ShardSpec struct {
	// N is the number of shards; the workload is partitioned N ways
	// (kvstore.Partition or searchengine.GenerateShardedWorkload),
	// every query touching all shards.
	N int
	// Child is the per-shard subgraph; all shards are uniform, as in
	// a real partitioned deployment (and as required for the single
	// hedge template shard.New applies across shards).
	Child Spec
}

// TierSpec puts a cache fleet in front of a store subgraph.
type TierSpec struct {
	// HitRate is the cache's Bernoulli hit fraction in [0, 1]. The
	// hit stream is drawn once at Build and shared by the live cache
	// backend and the simulator twin.
	HitRate float64
	// TierDelay is the tier-reissue delay in model milliseconds
	// (math.Inf(1) = pure fall-through), as in tier.Config.
	TierDelay float64
	// Cache is the cache fleet. It is always in-process: the cache
	// substrate is built from the tier's own CacheWorkload, which has
	// no HTTP serving path.
	Cache FleetSpec
	// Store is the authoritative tier: any subgraph.
	Store Spec
}

// Options parametrizes Build.
type Options struct {
	// Unit is the wall-clock duration of one model millisecond for
	// every fleet in the graph. Default time.Millisecond.
	Unit time.Duration
	// MinServiceMS, when positive, clamps every model service time —
	// see backend.Config.MinServiceMS. Strongly recommended for
	// scaled-down replays.
	MinServiceMS float64
	// Seed salts the per-tier Bernoulli hit streams (each tier's
	// stream is further salted by its path, so nested tiers draw
	// independently).
	Seed uint64
}

// wireProbes is the number of idle calibration requests per HTTP
// fleet behind the wire overhead folded into the simulator trace.
const wireProbes = 40

// Workload is the query trace a topology replays, built by KV or
// Search; the trace format stays behind the interface.
type Workload interface {
	// serve stands the workload up as a live replicated cluster.
	serve(cfg backend.Config) (*backend.Cluster, error)
	// partition splits the workload n ways for a shard node.
	partition(n int) ([]Workload, error)
	// cacheView draws a tier's Bernoulli hit stream over the workload.
	cacheView(cc kvstore.CacheConfig) (*kvstore.CacheWorkload, error)
}

// KV wraps a kvstore set-intersection workload, which every node form
// accepts. A nil or empty workload yields nil, which Build rejects.
func KV(w *kvstore.Workload) Workload {
	if w == nil || len(w.Queries) == 0 {
		return nil
	}
	return kvWorkload{w}
}

type kvWorkload struct{ w *kvstore.Workload }

func (k kvWorkload) serve(cfg backend.Config) (*backend.Cluster, error) {
	return backend.NewKV(k.w, cfg)
}

func (k kvWorkload) partition(n int) ([]Workload, error) {
	parts, err := k.w.Partition(n)
	if err != nil {
		return nil, err
	}
	out := make([]Workload, len(parts))
	for i, p := range parts {
		out[i] = kvWorkload{p}
	}
	return out, nil
}

func (k kvWorkload) cacheView(cc kvstore.CacheConfig) (*kvstore.CacheWorkload, error) {
	return k.w.CacheView(cc)
}

// Search wraps a search-engine workload. Fleet and shard nodes accept
// it: a shard node partitions the corpus with
// searchengine.GenerateShardedWorkload, so every shard replays the
// same query trace over its slice of the documents. A tier node
// returns an error (its cache is a kvstore view), as does a shard node
// nested under another shard (a partition does not partition again).
func Search(cfg searchengine.WorkloadConfig) Workload {
	return &searchWorkload{cfg: cfg}
}

// searchWorkload is the whole corpus (w nil: generated from cfg on
// every serve, which is deterministic) or one partition of it.
type searchWorkload struct {
	cfg searchengine.WorkloadConfig
	w   *searchengine.Workload
}

func (s *searchWorkload) serve(cfg backend.Config) (*backend.Cluster, error) {
	w := s.w
	if w == nil {
		var err error
		if w, err = searchengine.GenerateWorkload(s.cfg); err != nil {
			return nil, err
		}
	}
	return backend.NewSearch(w, cfg)
}

func (s *searchWorkload) partition(n int) ([]Workload, error) {
	if s.w != nil {
		return nil, fmt.Errorf("a search partition cannot be partitioned again")
	}
	parts, err := searchengine.GenerateShardedWorkload(s.cfg, n)
	if err != nil {
		return nil, err
	}
	out := make([]Workload, len(parts))
	for i, p := range parts {
		out[i] = &searchWorkload{w: p}
	}
	return out, nil
}

func (s *searchWorkload) cacheView(kvstore.CacheConfig) (*kvstore.CacheWorkload, error) {
	return nil, fmt.Errorf("a tier needs a kv workload (its cache is a kvstore cache view)")
}

// coinSalt decorrelates policy coins from the arrival stream — the
// same constant backend.LiveSystem applies, so a degenerate topo run
// replays its coin stream exactly.
const coinSalt = 0x94d049bb133111eb

type nodeKind int

const (
	kindFleet nodeKind = iota
	kindShard
	kindTier
)

// node is one materialized vertex of the topology: the substrate
// (for fleets), the shared streams (for tiers), and the seed salts
// accumulated along the path from the root.
type node struct {
	kind nodeKind
	// path is the concrete node path: "" at the root, children joined
	// with "/" ("cache", "store", "shard0", "store/shard1", ...).
	path string
	// slot is the policy-slot path: path with every shard<k> segment
	// collapsed to "shard", since one hedge template covers all
	// shards.
	slot string
	// saltP/saltS are the policy-coin and service-stream salts
	// accumulated from the root: the XOR the live constructors apply
	// internally, handed to the simulator leaf as PolicySeed and
	// ServiceSeed.
	saltP, saltS uint64

	// Fleet leaves.
	src      backend.Source
	replicas int
	speeds   []float64
	trace    []float64 // effective service times for the simulator twin
	meanMS   float64   // nominal mean service time (utilization → rate)

	// Tier nodes.
	delay float64
	cw    *kvstore.CacheWorkload

	// children: [cache, store] for tiers, per-shard for shards.
	children []*node
}

// Topology is a built service graph: live substrates (clusters, HTTP
// replica servers, transport clients) materialized once, plus
// everything the simulator twin needs. Build it once, run it many
// times (RunLive / RunSim), Close it when done.
type Topology struct {
	root     *node
	unit     time.Duration
	opt      Options
	servers  []*transport.ReplicaServer
	leaves   map[string]*node    // concrete path → fleet leaf
	slotKind map[string]nodeKind // slot path → node kind (policy validation)
	// maxQueries bounds RunSpec.N: the shortest stream any node can
	// replay (trace lengths, hit streams).
	maxQueries int
	closed     bool
}

func join(parent, seg string) string {
	if parent == "" {
		return seg
	}
	return parent + "/" + seg
}

// hitSeed derives a tier's Bernoulli hit-stream seed from the build
// seed and the tier's path, so nested tiers draw independent streams.
func hitSeed(base uint64, path string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return base ^ stats.Mix64NonZero(h)
}

// shardSeg names shard k's path segment.
func shardSeg(k int) string { return "shard" + strconv.Itoa(k) }

// SlotOf maps a concrete node path to its policy slot: every segment
// that is exactly a shard segment — "shard" followed by a canonical
// decimal index, as the builder names them — collapses to "shard".
// Any other segment ("shard1x", "shard-1", "shard01") is kept as is.
func SlotOf(path string) string {
	if path == "" {
		return ""
	}
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if k, err := strconv.Atoi(strings.TrimPrefix(s, "shard")); err == nil && k >= 0 && s == shardSeg(k) {
			segs[i] = "shard"
		}
	}
	return strings.Join(segs, "/")
}

// Build materializes spec over workload w: every fleet's execution
// substrate (in-process cluster or HTTP replica servers plus
// transport client), every tier's shared hit stream, the effective
// service traces for the simulator twin, and the per-edge seed salts.
// The returned Topology owns the HTTP servers; Close releases them.
func Build(w Workload, spec Spec, opt Options) (*Topology, error) {
	if w == nil {
		return nil, fmt.Errorf("topo: nil or empty workload")
	}
	if opt.Unit < 0 {
		return nil, fmt.Errorf("topo: negative Unit %v", opt.Unit)
	}
	if opt.Unit == 0 {
		opt.Unit = time.Millisecond
	}
	t := &Topology{
		unit:       opt.Unit,
		opt:        opt,
		leaves:     map[string]*node{},
		slotKind:   map[string]nodeKind{},
		maxQueries: math.MaxInt,
	}
	root, err := t.build(w, spec, "", "", 0, 0)
	if err != nil {
		t.Close()
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Topology) build(w Workload, spec Spec, path, slot string, saltP, saltS uint64) (*node, error) {
	set := 0
	for _, on := range []bool{spec.Fleet != nil, spec.Shard != nil, spec.Tier != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("topo: node %q must set exactly one of Fleet, Shard, Tier (got %d)", path, set)
	}
	switch {
	case spec.Fleet != nil:
		return t.buildFleet(*spec.Fleet, w.serve, path, slot, saltP, saltS)

	case spec.Shard != nil:
		parts, err := w.partition(spec.Shard.N)
		if err != nil {
			return nil, fmt.Errorf("topo: shard %q: %w", path, err)
		}
		n := &node{kind: kindShard, path: path, slot: slot, saltP: saltP, saltS: saltS}
		for k, part := range parts {
			cp, cs := saltP, saltS
			if k > 0 {
				// The salt shard.New will XOR into shard k's hedge
				// seed, and the salt the simulator graph gives shard
				// k's policy and service streams.
				cp ^= stats.ShardSalt(k)
				cs ^= stats.ShardSalt(k)
			}
			ch, err := t.build(part, spec.Shard.Child, join(path, shardSeg(k)), join(slot, "shard"), cp, cs)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, ch)
		}
		t.slotKind[slot] = kindShard
		return n, nil

	default:
		ts := spec.Tier
		if ts.Cache.HTTP {
			return nil, fmt.Errorf("topo: tier %q: the cache fleet is in-process only — its substrate is the tier's own CacheWorkload", path)
		}
		if math.IsNaN(ts.TierDelay) || ts.TierDelay < 0 {
			return nil, fmt.Errorf("topo: tier %q: TierDelay=%v must be non-negative (math.Inf(1) disables the proactive hedge)", path, ts.TierDelay)
		}
		cw, err := w.cacheView(kvstore.CacheConfig{HitRate: ts.HitRate, Seed: hitSeed(t.opt.Seed, path)})
		if err != nil {
			return nil, fmt.Errorf("topo: tier %q: %w", path, err)
		}
		mkCache := func(cfg backend.Config) (*backend.Cluster, error) { return tier.NewKVCache(cw, cfg) }
		// The cache edge inherits this node's salts unchanged and the
		// store edge accumulates stats.TierSalt — exactly the XOR
		// tier.New applies to its store client's seed.
		cacheN, err := t.buildFleet(ts.Cache, mkCache, join(path, "cache"), join(slot, "cache"), saltP, saltS)
		if err != nil {
			return nil, err
		}
		storeN, err := t.build(w, ts.Store, join(path, "store"), join(slot, "store"), saltP^stats.TierSalt(), saltS)
		if err != nil {
			return nil, err
		}
		if len(cw.Hits) < t.maxQueries {
			t.maxQueries = len(cw.Hits)
		}
		n := &node{
			kind: kindTier, path: path, slot: slot, saltP: saltP, saltS: saltS,
			delay: ts.TierDelay, cw: cw, children: []*node{cacheN, storeN},
		}
		t.slotKind[slot] = kindTier
		return n, nil
	}
}

func (t *Topology) fleetConfig(fs FleetSpec) backend.Config {
	return backend.Config{
		Replicas:     fs.Replicas,
		Unit:         t.unit,
		SpeedFactors: fs.SpeedFactors,
		MinServiceMS: t.opt.MinServiceMS,
	}
}

// buildFleet materializes a fleet leaf: the in-process cluster (or
// per-replica clusters behind HTTP servers), the effective trace for
// the simulator twin, and the leaf bookkeeping. mk builds a cluster
// over the fleet's workload under a given backend config — the seam
// that lets plain store fleets and tier cache fleets share this path.
func (t *Topology) buildFleet(fs FleetSpec, mk func(backend.Config) (*backend.Cluster, error), path, slot string, saltP, saltS uint64) (*node, error) {
	back, err := mk(t.fleetConfig(fs))
	if err != nil {
		return nil, fmt.Errorf("topo: fleet %q: %w", path, err)
	}
	n := &node{
		kind: kindFleet, path: path, slot: slot, saltP: saltP, saltS: saltS,
		replicas: back.Replicas(),
		speeds:   back.SpeedFactors(),
		meanMS:   back.MeanServiceMS(),
	}
	n.trace = back.EffectiveModelTimes()
	if !fs.HTTP {
		n.src = back
	} else {
		// Per-replica single-replica clusters behind per-replica HTTP
		// servers: the transport client routes query i positionally to
		// replica PrimaryReplica(i), exactly like the in-process
		// cluster, so the only live/sim divergence is the wire — which
		// the calibration below folds into the trace.
		clusters := make([]*backend.Cluster, fs.Replicas)
		for r := range clusters {
			cfg := t.fleetConfig(fs)
			cfg.Replicas = 1
			if fs.SpeedFactors != nil {
				cfg.SpeedFactors = []float64{fs.SpeedFactors[r]}
			}
			// The per-replica substrate replays the same workload as
			// the reference cluster; speed heterogeneity moves to the
			// per-replica configs.
			c, err := mk(cfg)
			if err != nil {
				return nil, fmt.Errorf("topo: fleet %q replica %d: %w", path, r, err)
			}
			clusters[r] = c
		}
		servers, urls, err := transport.ServeAll(clusters)
		if err != nil {
			return nil, fmt.Errorf("topo: fleet %q: %w", path, err)
		}
		t.servers = append(t.servers, servers...)
		client, err := transport.NewClient(transport.ClientConfig{Replicas: urls, Unit: t.unit})
		if err != nil {
			return nil, fmt.Errorf("topo: fleet %q: %w", path, err)
		}
		//lint:allow ctxflow calibration probe at build time, before any caller context exists
		over, err := client.WireOverheadMS(context.Background(), back.ModelTimes(), n.speeds, wireProbes)
		if err != nil {
			return nil, fmt.Errorf("topo: fleet %q: %w", path, err)
		}
		for i := range n.trace {
			n.trace[i] += over
		}
		n.src = client
	}
	if len(n.trace) < t.maxQueries {
		t.maxQueries = len(n.trace)
	}
	t.leaves[path] = n
	t.slotKind[slot] = kindFleet
	return n, nil
}

// Close tears down the topology's HTTP replica servers. Safe to call
// more than once; in-process substrates need no teardown.
func (t *Topology) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, s := range t.servers {
		s.Close()
	}
}

// Unit returns the wall-clock duration of one model millisecond.
func (t *Topology) Unit() time.Duration { return t.unit }

// FleetPaths returns the concrete paths of every fleet leaf, sorted.
func (t *Topology) FleetPaths() []string {
	out := make([]string, 0, len(t.leaves))
	for p := range t.leaves {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ArrivalRate returns the open-loop Poisson arrival rate that loads
// the fleet at the given concrete path to utilization rho — the
// shared-arrival graph drives every fleet at one rate, so pick the
// fleet whose utilization the experiment controls (usually the
// entry tier).
func (t *Topology) ArrivalRate(rho float64, path string) (float64, error) {
	n, ok := t.leaves[path]
	if !ok {
		return 0, fmt.Errorf("topo: no fleet at %q (fleets: %v)", path, t.FleetPaths())
	}
	return backend.FleetArrivalRate(rho, n.replicas, n.meanMS), nil
}

// MaxQueries returns the largest RunSpec.N this topology can replay —
// the shortest stream (trace or hit stream) any node holds.
func (t *Topology) MaxQueries() int { return t.maxQueries }

// RunSpec parametrizes one trial of a built topology, shared by
// RunLive and RunSim so the two worlds replay the same experiment.
type RunSpec struct {
	// N is the total number of queries per trial, Warmup of them
	// excluded from every reported statistic.
	N, Warmup int
	// Lambda is the open-loop Poisson arrival rate in queries per
	// model millisecond (see ArrivalRate).
	Lambda float64
	// Seed drives arrivals and, salted, every hedged edge's policy
	// coins.
	Seed uint64
	// Policies maps slot paths to within-fleet reissue policies:
	// "" for the root fleet's edge, "cache"/"store" under a tier,
	// "shard" (uniform) under a fan-out — e.g. "store/shard" for the
	// shards of a sharded store. Missing slots run reissue.None.
	// Unknown slots are an error, as is any non-None policy on a
	// composite (tier or shard) slot.
	Policies map[string]reissue.Policy
}

// Result is the measured outcome of one trial, identical in shape
// for live and simulated runs.
type Result struct {
	// Query holds every post-warmup end-to-end latency in model
	// milliseconds, in query order.
	Query []float64
	// LeafRates maps each fleet leaf's concrete path to its
	// within-fleet reissue rate: reissue copies over the leaf's
	// dispatched sub-queries.
	LeafRates map[string]float64
	// LeafResp maps each fleet leaf's concrete path to its
	// post-warmup response-time log over the leaf's dispatched
	// sub-queries, in query order: the primary copies' response times
	// live, the sub-queries' in the simulator — the same statistic
	// under reissue.None, so either world's baseline can tune a policy.
	LeafResp map[string][]float64
	// TierRates maps each tier node's concrete path to the fraction
	// of its dispatched queries that sent a store sub-query.
	TierRates map[string]float64
}

// TailLatency returns the k-th quantile (k in (0,1)) of the
// end-to-end log, with the same nearest-rank formula as
// reissue.RunResult.
func (r *Result) TailLatency(k float64) float64 {
	return reissue.RunResult{Query: r.Query}.TailLatency(k)
}

// policies validates rs.Policies against the topology's slots and
// returns the per-slot lookup (reissue.None for missing slots).
func (t *Topology) policies(m map[string]reissue.Policy) (func(slot string) reissue.Policy, error) {
	for key, p := range m {
		k, ok := t.slotKind[key]
		if !ok {
			valid := make([]string, 0, len(t.slotKind))
			for s, sk := range t.slotKind {
				if sk == kindFleet {
					valid = append(valid, s)
				}
			}
			sort.Strings(valid)
			return nil, fmt.Errorf("topo: policy for unknown slot %q (fleet slots: %q)", key, valid)
		}
		if k != kindFleet && p != nil {
			if _, none := p.(reissue.None); !none {
				return nil, fmt.Errorf("topo: slot %q is a composite edge — it must run reissue.None (replica diversity lives inside the subgraph, and reissuing a whole subtree has no simulator twin)", key)
			}
		}
	}
	return func(slot string) reissue.Policy {
		if p, ok := m[slot]; ok && p != nil {
			return p
		}
		return reissue.None{}
	}, nil
}

func (t *Topology) validateRun(rs RunSpec) error {
	if t.closed {
		return fmt.Errorf("topo: topology is closed")
	}
	if rs.N <= 0 || rs.Warmup < 0 || rs.Warmup >= rs.N {
		return fmt.Errorf("topo: need 0 <= Warmup < N, got Warmup=%d N=%d", rs.Warmup, rs.N)
	}
	if rs.N > t.maxQueries {
		return fmt.Errorf("topo: N=%d exceeds the topology's %d-query streams", rs.N, t.maxQueries)
	}
	if rs.Lambda <= 0 {
		return fmt.Errorf("topo: Lambda=%v must be positive", rs.Lambda)
	}
	return nil
}

// RunLive executes one wall-clock trial: the live graph is wired
// fresh from the materialized substrates (per-run hedging clients and
// counters), driven open-loop, and measured per edge with
// backend.MeasuredSource — leaf rates over each fleet's dispatched
// sub-queries, tier rates over each tier's store dispatches.
func (t *Topology) RunLive(rs RunSpec) (*Result, error) {
	polFor, err := t.policies(rs.Policies)
	if err != nil {
		return nil, err
	}
	if err := t.validateRun(rs); err != nil {
		return nil, err
	}
	coinSeed := rs.Seed ^ coinSalt
	out := &Result{LeafRates: map[string]float64{}, LeafResp: map[string][]float64{}, TierRates: map[string]float64{}}
	var probes []func(*Result)
	// waiters collects every constructed client's Wait, registered
	// bottom-up; the driver calls them outermost-first (reverse
	// order), so an outer loser's late inner dispatch is still
	// covered by the inner client's Wait.
	var waiters []func()

	leafRate := func(m *backend.MeasuredSource) float64 {
		if p := m.Primaries(); p > 0 {
			return float64(m.Reissues()) / float64(p)
		}
		return 0
	}
	// measure wraps a child edge in a MeasuredSource and registers
	// the leaf-rate probe when the child is a fleet (composite
	// children report their own internal edges).
	measure := func(ch *node, src backend.Source) *backend.MeasuredSource {
		m := backend.NewMeasuredSource(src, rs.Warmup)
		if ch.kind == kindFleet {
			path := ch.path
			probes = append(probes, func(out *Result) {
				out.LeafRates[path] = leafRate(m)
				out.LeafResp[path], _ = m.Logs()
			})
		}
		return m
	}

	var buildLive func(n *node) (backend.Source, error)
	buildLive = func(n *node) (backend.Source, error) {
		switch n.kind {
		case kindFleet:
			return n.src, nil

		case kindShard:
			shards := make([]backend.Source, len(n.children))
			for k, ch := range n.children {
				src, err := buildLive(ch)
				if err != nil {
					return nil, err
				}
				shards[k] = measure(ch, src)
			}
			// shard.New salts shard k > 0 internally, completing the
			// accumulated per-leaf seed.
			r, err := shard.New(shard.Config{
				Shards: shards,
				Hedge: hedge.Config{
					Policy:      polFor(n.children[0].slot),
					LetLoserRun: true,
					Seed:        coinSeed ^ n.saltP,
				},
			})
			if err != nil {
				return nil, fmt.Errorf("topo: %q: %w", n.path, err)
			}
			waiters = append(waiters, r.Wait)
			return r, nil

		default: // kindTier
			cacheN, storeN := n.children[0], n.children[1]
			cacheSrc, err := buildLive(cacheN)
			if err != nil {
				return nil, err
			}
			storeSrc, err := buildLive(storeN)
			if err != nil {
				return nil, err
			}
			cacheM := measure(cacheN, cacheSrc)
			storeM := measure(storeN, storeSrc)
			// tier.New salts the store client's seed internally.
			c, err := tier.New(tier.Config{
				Cache:      cacheM,
				Store:      storeM,
				CacheHedge: hedge.Config{Policy: polFor(cacheN.slot), LetLoserRun: true, Seed: coinSeed ^ n.saltP},
				StoreHedge: hedge.Config{Policy: polFor(storeN.slot), LetLoserRun: true, Seed: coinSeed ^ n.saltP},
				TierDelay:  n.delay,
			})
			if err != nil {
				return nil, fmt.Errorf("topo: %q: %w", n.path, err)
			}
			waiters = append(waiters, c.Wait)
			path := n.path
			probes = append(probes, func(out *Result) {
				rate := 0.0
				if p := cacheM.Primaries(); p > 0 {
					rate = float64(storeM.Primaries()) / float64(p)
				}
				out.TierRates[path] = rate
			})
			return c, nil
		}
	}

	rootSrc, err := buildLive(t.root)
	if err != nil {
		return nil, err
	}
	var do func(ctx context.Context, i int) error
	switch n := t.root; n.kind {
	case kindFleet:
		m := measure(n, rootSrc)
		client, err := hedge.New(hedge.Config{
			Policy:      polFor(""),
			LetLoserRun: true,
			Seed:        coinSeed,
			Unit:        t.unit,
		})
		if err != nil {
			return nil, fmt.Errorf("topo: root client: %w", err)
		}
		waiters = append(waiters, client.Wait)
		do = func(ctx context.Context, i int) error {
			_, err := client.Do(ctx, m.Request(i))
			return err
		}
	default:
		// A composite root needs no outer hedging client: its edges
		// hedge internally, and an outer edge could only run None.
		switch r := rootSrc.(type) {
		case *tier.Client:
			do = func(ctx context.Context, i int) error {
				_, err := r.Do(ctx, i)
				return err
			}
		case *shard.Router:
			do = func(ctx context.Context, i int) error {
				_, err := r.Do(ctx, i)
				return err
			}
		default:
			return nil, fmt.Errorf("topo: unexpected root source %T", rootSrc)
		}
	}
	waitAll := func() {
		for i := len(waiters) - 1; i >= 0; i-- {
			waiters[i]()
		}
	}
	// Supervise the HTTP fleet (if any): a replica whose serve loop
	// dies mid-run cancels the open loop immediately and the run
	// fails with the replica's real error, not downstream timeout
	// noise.
	//lint:allow ctxflow the topology runner is the run root; WatchFleet scopes cancellation below
	runCtx := context.Background()
	fatal := func() error { return nil }
	if len(t.servers) > 0 {
		var stop context.CancelFunc
		runCtx, stop, fatal = transport.WatchFleet(runCtx, t.servers...)
		defer stop()
	}
	lats, err := backend.OpenLoop(runCtx, t.unit, rs.N, rs.Lambda, rs.Seed, do, waitAll)
	if fe := fatal(); fe != nil {
		return nil, fmt.Errorf("topo: replica fleet failed mid-run: %w", fe)
	}
	if err != nil {
		return nil, err
	}
	out.Query = append([]float64(nil), lats[rs.Warmup:]...)
	for _, p := range probes {
		p(out)
	}
	return out, nil
}

// RunSim replays the same trial on the virtual-time cluster twin: one
// simulator leaf per fleet over the fleet's effective trace, composed
// through internal/cluster's graph combinators with the SAME arrival
// rate and seed, hit streams, and per-leaf seed salts the live run
// uses.
func (t *Topology) RunSim(rs RunSpec) (*Result, error) {
	polFor, err := t.policies(rs.Policies)
	if err != nil {
		return nil, err
	}
	if err := t.validateRun(rs); err != nil {
		return nil, err
	}
	var buildSim func(n *node) (cluster.GraphNode, error)
	buildSim = func(n *node) (cluster.GraphNode, error) {
		switch n.kind {
		case kindFleet:
			return cluster.NewGraphLeaf(n.path, cluster.Config{
				Servers:      n.replicas,
				SpeedFactors: n.speeds,
				ArrivalRate:  rs.Lambda,
				Queries:      rs.N,
				Warmup:       0,
				Source:       &cluster.TraceSource{Times: n.trace},
				LB:           cluster.HashedLB{},
				Seed:         rs.Seed,
				PolicySeed:   n.saltP,
				ServiceSeed:  n.saltS,
			})
		case kindShard:
			children := make([]cluster.GraphNode, len(n.children))
			for k, ch := range n.children {
				g, err := buildSim(ch)
				if err != nil {
					return nil, err
				}
				children[k] = g
			}
			return cluster.NewGraphShard(n.path, rs.N, children...)
		default:
			cacheG, err := buildSim(n.children[0])
			if err != nil {
				return nil, err
			}
			storeG, err := buildSim(n.children[1])
			if err != nil {
				return nil, err
			}
			return cluster.NewGraphTier(n.path, cacheG, storeG, n.cw.Hits, n.delay, rs.N)
		}
	}
	root, err := buildSim(t.root)
	if err != nil {
		return nil, err
	}
	g, err := cluster.NewGraph(root, rs.N-rs.Warmup, rs.Warmup)
	if err != nil {
		return nil, err
	}
	gr := g.Run(func(path string) reissue.Policy { return polFor(SlotOf(path)) })
	return &Result{Query: gr.Query, LeafRates: gr.LeafRates, LeafResp: gr.LeafResp, TierRates: gr.TierRates}, nil
}

// Hits exposes the Bernoulli hit stream of the tier at the given
// concrete path (e.g. "" for a root tier) — the stream both worlds
// share, for denominator-matched assertions.
func (t *Topology) Hits(path string) ([]bool, bool) {
	var find func(n *node) *node
	find = func(n *node) *node {
		if n == nil {
			return nil
		}
		if n.kind == kindTier && n.path == path {
			return n
		}
		for _, ch := range n.children {
			if f := find(ch); f != nil {
				return f
			}
		}
		return nil
	}
	n := find(t.root)
	if n == nil {
		return nil, false
	}
	return n.cw.Hits, true
}
