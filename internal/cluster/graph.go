package cluster

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/reissue"
)

// Graph is the simulator twin of every composed deployment: a tree
// of nodes over one shared arrival process. Leaves are ordinary
// Clusters over one fleet's trace; shard nodes fan every query out
// to all their children and complete it when the slowest child
// answers (the partitioned fleet of "The Tail at Scale"); tier nodes
// run their cache subtree first, shield the hits the cache answers
// within the tier delay, then run their store subtree over the same
// arrival instants with the shielded queries masked to zero service,
// so the store serves exactly the fall-through and proactive-hedge
// load the live tier client sends it. A one-level shard node over
// fleets is the sharded deployment reissue/hedge/shard runs live; a
// tier node over two fleets is the cache→store deployment of
// reissue/hedge/tier; reissue/hedge/topo builds deeper stacks.
//
// Determinism and decorrelation: every leaf shares the graph's
// arrival process (same Seed), and whoever builds the graph
// decorrelates per-leaf streams by accumulating the SAME structural
// salts along the path that the live constructors apply —
// stats.TierSalt into a tier's store-side PolicySeed (tier.New salts
// its store client's seed), stats.ShardSalt(k) into shard k > 0's
// PolicySeed and ServiceSeed (shard.New salts shard k's coin seed;
// the service salt keeps stochastic shard sources independent). The
// degenerate compositions therefore collapse bit for bit: a 1-shard
// node or an Inf-delay/hit-rate-1 tier adds no salt and no mask
// flips, so the graph replays the uncomposed Cluster exactly.

// GraphNode is one node of a composed simulation graph: a leaf
// Cluster, a shard fan-out, or a cache→store tier.
type GraphNode interface {
	// runAll replays the shared arrival process for every query
	// (warmup included) and returns per-query response times in query
	// order; the Graph root trims warmup.
	runAll(polFor func(path string) reissue.Policy) []float64
	// addMask registers an enclosing tier's shielded stream: leaves
	// mask shielded queries to zero service, and every node excludes
	// them from its rate denominators.
	addMask(shielded []bool)
	// collect gathers per-node statistics from the most recent runAll.
	collect(out *GraphResult, warmup int)
	// queries is the number of arrivals (warmup included) the node
	// replays per run.
	queries() int
}

// maskStack zeroes the service of shielded queries: each enclosing
// tier contributes one shielded stream, and a query masked by any of
// them takes zero service while the inner source's stream is still
// consumed in query order (non-shielded draws stay independent of
// what the caches shielded).
type maskStack struct {
	inner ServiceSource
	masks [][]bool
	next  int
}

func (m *maskStack) Sample(r *stats.RNG) (float64, float64) {
	p, re := m.inner.Sample(r)
	if m.shieldedAt(m.next) {
		p, re = 0, 0
	}
	m.next++
	return p, re
}

func (m *maskStack) Reset() {
	m.inner.Reset()
	m.next = 0
}

func (m *maskStack) shieldedAt(i int) bool {
	for _, mask := range m.masks {
		if i < len(mask) && mask[i] {
			return true
		}
	}
	return false
}

// GraphLeaf is a graph node over one replicated fleet: an ordinary
// Cluster whose source may be masked by enclosing tiers.
type GraphLeaf struct {
	path    string
	cluster *Cluster
	mask    *maskStack
	total   int

	last *Result
}

// NewGraphLeaf builds a leaf over cfg. The graph runs every leaf over
// the full query count with the root trimming warmup, so cfg.Queries
// must be the graph's total (Queries + Warmup at the root) and
// cfg.Warmup zero. Structural seed salts (PolicySeed/ServiceSeed)
// are the caller's job — accumulate along the path exactly as the
// live constructors do.
func NewGraphLeaf(path string, cfg Config) (*GraphLeaf, error) {
	if cfg.Warmup != 0 {
		return nil, fmt.Errorf("cluster: graph leaf %q has Warmup=%d — the graph root trims warmup", path, cfg.Warmup)
	}
	if cfg.FanOut > 1 {
		return nil, fmt.Errorf("cluster: graph leaf %q has FanOut=%d — compose a shard node instead", path, cfg.FanOut)
	}
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("cluster: graph leaf %q has Servers=%d — a leaf twins a finite replica fleet", path, cfg.Servers)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("cluster: graph leaf %q needs a service source", path)
	}
	if ts, ok := cfg.Source.(*TraceSource); ok && len(ts.Times) == 0 {
		return nil, fmt.Errorf("cluster: graph leaf %q TraceSource has no service times", path)
	}
	mask := &maskStack{inner: cfg.Source}
	cfg.Source = mask
	c, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("graph leaf %q: %w", path, err)
	}
	return &GraphLeaf{path: path, cluster: c, mask: mask, total: cfg.Queries}, nil
}

func (l *GraphLeaf) runAll(polFor func(string) reissue.Policy) []float64 {
	l.last = l.cluster.RunDetailed(polFor(l.path))
	rts := l.last.Log.ResponseTimes()
	if len(rts) != l.total {
		panic(fmt.Sprintf("cluster: graph leaf %q measured %d queries, want %d", l.path, len(rts), l.total))
	}
	return rts
}

func (l *GraphLeaf) queries() int { return l.total }

func (l *GraphLeaf) addMask(shielded []bool) {
	l.mask.masks = append(l.mask.masks, shielded)
}

func (l *GraphLeaf) collect(out *GraphResult, warmup int) {
	var resp []float64
	copies := 0
	for i := warmup; i < l.total; i++ {
		if l.mask.shieldedAt(i) {
			continue
		}
		rec := l.last.Log.Records[i]
		resp = append(resp, rec.Response)
		copies += rec.Reissues
	}
	rate := 0.0
	if len(resp) > 0 {
		rate = float64(copies) / float64(len(resp))
	}
	out.LeafRates[l.path] = rate
	out.LeafResp[l.path] = resp
}

// GraphShard max-merges its children: every child replays every
// arrival (the data is partitioned, each query touches all shards)
// and the composed query completes when the slowest child answers.
type GraphShard struct {
	path     string
	children []GraphNode
	total    int
}

// NewGraphShard builds a shard fan-out over the given child
// subtrees, each of which must replay total queries.
func NewGraphShard(path string, total int, children ...GraphNode) (*GraphShard, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("cluster: graph shard %q has no children", path)
	}
	for s, ch := range children {
		if ch == nil {
			return nil, fmt.Errorf("cluster: graph shard %q child %d is nil", path, s)
		}
		if n := ch.queries(); n != total {
			return nil, fmt.Errorf("cluster: graph shard %q child %d replays %d queries, want %d", path, s, n, total)
		}
	}
	return &GraphShard{path: path, children: children, total: total}, nil
}

func (g *GraphShard) runAll(polFor func(string) reissue.Policy) []float64 {
	resp := make([]float64, g.total)
	for s, ch := range g.children {
		rts := ch.runAll(polFor)
		if s == 0 {
			copy(resp, rts)
			continue
		}
		for i, rt := range rts {
			if rt > resp[i] {
				resp[i] = rt
			}
		}
	}
	return resp
}

func (g *GraphShard) queries() int { return g.total }

func (g *GraphShard) addMask(shielded []bool) {
	for _, ch := range g.children {
		ch.addMask(shielded)
	}
}

func (g *GraphShard) collect(out *GraphResult, warmup int) {
	for _, ch := range g.children {
		ch.collect(out, warmup)
	}
}

// GraphTier runs its cache subtree first, shields the queries the
// cache answers within the tier delay (the shared Bernoulli hit
// stream decides which queries CAN hit), then runs its store subtree
// with the shielded queries masked to zero service, and merges each
// query's end-to-end response exactly as the live tier client
// resolves it: a shielded hit completes at its cache response, a
// slow hit at the earlier of its cache response and delay + its store
// response, and a miss at min(delay, cache response) + its store
// response. The store replays the shared arrival instants rather than
// the shifted dispatch instants: exact for a constant proactive
// shift, which leaves queueing untouched, and an approximation for
// the variable displacement of an early fall-through.
type GraphTier struct {
	path         string
	cache, store GraphNode
	hits         []bool
	delay        float64
	total        int

	// shielded is shared with the store subtree's leaf masks; written
	// per run after the cache subtree answers.
	shielded []bool
	// enclosing holds outer tiers' shielded streams — this tier's own
	// rate denominators exclude queries an outer cache absorbed.
	enclosing [][]bool
}

// NewGraphTier builds a tier node over the cache and store subtrees,
// installing the tier's shield mask on every leaf under the store
// subtree. Both subtrees must replay total queries, and hits must
// cover them and be the SAME bit stream the live tier consumes
// (kvstore.CacheWorkload.Hits).
func NewGraphTier(path string, cache, store GraphNode, hits []bool, delay float64, total int) (*GraphTier, error) {
	if cache == nil || store == nil {
		return nil, fmt.Errorf("cluster: graph tier %q needs both cache and store subtrees", path)
	}
	if nc, ns := cache.queries(), store.queries(); nc != total || ns != total {
		return nil, fmt.Errorf("cluster: graph tier %q subtrees replay %d (cache) and %d (store) queries, want %d", path, nc, ns, total)
	}
	if len(hits) < total {
		return nil, fmt.Errorf("cluster: graph tier %q has %d hit bits for %d queries — the live and simulated runs must share one stream", path, len(hits), total)
	}
	if math.IsNaN(delay) || delay < 0 {
		return nil, fmt.Errorf("cluster: graph tier %q TierDelay=%v must be non-negative (math.Inf(1) disables the proactive hedge)", path, delay)
	}
	t := &GraphTier{
		path: path, cache: cache, store: store,
		hits: hits, delay: delay, total: total,
		shielded: make([]bool, total),
	}
	store.addMask(t.shielded)
	return t, nil
}

func (t *GraphTier) runAll(polFor func(string) reissue.Policy) []float64 {
	crt := t.cache.runAll(polFor)
	for i := 0; i < t.total; i++ {
		t.shielded[i] = t.hits[i] && crt[i] <= t.delay
	}
	srt := t.store.runAll(polFor)

	resp := make([]float64, t.total)
	for i := 0; i < t.total; i++ {
		switch {
		case t.shielded[i]:
			// Hit answered within the tier delay: the store sub-query
			// was never sent (the completion check).
			resp[i] = crt[i]
		case t.hits[i]:
			// Slow hit: the proactive store copy dispatched at
			// TierDelay races the cache answer; first valid wins.
			resp[i] = math.Min(crt[i], t.delay+srt[i])
		default:
			// Miss: the store dispatches at the tier delay or when
			// the miss is known, whichever is earlier, and only the
			// store can answer.
			resp[i] = math.Min(t.delay, crt[i]) + srt[i]
		}
	}
	return resp
}

func (t *GraphTier) queries() int { return t.total }

func (t *GraphTier) addMask(shielded []bool) {
	t.enclosing = append(t.enclosing, shielded)
	t.cache.addMask(shielded)
	t.store.addMask(shielded)
}

func (t *GraphTier) collect(out *GraphResult, warmup int) {
	measured, dispatched := 0, 0
	for i := warmup; i < t.total; i++ {
		if t.outerShielded(i) {
			continue
		}
		measured++
		if !t.shielded[i] {
			dispatched++
		}
	}
	rate := 0.0
	if measured > 0 {
		rate = float64(dispatched) / float64(measured)
	}
	out.TierRates[t.path] = rate
	t.cache.collect(out, warmup)
	t.store.collect(out, warmup)
}

func (t *GraphTier) outerShielded(i int) bool {
	for _, mask := range t.enclosing {
		if i < len(mask) && mask[i] {
			return true
		}
	}
	return false
}

// Graph is a composed simulation topology: a tree of leaf Clusters,
// shard fan-outs, and cache→store tiers sharing one arrival process.
// Like Cluster, a Graph must not execute two Runs concurrently.
type Graph struct {
	root   GraphNode
	warmup int
}

// NewGraph roots a graph over total = queries + warmup arrivals;
// every leaf must have been built with Queries=total and Warmup=0.
func NewGraph(root GraphNode, queries, warmup int) (*Graph, error) {
	if root == nil {
		return nil, fmt.Errorf("cluster: graph needs a root node")
	}
	if queries <= 0 || warmup < 0 {
		return nil, fmt.Errorf("cluster: graph needs positive queries (got %d) and non-negative warmup (got %d)", queries, warmup)
	}
	if n := root.queries(); n != queries+warmup {
		return nil, fmt.Errorf("cluster: graph root replays %d queries, want queries+warmup = %d", n, queries+warmup)
	}
	return &Graph{root: root, warmup: warmup}, nil
}

// GraphResult is the outcome of one composed run.
type GraphResult struct {
	// Query holds the measured end-to-end response times in query
	// order.
	Query []float64
	// LeafRates maps each leaf's path to its within-fleet reissue
	// rate: reissue copies over that leaf's dispatched sub-queries
	// (queries no enclosing cache absorbed).
	LeafRates map[string]float64
	// LeafResp maps each leaf's path to its dispatched sub-queries'
	// response times in query order: every measured query the leaf
	// served, skipping those an enclosing cache shielded.
	LeafResp map[string][]float64
	// TierRates maps each tier node's path to the fraction of its
	// dispatched queries that sent a store sub-query — the statistic
	// the tier's delay knob controls.
	TierRates map[string]float64
}

// Run replays the graph once: polFor supplies each leaf's
// within-fleet policy by leaf path (return reissue.None{} for
// no-reissue). Composite edges have no policy here by construction —
// reissuing a whole subtree has no live counterpart the builder
// permits.
func (g *Graph) Run(polFor func(path string) reissue.Policy) *GraphResult {
	resp := g.root.runAll(polFor)
	out := &GraphResult{
		Query:     append([]float64(nil), resp[g.warmup:]...),
		LeafRates: map[string]float64{},
		LeafResp:  map[string][]float64{},
		TierRates: map[string]float64{},
	}
	g.root.collect(out, g.warmup)
	return out
}
