// Package searchengine is the repository's Lucene substitute
// (Section 6.3 of the paper): an inverted-index full-text search
// engine over a synthetic corpus with a Zipfian vocabulary, TF-IDF
// ranked conjunctive and disjunctive queries, and a calibrated cost
// model converting postings traversed into service time.
//
// The paper's Lucene phenomena are a service-time distribution that
// is far less skewed than Redis's (mean ≈ 40 ms, sd ≈ 22 ms, ~90% of
// queries between 1 and 70 ms, ~1% above 100 ms) and a single global
// FIFO request queue. This package reproduces the distribution; the
// cluster simulator's FIFO discipline provides the queueing model.
package searchengine

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Posting records one document containing a term.
type Posting struct {
	Doc int32
	TF  uint16 // term frequency within the document
}

// Index is an immutable inverted index over a synthetic corpus.
type Index struct {
	postings [][]Posting
	df       []int // document frequency per term
	numDocs  int
	numTerms int
	totalLen int64 // total token count, for stats
	// positions, when present, maps term -> doc -> sorted token
	// positions, enabling phrase queries (see phrase.go).
	positions []map[int32][]uint16
}

// NumDocs returns the corpus size.
func (ix *Index) NumDocs() int { return ix.numDocs }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return ix.numTerms }

// DocFreq returns the number of documents containing term t.
func (ix *Index) DocFreq(t int) int {
	if t < 0 || t >= ix.numTerms {
		return 0
	}
	return ix.df[t]
}

// IDF returns the inverse document frequency weight of term t.
func (ix *Index) IDF(t int) float64 {
	df := ix.DocFreq(t)
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.numDocs)/float64(df))
}

// CorpusConfig parametrizes corpus synthesis. Zero values get
// defaults calibrated to reproduce the paper's Lucene service-time
// shape at the default cost model.
type CorpusConfig struct {
	// NumDocs is the number of documents (default 20 000 — a scaled
	// stand-in for the paper's 33M-article Wikipedia; the cost model
	// absorbs the scale difference).
	NumDocs int
	// VocabSize is the number of distinct terms (default 20 000).
	VocabSize int
	// MeanDocLen is the mean document length in tokens (default 120).
	MeanDocLen int
	// ZipfS is the Zipf exponent of the term distribution
	// (default 1.0).
	ZipfS float64
	// Seed drives generation.
	Seed uint64
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.NumDocs == 0 {
		c.NumDocs = 20000
	}
	if c.VocabSize == 0 {
		c.VocabSize = 20000
	}
	if c.MeanDocLen == 0 {
		c.MeanDocLen = 120
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 0x10ce7e
	}
	return c
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s via a precomputed cumulative table and binary search.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum}
}

func (z *zipf) Sample(r *stats.RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// BuildIndex synthesizes a corpus and builds its inverted index
// (without positions; use GeneratePhraseWorkload or a Builder for
// phrase support).
func BuildIndex(cfg CorpusConfig) *Index {
	ix, _ := buildCorpusWithDocs(cfg.withDefaults(), false)
	return ix
}

// synthDocs synthesizes the corpus documents alone — the token
// draws, in one fixed RNG order — so the sharded workload generator
// can partition them over per-shard builders without paying for a
// full-corpus index it would throw away.
func synthDocs(cfg CorpusConfig) [][]int {
	r := stats.NewRNG(cfg.Seed)
	termZipf := newZipf(cfg.VocabSize, cfg.ZipfS)
	lenDist := stats.NewLogNormal(math.Log(float64(cfg.MeanDocLen))-0.125, 0.5)
	docs := make([][]int, cfg.NumDocs)
	for doc := 0; doc < cfg.NumDocs; doc++ {
		length := int(lenDist.Sample(r))
		if length < 10 {
			length = 10
		}
		tokens := make([]int, length)
		for i := range tokens {
			tokens[i] = termZipf.Sample(r)
		}
		docs[doc] = tokens
	}
	return docs
}

// buildCorpusWithDocs synthesizes the corpus through a Builder,
// optionally keeping positions, and returns the raw documents so
// callers can sample real term windows (phrase workloads, tests).
func buildCorpusWithDocs(cfg CorpusConfig, withPositions bool) (*Index, [][]int) {
	docs := synthDocs(cfg)
	b := NewBuilder(cfg.VocabSize, withPositions)
	for _, tokens := range docs {
		b.AddDocument(tokens)
	}
	return b.Build(), docs
}

// Query is a ranked boolean query.
type Query struct {
	// Terms are vocabulary term ids.
	Terms []int
	// Conjunctive selects AND semantics (documents must contain all
	// terms); otherwise OR.
	Conjunctive bool
}

// Work measures the computation a search performed.
type Work struct {
	// Postings is the number of postings-list entries traversed.
	Postings int
	// Scored is the number of score accumulations.
	Scored int
	// Positions is the number of position-list entries examined
	// (phrase queries only).
	Positions int
}

// Hit is one scored result.
type Hit struct {
	Doc   int32
	Score float64
}

// Result is a ranked result list and the work done to produce it.
type Result struct {
	Hits []Hit
	Work Work
}

// Search executes the query, returning the topK highest-scoring
// documents under TF-IDF ranking.
func (ix *Index) Search(q Query, topK int) Result {
	if topK <= 0 {
		topK = 10
	}
	if len(q.Terms) == 0 {
		return Result{}
	}
	if q.Conjunctive {
		return ix.searchAND(q.Terms, topK)
	}
	return ix.searchOR(q.Terms, topK)
}

// searchAND intersects the terms' postings document-at-a-time,
// scoring documents containing every term.
func (ix *Index) searchAND(terms []int, topK int) Result {
	lists := make([][]Posting, 0, len(terms))
	idfs := make([]float64, 0, len(terms))
	for _, t := range terms {
		if t < 0 || t >= ix.numTerms || len(ix.postings[t]) == 0 {
			return Result{} // a term matching nothing empties the AND
		}
		lists = append(lists, ix.postings[t])
		idfs = append(idfs, ix.IDF(t))
	}
	// Drive the intersection from the shortest list.
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(lists[order[a]]) < len(lists[order[b]])
	})

	var work Work
	cursors := make([]int, len(lists))
	h := &hitHeap{}
	for _, p := range lists[order[0]] {
		work.Postings++
		doc := p.Doc
		score := float64(p.TF) * idfs[order[0]]
		ok := true
		for _, li := range order[1:] {
			list := lists[li]
			// Galloping search from the cursor.
			j := cursors[li] + sort.Search(len(list)-cursors[li], func(k int) bool {
				return list[cursors[li]+k].Doc >= doc
			})
			work.Postings += bitsLen(j - cursors[li]) // charged log(gap)
			cursors[li] = j
			if j >= len(list) || list[j].Doc != doc {
				ok = false
				break
			}
			score += float64(list[j].TF) * idfs[li]
		}
		if ok {
			work.Scored++
			pushHit(h, Hit{Doc: doc, Score: score}, topK)
		}
	}
	return Result{Hits: drainHits(h), Work: work}
}

// orScratch is searchOR's accumulator: a dense score slab indexed by
// document id, a flag per document, and the list of documents the
// query touched. Only touched entries are ever non-zero, and searchOR
// clears them before returning the scratch to orPool.
type orScratch struct {
	scores  []float64
	seen    []bool
	touched []int32
}

// orPool lends accumulators to concurrent searches (live replicas
// share one Index); a slab is grown to the largest index it served.
var orPool = sync.Pool{New: func() any { return new(orScratch) }}

// searchOR accumulates scores term-at-a-time over the union of the
// postings lists.
func (ix *Index) searchOR(terms []int, topK int) Result {
	sc := orPool.Get().(*orScratch)
	if len(sc.scores) < ix.numDocs {
		sc.scores = make([]float64, ix.numDocs)
		sc.seen = make([]bool, ix.numDocs)
	}
	var work Work
	for _, t := range terms {
		if t < 0 || t >= ix.numTerms {
			continue
		}
		idf := ix.IDF(t)
		for _, p := range ix.postings[t] {
			work.Postings++
			if !sc.seen[p.Doc] {
				sc.seen[p.Doc] = true
				sc.touched = append(sc.touched, p.Doc)
			}
			sc.scores[p.Doc] += float64(p.TF) * idf
		}
	}
	// Score documents in id order so tie-breaking is deterministic:
	// sort a sparse touched list, or rebuild it in order from the
	// flags once the union covers enough of the corpus that one scan
	// is cheaper than the sort.
	if len(sc.touched) < ix.numDocs/32 {
		slices.Sort(sc.touched)
	} else {
		sc.touched = sc.touched[:0]
		for doc, in := range sc.seen[:ix.numDocs] {
			if in {
				sc.touched = append(sc.touched, int32(doc))
			}
		}
	}
	h := &hitHeap{}
	for _, doc := range sc.touched {
		work.Scored++
		pushHit(h, Hit{Doc: doc, Score: sc.scores[doc]}, topK)
		sc.scores[doc], sc.seen[doc] = 0, false
	}
	sc.touched = sc.touched[:0]
	orPool.Put(sc)
	return Result{Hits: drainHits(h), Work: work}
}

// bitsLen approximates the cost of a galloping search over a gap.
func bitsLen(gap int) int {
	if gap <= 1 {
		return 1
	}
	n := 0
	for gap > 0 {
		gap >>= 1
		n++
	}
	return n
}

// hitHeap is a min-heap on score holding the current top-k.
type hitHeap []Hit

func (h hitHeap) Len() int { return len(h) }
func (h hitHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc
}
func (h hitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)   { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func pushHit(h *hitHeap, hit Hit, topK int) {
	if h.Len() < topK {
		heap.Push(h, hit)
		return
	}
	if (*h)[0].Score < hit.Score {
		(*h)[0] = hit
		heap.Fix(h, 0)
	}
}

func drainHits(h *hitHeap) []Hit {
	out := make([]Hit, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Hit)
	}
	return out
}

// CostModel converts search work into simulated service time.
// Defaults are calibrated against the paper's Lucene statistics
// (mean ≈ 40 ms, sd ≈ 22 ms, ~1% above 100 ms).
type CostModel struct {
	BaseMS       float64
	PerPostingMS float64
	PerScoreMS   float64
}

// DefaultCostModel returns the calibrated model: with the default
// corpus and query mix it yields mean ≈ 39 ms, sd ≈ 21 ms, ~1% of
// queries above 100 ms and ~90% between 1 and 70 ms — the shape of
// the paper's Figure 9 (Lucene).
func DefaultCostModel() CostModel {
	return CostModel{BaseMS: 18.0, PerPostingMS: 7.0e-3, PerScoreMS: 2.33e-3}
}

// ServiceTime returns the simulated service time for the given work.
func (m CostModel) ServiceTime(w Work) float64 {
	return m.BaseMS + m.PerPostingMS*float64(w.Postings) + m.PerScoreMS*float64(w.Scored)
}

// WorkloadConfig parametrizes query-trace generation.
type WorkloadConfig struct {
	Corpus CorpusConfig
	// NumQueries is the trace length (paper: 10 000 queries drawn
	// from the Lucene nightly regression set).
	NumQueries int
	// MinTerms and MaxTerms bound the per-query term count
	// (defaults 3 and 6).
	MinTerms, MaxTerms int
	// ConjFrac is the fraction of conjunctive (AND) queries
	// (default 0.3).
	ConjFrac float64
	// MinRank excludes the most frequent terms (stopwords) from
	// queries (default 50).
	MinRank int
	// Cost converts work to service time.
	Cost CostModel
	// Seed drives query sampling.
	Seed uint64
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	c.Corpus = c.Corpus.withDefaults()
	if c.NumQueries == 0 {
		c.NumQueries = 10000
	}
	if c.MinTerms == 0 {
		c.MinTerms = 3
	}
	if c.MaxTerms == 0 {
		c.MaxTerms = 6
	}
	if c.ConjFrac == 0 {
		c.ConjFrac = 0.3
	}
	if c.MinRank == 0 {
		c.MinRank = 50
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.Seed == 0 {
		c.Seed = 0x5ea4c4
	}
	return c
}

// Workload bundles an index, a query trace, and each query's service
// time under the cost model.
type Workload struct {
	Index   *Index
	Queries []Query
	Times   []float64
	Cost    CostModel
}

// GenerateWorkload builds the index and a query trace. Query terms
// are drawn log-uniformly over vocabulary ranks [MinRank, VocabSize),
// mimicking real query logs: mostly mid-frequency terms, occasionally
// a very common one that makes the query slow.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	ix := BuildIndex(cfg.Corpus)
	w := &Workload{
		Index:   ix,
		Queries: sampleQueries(cfg),
		Times:   make([]float64, cfg.NumQueries),
		Cost:    cfg.Cost,
	}
	for i, q := range w.Queries {
		res := ix.Search(q, 10)
		w.Times[i] = cfg.Cost.ServiceTime(res.Work)
	}
	return w, nil
}

// normalized applies defaults and validates the query-trace
// parameters — the one defaulting/validation path shared by
// GenerateWorkload and GenerateShardedWorkload, so a new constraint
// cannot be enforced on one generator and skipped by the other.
func (c WorkloadConfig) normalized() (WorkloadConfig, error) {
	c = c.withDefaults()
	if c.MinTerms < 1 || c.MaxTerms < c.MinTerms {
		return c, fmt.Errorf("searchengine: bad term count range [%d, %d]", c.MinTerms, c.MaxTerms)
	}
	if c.MinRank < 0 || c.MinRank >= c.Corpus.VocabSize {
		return c, fmt.Errorf("searchengine: MinRank=%d outside vocabulary", c.MinRank)
	}
	return c, nil
}

// sampleQueries draws the query trace for a (defaulted, validated)
// configuration. The draw order is the workload's compatibility
// contract: per query, the term count, then each term's rank, then
// the conjunctive coin — GenerateWorkload and the sharded generator
// both consume cfg.Seed through this one stream, so they produce
// identical traces for identical configurations.
func sampleQueries(cfg WorkloadConfig) []Query {
	r := stats.NewRNG(cfg.Seed)
	queries := make([]Query, cfg.NumQueries)
	lnLo := math.Log(float64(cfg.MinRank + 1))
	lnHi := math.Log(float64(cfg.Corpus.VocabSize))
	for i := range queries {
		nTerms := cfg.MinTerms + r.Intn(cfg.MaxTerms-cfg.MinTerms+1)
		terms := make([]int, nTerms)
		for j := range terms {
			rank := int(math.Exp(lnLo+r.Float64()*(lnHi-lnLo))) - 1
			if rank >= cfg.Corpus.VocabSize {
				rank = cfg.Corpus.VocabSize - 1
			}
			terms[j] = rank
		}
		queries[i] = Query{Terms: terms, Conjunctive: r.Bool(cfg.ConjFrac)}
	}
	return queries
}

// ServiceStats summarizes the workload's service-time distribution.
func (w *Workload) ServiceStats() stats.Summary { return stats.Summarize(w.Times) }
