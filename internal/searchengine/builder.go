package searchengine

import (
	"fmt"
	"sort"
)

// Builder assembles an Index from explicit documents. BuildIndex
// feeds it the synthetic corpus; the sharded generator feeds one per
// shard.
type Builder struct {
	numTerms int
	numDocs  int32
	postings [][]Posting
	totalLen int64
}

// NewBuilder creates a builder over a vocabulary of numTerms terms.
func NewBuilder(numTerms int) *Builder {
	if numTerms <= 0 {
		panic(fmt.Sprintf("searchengine: NewBuilder(%d)", numTerms))
	}
	return &Builder{numTerms: numTerms, postings: make([][]Posting, numTerms)}
}

// AddDocument indexes one document given as a token sequence and
// returns its document id. Out-of-vocabulary tokens panic: feeding an
// index garbage should fail loudly at build time.
func (b *Builder) AddDocument(tokens []int) int32 {
	doc := b.numDocs
	b.numDocs++
	b.totalLen += int64(len(tokens))
	tf := make(map[int]uint16)
	for _, t := range tokens {
		if t < 0 || t >= b.numTerms {
			panic(fmt.Sprintf("searchengine: token %d outside vocabulary [0, %d)", t, b.numTerms))
		}
		if tf[t] < 1<<16-1 {
			tf[t]++
		}
	}
	// Keep postings sorted by doc id: ids are assigned increasingly.
	for t, f := range tf {
		b.postings[t] = append(b.postings[t], Posting{Doc: doc, TF: f})
	}
	return doc
}

// Build finalizes the index. The builder must not be reused after.
func (b *Builder) Build() *Index {
	ix := &Index{
		postings: b.postings,
		df:       make([]int, b.numTerms),
		numDocs:  int(b.numDocs),
		numTerms: b.numTerms,
		totalLen: b.totalLen,
	}
	for t, ps := range ix.postings {
		// AddDocument appends per-document in id order, but map
		// iteration order within a document is arbitrary — postings
		// for distinct docs are appended in order, so they are
		// sorted; assert cheaply.
		if !sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i].Doc < ps[j].Doc }) {
			sort.Slice(ps, func(i, j int) bool { return ps[i].Doc < ps[j].Doc })
		}
		ix.df[t] = len(ps)
	}
	return ix
}
