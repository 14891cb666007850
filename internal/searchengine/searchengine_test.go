package searchengine

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// tinyIndex builds a small deterministic corpus for exact tests.
func tinyIndex(t *testing.T) *Index {
	t.Helper()
	return BuildIndex(CorpusConfig{
		NumDocs: 200, VocabSize: 100, MeanDocLen: 40, ZipfS: 1.0, Seed: 7,
	})
}

func TestBuildIndexInvariants(t *testing.T) {
	ix := tinyIndex(t)
	if ix.numDocs != 200 || ix.numTerms != 100 {
		t.Fatalf("index dims: %d docs, %d terms", ix.numDocs, ix.numTerms)
	}
	totalDF := 0
	for term := 0; term < ix.numTerms; term++ {
		ps := ix.postings[term]
		if len(ps) != ix.DocFreq(term) {
			t.Fatalf("term %d: df %d != postings %d", term, ix.DocFreq(term), len(ps))
		}
		totalDF += len(ps)
		for i := 1; i < len(ps); i++ {
			if ps[i-1].Doc >= ps[i].Doc {
				t.Fatalf("term %d postings unsorted", term)
			}
		}
		for _, p := range ps {
			if p.Doc < 0 || int(p.Doc) >= ix.numDocs || p.TF == 0 {
				t.Fatalf("term %d bad posting %+v", term, p)
			}
		}
	}
	if totalDF == 0 {
		t.Fatal("empty index")
	}
}

func TestZipfSkew(t *testing.T) {
	ix := tinyIndex(t)
	// Rank-0 term must be far more frequent than a deep-rank term.
	if ix.DocFreq(0) <= ix.DocFreq(90)*2 {
		t.Fatalf("no Zipf skew: df(0)=%d df(90)=%d", ix.DocFreq(0), ix.DocFreq(90))
	}
}

func TestIDF(t *testing.T) {
	ix := tinyIndex(t)
	if got := ix.IDF(-1); got != 0 {
		t.Fatalf("IDF of invalid term = %v", got)
	}
	// Rarer terms must have higher IDF.
	if ix.DocFreq(0) > ix.DocFreq(90) && ix.IDF(0) >= ix.IDF(90) {
		t.Fatalf("IDF not decreasing in df: idf(0)=%v idf(90)=%v", ix.IDF(0), ix.IDF(90))
	}
}

// bruteSearch recomputes a query result by scanning all postings.
func bruteSearch(ix *Index, q Query) map[int32]float64 {
	perDoc := map[int32]map[int]uint16{}
	for _, t := range q.Terms {
		if t < 0 || t >= ix.numTerms {
			continue
		}
		for _, p := range ix.postings[t] {
			if perDoc[p.Doc] == nil {
				perDoc[p.Doc] = map[int]uint16{}
			}
			perDoc[p.Doc][t] = p.TF
		}
	}
	scores := map[int32]float64{}
	for doc, tfs := range perDoc {
		if q.Conjunctive && len(tfs) != len(uniqueTerms(q.Terms)) {
			continue
		}
		s := 0.0
		for t, tf := range tfs {
			s += float64(tf) * ix.IDF(t)
		}
		scores[doc] = s
	}
	return scores
}

func uniqueTerms(ts []int) map[int]bool {
	m := map[int]bool{}
	for _, t := range ts {
		m[t] = true
	}
	return m
}

func TestSearchORMatchesBruteForce(t *testing.T) {
	ix := tinyIndex(t)
	q := Query{Terms: []int{3, 17, 42}}
	res := ix.Search(q, 1000)
	want := bruteSearch(ix, q)
	if len(res.Hits) != len(want) {
		t.Fatalf("OR hits %d, brute force %d", len(res.Hits), len(want))
	}
	for _, h := range res.Hits {
		if math.Abs(want[h.Doc]-h.Score) > 1e-9 {
			t.Fatalf("doc %d score %v, want %v", h.Doc, h.Score, want[h.Doc])
		}
	}
}

func TestSearchANDMatchesBruteForce(t *testing.T) {
	ix := tinyIndex(t)
	q := Query{Terms: []int{0, 1}, Conjunctive: true}
	res := ix.Search(q, 1000)
	want := bruteSearch(ix, q)
	if len(res.Hits) != len(want) {
		t.Fatalf("AND hits %d, brute force %d", len(res.Hits), len(want))
	}
	for _, h := range res.Hits {
		if math.Abs(want[h.Doc]-h.Score) > 1e-9 {
			t.Fatalf("doc %d score %v, want %v", h.Doc, h.Score, want[h.Doc])
		}
	}
}

func TestSearchTopKOrdering(t *testing.T) {
	ix := tinyIndex(t)
	res := ix.Search(Query{Terms: []int{0, 1, 2}}, 5)
	if len(res.Hits) != 5 {
		t.Fatalf("topK returned %d hits", len(res.Hits))
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i-1].Score < res.Hits[i].Score {
			t.Fatalf("hits not sorted by score: %v", res.Hits)
		}
	}
	// Top-5 must equal the brute-force top-5 scores.
	want := bruteSearch(ix, Query{Terms: []int{0, 1, 2}})
	var scores []float64
	for _, s := range want {
		scores = append(scores, s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	for i, h := range res.Hits {
		if math.Abs(h.Score-scores[i]) > 1e-9 {
			t.Fatalf("top-%d score %v, want %v", i, h.Score, scores[i])
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	ix := tinyIndex(t)
	if res := ix.Search(Query{}, 10); len(res.Hits) != 0 {
		t.Error("empty query returned hits")
	}
	// An out-of-vocabulary term empties an AND query entirely.
	if res := ix.Search(Query{Terms: []int{0, 10_000}, Conjunctive: true}, 10); len(res.Hits) != 0 {
		t.Error("AND with impossible term returned hits")
	}
	// But an OR query just ignores it.
	if res := ix.Search(Query{Terms: []int{0, 10_000}}, 10); len(res.Hits) == 0 {
		t.Error("OR with one valid term returned nothing")
	}
	// topK <= 0 defaults sanely.
	if res := ix.Search(Query{Terms: []int{0}}, 0); len(res.Hits) == 0 || len(res.Hits) > 10 {
		t.Errorf("topK=0 returned %d hits", len(res.Hits))
	}
}

func TestSearchWorkAccounting(t *testing.T) {
	ix := tinyIndex(t)
	res := ix.Search(Query{Terms: []int{0, 1}}, 10)
	wantPostings := ix.DocFreq(0) + ix.DocFreq(1)
	if res.Work.Postings != wantPostings {
		t.Fatalf("OR work %d, want %d", res.Work.Postings, wantPostings)
	}
	if res.Work.Scored == 0 {
		t.Fatal("no scoring work recorded")
	}
	// AND work must be bounded by the driving (shortest) list plus
	// galloping overhead, i.e. far less than a full OR scan when one
	// list is small.
	and := ix.Search(Query{Terms: []int{0, 99}, Conjunctive: true}, 10)
	if and.Work.Postings >= wantPostings {
		t.Logf("AND work %d not smaller than OR %d (acceptable on tiny corpus)",
			and.Work.Postings, wantPostings)
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	if _, err := GenerateWorkload(WorkloadConfig{MinTerms: 3, MaxTerms: 2}); err == nil {
		t.Error("inverted term range accepted")
	}
	if _, err := GenerateWorkload(WorkloadConfig{MinRank: 1 << 30}); err == nil {
		t.Error("MinRank beyond vocabulary accepted")
	}
}

func TestGenerateWorkloadSmall(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{
		Corpus:     CorpusConfig{NumDocs: 500, VocabSize: 500, MeanDocLen: 50, Seed: 5},
		NumQueries: 200, MinRank: 10, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 200 || len(w.Times) != 200 {
		t.Fatalf("workload sizes %d/%d", len(w.Queries), len(w.Times))
	}
	for i, q := range w.Queries {
		if len(q.Terms) < 3 || len(q.Terms) > 6 {
			t.Fatalf("query %d has %d terms", i, len(q.Terms))
		}
		for _, term := range q.Terms {
			if term < 10 || term >= 500 {
				t.Fatalf("query %d term %d outside [10, 500)", i, term)
			}
		}
		if w.Times[i] <= 0 {
			t.Fatalf("query %d time %v", i, w.Times[i])
		}
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	cfg := WorkloadConfig{
		Corpus:     CorpusConfig{NumDocs: 300, VocabSize: 300, MeanDocLen: 30, Seed: 9},
		NumQueries: 100, MinRank: 5, Seed: 10,
	}
	a, _ := GenerateWorkload(cfg)
	b, _ := GenerateWorkload(cfg)
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatal("same-seed workloads differ")
		}
	}
}

func TestPaperScaleWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	w, err := GenerateWorkload(WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := stats.Summarize(w.Times)
	// Paper: mean 39.73 ms, sd 21.88 ms, ~90% of requests in
	// [1, 70] ms, ~1% above 100 ms.
	if s.Mean < 30 || s.Mean > 50 {
		t.Errorf("mean %v outside [30, 50]", s.Mean)
	}
	if s.StdDev < 14 || s.StdDev > 32 {
		t.Errorf("sd %v outside [14, 32]", s.StdDev)
	}
	over100, in170 := 0, 0
	for _, v := range w.Times {
		if v > 100 {
			over100++
		}
		if v >= 1 && v <= 70 {
			in170++
		}
	}
	fracOver := float64(over100) / float64(len(w.Times))
	fracIn := float64(in170) / float64(len(w.Times))
	if fracOver < 0.002 || fracOver > 0.03 {
		t.Errorf("fraction above 100 ms = %v, want ~0.01", fracOver)
	}
	if fracIn < 0.85 {
		t.Errorf("fraction in [1, 70] ms = %v, want ~0.90", fracIn)
	}
}

func TestZipfSampler(t *testing.T) {
	z := newZipf(100, 1.0)
	r := stats.NewRNG(3)
	counts := make([]int, 100)
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// Frequency of rank 0 over rank 9 should be about 10:1 for s=1.
	ratio := float64(counts[0]) / float64(counts[9])
	if ratio < 6 || ratio > 16 {
		t.Fatalf("Zipf ratio rank0/rank9 = %v, want ~10", ratio)
	}
}

// Property: AND results are a subset of OR results for the same terms.
func TestANDSubsetOfORProperty(t *testing.T) {
	ix := tinyIndex(t)
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw%100), int(bRaw%100)
		and := ix.Search(Query{Terms: []int{a, b}, Conjunctive: true}, 1000)
		or := ix.Search(Query{Terms: []int{a, b}}, 1000)
		inOR := map[int32]bool{}
		for _, h := range or.Hits {
			inOR[h.Doc] = true
		}
		for _, h := range and.Hits {
			if !inOR[h.Doc] {
				return false
			}
		}
		return len(and.Hits) <= len(or.Hits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: searching is deterministic and service times positive.
func TestSearchDeterministicProperty(t *testing.T) {
	ix := tinyIndex(t)
	m := DefaultCostModel()
	f := func(aRaw, bRaw, cRaw uint8, conj bool) bool {
		q := Query{
			Terms:       []int{int(aRaw % 100), int(bRaw % 100), int(cRaw % 100)},
			Conjunctive: conj,
		}
		r1 := ix.Search(q, 10)
		r2 := ix.Search(q, 10)
		if len(r1.Hits) != len(r2.Hits) || r1.Work != r2.Work {
			return false
		}
		for i := range r1.Hits {
			if r1.Hits[i] != r2.Hits[i] {
				return false
			}
		}
		return m.ServiceTime(r1.Work) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearchOR(b *testing.B) {
	ix := BuildIndex(CorpusConfig{NumDocs: 5000, VocabSize: 5000, MeanDocLen: 80, Seed: 1})
	q := Query{Terms: []int{10, 100, 1000}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10)
	}
}

func BenchmarkSearchAND(b *testing.B) {
	ix := BuildIndex(CorpusConfig{NumDocs: 5000, VocabSize: 5000, MeanDocLen: 80, Seed: 1})
	q := Query{Terms: []int{10, 100, 1000}, Conjunctive: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10)
	}
}
