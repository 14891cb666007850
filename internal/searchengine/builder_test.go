package searchengine

import "testing"

// indexDocs builds an index over explicit documents.
func indexDocs(t *testing.T, vocab int, docs [][]int) *Index {
	t.Helper()
	b := NewBuilder(vocab)
	for _, d := range docs {
		b.AddDocument(d)
	}
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(0) accepted")
		}
	}()
	NewBuilder(0)
}

func TestBuilderRejectsOOV(t *testing.T) {
	b := NewBuilder(5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-vocabulary token accepted")
		}
	}()
	b.AddDocument([]int{1, 7})
}

func TestBuilderMatchesManualCounts(t *testing.T) {
	ix := indexDocs(t, 10, [][]int{
		{1, 2, 1, 3}, // doc 0: tf(1)=2
		{2, 2, 2},    // doc 1: tf(2)=3
	})
	if ix.numDocs != 2 {
		t.Fatalf("numDocs = %d", ix.numDocs)
	}
	if ix.DocFreq(1) != 1 || ix.DocFreq(2) != 2 || ix.DocFreq(3) != 1 || ix.DocFreq(4) != 0 {
		t.Fatalf("df = %v", ix.df)
	}
	// tf values recorded correctly.
	if ix.postings[1][0].TF != 2 || ix.postings[2][1].TF != 3 {
		t.Fatalf("postings: %v / %v", ix.postings[1], ix.postings[2])
	}
}
