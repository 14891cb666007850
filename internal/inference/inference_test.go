package inference

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/reissue"
	"repro/reissue/hedge/backend"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Requests: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(Config{Requests: 200, Seed: 7})
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || a.Prompt[i] != b.Prompt[i] || a.Decode[i] != b.Decode[i] {
			t.Fatalf("request %d differs across same-seed generations", i)
		}
	}
	c, _ := Generate(Config{Requests: 200, Seed: 8})
	same := 0
	for i := range a.Times {
		if a.Times[i] == c.Times[i] {
			same++
		}
	}
	if same == len(a.Times) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("Requests=0 accepted")
	}
	if _, err := Generate(Config{Requests: 1, DecodeMSPerTok: -1}); err == nil {
		t.Error("negative decode cost accepted")
	}
}

func TestTimesMatchPhases(t *testing.T) {
	w, err := Generate(Config{Requests: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.cfg
	for i, tm := range w.Times {
		want := float64(w.Prompt[i])*cfg.PrefillMSPerTok + float64(w.Decode[i])*cfg.DecodeMSPerTok
		if tm != want {
			t.Fatalf("request %d: time %v, want prefill+decode %v", i, tm, want)
		}
		if w.Prompt[i] < 1 || w.Decode[i] < 1 {
			t.Fatalf("request %d: token counts %d/%d below 1", i, w.Prompt[i], w.Decode[i])
		}
	}
}

func TestBatchConfigCostModel(t *testing.T) {
	w, err := Generate(Config{Requests: 10, Seed: 1, BatchScale: 0.2, BatchPerItemMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	bc := w.BatchConfig(4, 2.5)
	if bc.Size != 4 || bc.LingerMS != 2.5 {
		t.Fatalf("BatchConfig = %+v", bc)
	}
	// Size 1 must degenerate to solo time.
	if got := bc.Cost.Service(10, 1); got != 10 {
		t.Fatalf("solo batch costs %v, want 10", got)
	}
	// Size 3: 10*(1+0.2*2) + 1*2 = 16.
	if got := bc.Cost.Service(10, 3); got != 16 {
		t.Fatalf("Service(10, 3) = %v, want 16", got)
	}
}

// TestLiveBatchedSmoke drives a small live batched fleet end to end:
// the workload's replicas batch through the shared scheduling core,
// every request completes, and the batch log covers every primary.
func TestLiveBatchedSmoke(t *testing.T) {
	w, err := Generate(Config{Requests: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	log := &backend.BatchLog{}
	back, err := w.NewLive(backend.Config{
		Replicas:     2,
		Unit:         200 * time.Microsecond,
		MinServiceMS: 1,
		Discipline:   sched.Batch,
		Batch:        w.BatchConfig(4, 2),
		BatchLog:     log,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := &backend.LiveSystem{
		Back: back, N: 40, Warmup: 8,
		Lambda: back.ArrivalRate(0.5), Seed: 11,
	}
	res, err := sys.RunContext(context.Background(), reissue.SingleR{D: 8, Q: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Query) != 32 {
		t.Fatalf("measured %d latencies, want 32", len(res.Query))
	}
	seen := map[int]bool{}
	for _, rec := range log.Records() {
		if rec.Replica < 0 || rec.Replica > 1 || len(rec.Members) == 0 {
			t.Fatalf("bad batch record %+v", rec)
		}
		for _, m := range rec.Members {
			if !m.Reissue {
				seen[m.Query] = true
			}
		}
	}
	for i := 0; i < 40; i++ {
		if !seen[i] {
			t.Fatalf("query %d's primary never appeared in a batch", i)
		}
	}
}

// TestSimBatchedSmoke runs the same workload through the simulator's
// Batch discipline — the cross-validation partner of the live path.
func TestSimBatchedSmoke(t *testing.T) {
	w, err := Generate(Config{Requests: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Servers:     2,
		ArrivalRate: 0.5 * 2 / w.MeanServiceMS(),
		Queries:     300,
		Warmup:      50,
		Source:      &cluster.TraceSource{Times: w.Times},
		Discipline:  cluster.Batch,
		Batch:       w.BatchConfig(4, 2),
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunDetailed(reissue.SingleR{D: 8, Q: 0.2})
	if res.Log.Len() == 0 || len(res.Batches) == 0 {
		t.Fatalf("no measurements or batches: log %d, batches %d", res.Log.Len(), len(res.Batches))
	}
}
