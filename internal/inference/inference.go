// Package inference is an inference-serving workload for the batched
// serving regime: each request is an LLM-style generation with a
// prefill phase over its prompt tokens and a per-token decode phase,
// and replicas execute requests in size-B batches (sched.Batch) with
// a size-dependent cost model approximating continuous batching at
// batch granularity. It is the workload ROADMAP's "Batched backends +
// an inference-serving workload" item asks for — a regime the paper
// never models, where a hedged copy can coalesce into the same batch
// as its primary and reissue payoff changes shape.
//
// The package mirrors the repository's other workloads (kvstore,
// searchengine): Generate builds a deterministic trace of model
// service times, NewLive turns it into live goroutine replicas via
// backend.NewCustom (each request executes a real token-mixing
// computation inside its calibrated hold), and TraceSource feeds the
// identical trace to the cluster simulator for cross-validation.
package inference

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/reissue/hedge/backend"
)

// Config parametrizes a generated inference workload.
type Config struct {
	// Requests is the trace length.
	Requests int
	// Seed drives the token-count draws.
	Seed uint64
	// MeanPromptTokens and MeanDecodeTokens set the (exponentially
	// distributed, >= 1) token counts per request. Prompt lengths vary
	// widely (retrieval contexts vs one-line questions); decode
	// lengths are the long tail that batching must ride out. Defaults
	// 256 and 64.
	MeanPromptTokens float64
	MeanDecodeTokens float64
	// PrefillMSPerTok and DecodeMSPerTok convert token counts into
	// model milliseconds: prefill processes the whole prompt in
	// parallel (cheap per token), decode is sequential (dominant per
	// token). Defaults 0.01 and 0.1 — a 256-token prompt prefills in
	// ~2.6 model-ms while 64 decode steps take ~6.4.
	PrefillMSPerTok float64
	DecodeMSPerTok  float64
	// BatchScale and BatchPerItemMS parametrize the batch cost model
	// (sched.BatchCost): each additional batch member slows the whole
	// batch by BatchScale of its max member (co-running decodes
	// contend for accelerator bandwidth) and adds BatchPerItemMS of
	// launch overhead. Defaults 0.15 and 0.05.
	BatchScale     float64
	BatchPerItemMS float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Requests <= 0 {
		return c, fmt.Errorf("inference: Requests=%d must be positive", c.Requests)
	}
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.MeanPromptTokens, 256)
	def(&c.MeanDecodeTokens, 64)
	def(&c.PrefillMSPerTok, 0.01)
	def(&c.DecodeMSPerTok, 0.1)
	def(&c.BatchScale, 0.15)
	def(&c.BatchPerItemMS, 0.05)
	for _, v := range []float64{c.MeanPromptTokens, c.MeanDecodeTokens,
		c.PrefillMSPerTok, c.DecodeMSPerTok, c.BatchScale, c.BatchPerItemMS} {
		if v < 0 {
			return c, fmt.Errorf("inference: negative workload parameter in %+v", c)
		}
	}
	return c, nil
}

// Workload is a generated inference trace: per-request token counts
// and the model service times they imply.
type Workload struct {
	cfg Config
	// Prompt and Decode are per-request token counts.
	Prompt, Decode []int
	// Times is the per-request solo model service time in
	// milliseconds: prefill + sequential decode.
	Times []float64
}

// Generate builds a deterministic workload: the same Config yields
// the same trace, process to process.
func Generate(cfg Config) (*Workload, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	root := stats.NewRNG(cfg.Seed)
	promptRNG := root.Split(1)
	decodeRNG := root.Split(2)
	w := &Workload{
		cfg:    cfg,
		Prompt: make([]int, cfg.Requests),
		Decode: make([]int, cfg.Requests),
		Times:  make([]float64, cfg.Requests),
	}
	for i := 0; i < cfg.Requests; i++ {
		w.Prompt[i] = 1 + int(promptRNG.ExpFloat64()*cfg.MeanPromptTokens)
		w.Decode[i] = 1 + int(decodeRNG.ExpFloat64()*cfg.MeanDecodeTokens)
		w.Times[i] = float64(w.Prompt[i])*cfg.PrefillMSPerTok +
			float64(w.Decode[i])*cfg.DecodeMSPerTok
	}
	return w, nil
}

// BatchConfig returns the sched batching parameters for batches of
// size B held open lingerMS model milliseconds, using the workload's
// cost model. B = 1 degenerates to solo FIFO timing.
func (w *Workload) BatchConfig(size int, lingerMS float64) sched.BatchConfig {
	return sched.BatchConfig{
		Size:     size,
		LingerMS: lingerMS,
		Cost:     sched.BatchCost{Scale: w.cfg.BatchScale, PerItem: w.cfg.BatchPerItemMS},
	}
}

// MeanServiceMS returns the trace's mean solo service time — the
// quantity that converts a target (unbatched) utilization into an
// arrival rate, exactly as for the other workloads. Batching raises
// effective capacity above this baseline; sweeps quote utilization
// against solo capacity so batch sizes are compared at equal load.
func (w *Workload) MeanServiceMS() float64 {
	var sum float64
	for _, t := range w.Times {
		sum += t
	}
	return sum / float64(len(w.Times))
}

// exec runs request i's real computation: a deterministic token-mix
// over the request's prompt and decode tokens (standing in for the
// model's arithmetic), returning a checksum. The calibrated hold
// overlaps this computation, as for every backend workload.
func (w *Workload) exec(i int) (any, error) {
	h := stats.Mix64(uint64(i) + w.cfg.Seed)
	for t := 0; t < w.Prompt[i]+w.Decode[i]; t++ {
		h = stats.Mix64(h ^ uint64(t))
	}
	return h, nil
}

// NewLive builds live batched replicas serving this workload through
// backend.NewCustom: cfg.Discipline/cfg.Batch select the serving
// regime (use BatchConfig for the workload's cost model), and the
// trace's times become the calibrated holds.
func (w *Workload) NewLive(cfg backend.Config) (*backend.Cluster, error) {
	return backend.NewCustom(w.Times, w.exec, cfg)
}

// TraceSource returns the simulator service-time source replaying
// times — pass a live cluster's EffectiveModelTimes() for
// cross-validation, or w.Times for a pure-simulator sweep.
func TraceSource(times []float64) *cluster.TraceSource {
	return &cluster.TraceSource{Times: times}
}
