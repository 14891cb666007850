// Package repro is a from-scratch Go reproduction of "Optimal Reissue
// Policies for Reducing Tail Latency" (Kaler, He, Elnikety — SPAA
// 2017), grown toward a production-shape system.
//
// The paper's contribution — the SingleR reissue-policy family, its
// optimality theorems, the data-driven parameter optimizer, and the
// adaptive refinement and budget-search procedures — lives in the
// public reissue package. The reissue/hedge subpackage executes
// policies for real: a goroutine-based hedging client with context
// cancellation, live replicated backends over the in-repo kvstore,
// searchengine, and inference workloads (reissue/hedge/backend,
// internal/inference) with per-replica serving disciplines and
// size-B batching driven by the shared internal/sched core, an HTTP
// transport for out-of-process replicas (reissue/hedge/transport),
// and a sharded fan-out layer that partitions the workload over S
// shards and hedges each shard's sub-query independently
// (reissue/hedge/shard) — all cross-validated against the
// discrete-event cluster simulator. The evaluation substrates (the
// simulator and its sharded composition, a Redis-like set store, a
// Lucene-like search engine, statistics and range-query structures)
// live in the other internal packages.
//
// Figure regeneration and every parameter grid run through
// internal/sweep, a dispatcher/worker pool over warm per-worker
// simulation engines; all cmd/reissue-* tools take -workers (default
// NumCPU) and -progress, and their output is byte-identical at any
// worker count (see DESIGN.md's "Parallel sweeps").
//
// Per-replica serving — queue disciplines, round-robin fairness, and
// size-B batched execution with linger windows — is decided by the
// pure internal/sched core in both the simulator and the live
// replicas, so batch membership agrees exactly across the two worlds
// (see DESIGN.md's "Serving disciplines & batched execution").
//
// See DESIGN.md for the system inventory, the public-API layering,
// and the simulator-for-testbed substitution argument; bench_test.go
// and ablation_bench_test.go hold the per-figure benchmark harness.
// "cmd/reissue-topo -topo fleet" is the live end-to-end demo on one
// replicated fleet (add -http to serve it over the transport).
//
// The cross-cutting contracts those layers rest on — replayable
// simulation, Mix64-disciplined coin salts, context threading,
// snapshot-counter accounting — are machine-checked by the custom
// analyzers in internal/analysis, run in CI (and scripts/lint.sh) as
// cmd/reissue-vet; see DESIGN.md's "Static analysis & enforced
// invariants" for each analyzer's contract and the //lint:allow
// exception grammar.
//
// # Benchmarking
//
// The simulation engine's performance is tracked: cmd/reissue-bench
// runs the figure, engine, and optimizer benchmarks and writes
// BENCH_sim.json (ns/op, allocs/op, B/op per benchmark). The copy at
// the repository root is the recorded baseline; CI re-measures every
// push, uploads the result as an artifact, and fails if any
// benchmark's allocs/op regresses more than 20% (allocation counts
// are deterministic for the seeded workloads — wall-clock times are
// archived but only gated via -time-gate on matching hardware). See
// DESIGN.md's "Engine internals" and "Benchmarking" sections for the
// slab/heap design, the (time, seq) ordering invariant that keeps
// seeded runs replay-identical across engine rewrites, and how to
// read or re-record the baseline.
package repro
