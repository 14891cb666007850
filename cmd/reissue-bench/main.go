// Command reissue-bench runs the repository's tracked performance
// benchmarks — figure regeneration, the discrete-event engine's
// schedule/fire micro-benchmarks, and the optimizer — and emits a
// machine-readable BENCH_sim.json (ns/op, allocs/op, B/op per
// benchmark). CI runs it on every push, uploads the result as an
// artifact so the performance trajectory accumulates, and compares
// against the checked-in baseline.
//
// Regression gating: allocs/op is deterministic for these workloads
// (seeded simulations, no wall-clock paths), so it is gated strictly:
// any benchmark allocating more than -max-regress over its baseline
// fails the run. ns/op is only meaningful against a baseline recorded
// on the same machine, so the time gate is opt-in (-time-gate); CI
// compares allocations and archives the times. Record a new baseline
// with:
//
//	go run ./cmd/reissue-bench -short -out BENCH_sim.json
//
// after verifying the change is an intentional improvement.
//
// Profile first, then optimise: -cpuprofile writes a CPU profile of
// the whole suite (warm-up runs included) and -memprofile a heap
// profile taken after it, for `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/inference"
	"repro/internal/stats"
	"repro/reissue"
)

// benchResult is one benchmark's measurement, averaged over Iters
// runs after one untimed warmup run.
type benchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchFile is the BENCH_sim.json schema (v2 adds the parallel-sweep
// entries and SweepWorkers; v3 the batched-inference entry). Config
// fields identify the workload scale; comparisons across different
// scales — including different sweep worker-pool sizes — are
// refused.
type benchFile struct {
	Schema         int           `json:"schema"`
	GoVersion      string        `json:"go_version"`
	Short          bool          `json:"short"`
	Queries        int           `json:"queries"`
	AdaptiveTrials int           `json:"adaptive_trials"`
	SweepWorkers   int           `json:"sweep_workers"`
	SweepSpeedup   float64       `json:"sweep_speedup,omitempty"`
	Notes          []string      `json:"notes,omitempty"`
	Benchmarks     []benchResult `json:"benchmarks"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_sim.json", "write results to this file")
		baseline   = flag.String("baseline", "", "compare against this baseline file (empty: no comparison)")
		maxRegress = flag.Float64("max-regress", 0.20, "fail when a gated metric regresses more than this fraction over baseline")
		timeGate   = flag.Bool("time-gate", false, "also gate ns/op (only meaningful vs a baseline from the same machine)")
		short      = flag.Bool("short", false, "reduced workload scale and a single timed iteration (the CI configuration)")
		workers    = flag.Int("workers", 4, "worker-pool size for the parallel-sweep benchmark (fixed, not NumCPU, so baselines are comparable across machines)")
		notes      = flag.String("notes", "", "free-form note recorded in the output")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark suite to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the benchmark suite to this file")
	)
	flag.Parse()

	sc := experiments.Scale{Queries: 2000, AdaptiveTrials: 3, Seed: 0x0511}
	iters := 3
	if *short {
		sc = experiments.Scale{Queries: 1000, AdaptiveTrials: 2, Seed: 0x0511}
		iters = 1
	}

	file := benchFile{
		Schema:         3,
		GoVersion:      runtime.Version(),
		Short:          *short,
		Queries:        sc.Queries,
		AdaptiveTrials: sc.AdaptiveTrials,
		SweepWorkers:   *workers,
	}
	if *notes != "" {
		file.Notes = append(file.Notes, *notes)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reissue-bench: %v\n", err)
		os.Exit(1)
	}
	for _, b := range benchmarks(sc, *workers) {
		res, err := measure(b.name, iters, b.fn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reissue-bench: %s: %v\n", b.name, err)
			os.Exit(1)
		}
		fmt.Printf("%-32s %12.0f ns/op %10.0f allocs/op %12.0f B/op\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		file.Benchmarks = append(file.Benchmarks, res)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "reissue-bench: %v\n", err)
		os.Exit(1)
	}

	// The sweep harness guarantees byte-identical output at any
	// worker count, so seq vs par differ only in wall clock: their
	// ratio is the parallel-sweep speedup. On a single-core machine
	// it hovers near 1.0; the recorded SweepWorkers keeps baselines
	// from other machines out of the comparison.
	var seqNs, parNs float64
	for _, b := range file.Benchmarks {
		switch b.Name {
		case "Sweep/Figures/seq":
			seqNs = b.NsPerOp
		case "Sweep/Figures/par":
			parNs = b.NsPerOp
		}
	}
	if seqNs > 0 && parNs > 0 {
		file.SweepSpeedup = seqNs / parNs
		fmt.Printf("parallel sweep: %.2fx speedup at %d workers (%d CPUs)\n",
			file.SweepSpeedup, *workers, runtime.NumCPU())
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "reissue-bench: encoding: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "reissue-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(file.Benchmarks), *out)

	if *baseline == "" {
		return
	}
	base, err := readBenchFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reissue-bench: baseline: %v\n", err)
		os.Exit(1)
	}
	failures := compare(base, file, *maxRegress, *timeGate)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "reissue-bench: %d regression(s) vs %s:\n", len(failures), *baseline)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("no regressions vs %s (max-regress %.0f%%, time gate %v)\n",
		*baseline, *maxRegress*100, *timeGate)
}

// startProfiles starts a CPU profile into cpuPath when it is set and
// returns the function that stops it and, when memPath is set, writes
// a heap profile there after a collection.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

type bench struct {
	name string
	fn   func() error
}

// benchmarks assembles the tracked suite. Figures 7 and 9 read the
// cached kvstore and search workloads, so measure's untimed warm-up
// run absorbs their one-time generation and their rows time the
// figure's own work.
func benchmarks(sc experiments.Scale, sweepWorkers int) []bench {
	errOnly := func(f func() error) func() error { return f }
	bs := []bench{
		{"Figure2a", errOnly(func() error { _, err := experiments.Figure2a(sc); return err })},
		{"Figure2b", errOnly(func() error { _, err := experiments.Figure2b(sc); return err })},
		{"Figure3/Independent", errOnly(func() error { _, err := experiments.Figure3(experiments.Independent, sc); return err })},
		{"Figure3/Correlated", errOnly(func() error { _, err := experiments.Figure3(experiments.CorrelatedWL, sc); return err })},
		{"Figure3/Queueing", errOnly(func() error { _, err := experiments.Figure3(experiments.Queueing, sc); return err })},
		{"Figure4", errOnly(func() error { _, _, err := experiments.Figure4(sc); return err })},
		{"Figure5a", errOnly(func() error { _, err := experiments.Figure5a(sc); return err })},
		{"Figure5b", errOnly(func() error { _, err := experiments.Figure5b(sc); return err })},
		{"Figure5c", errOnly(func() error { _, err := experiments.Figure5c(sc); return err })},
		{"Figure6", errOnly(func() error { _, _, err := experiments.Figure6(stats.NewExponential(0.1), "Exp(0.1)", sc); return err })},
		{"Figure7a", systemsBench(sc, experiments.Figure7aJob)},
		{"Figure7b", systemsBench(sc, experiments.Figure7bJob)},
		{"Figure7c", systemsBench(sc, experiments.Figure7cJob)},
		{"Figure8", errOnly(func() error { _, err := experiments.Figure8(sc); return err })},
		{"Figure9", errOnly(func() error { _, err := experiments.RunJobs(sc, experiments.Figure9Job()); return err })},
		{"ExtensionOnlineTracking", errOnly(func() error { _, err := experiments.ExtensionOnlineTracking(sc); return err })},
		{"ExtensionCancellation", errOnly(func() error { _, err := experiments.ExtensionCancellation(sc); return err })},
		{"ExtensionBurstiness", errOnly(func() error { _, err := experiments.ExtensionBurstiness(sc); return err })},
		{"ExtensionFanOut", errOnly(func() error { _, err := experiments.ExtensionFanOut(sc); return err })},
		{"DES/ScheduleFireFresh", desFresh},
		{"DES/ScheduleFireReused", desReusedBench()},
		{"Sim/BatchedInference", batchedBench(sc)},
		{"Optimizer/ComputeOptimalSingleR", optimizerBench()},
		{"Optimizer/ComputeOptimalSingleRCorrelated", correlatedOptimizerBench()},
		{"Sweep/Figures/seq", sweepBench(sc, 1)},
		{"Sweep/Figures/par", sweepBench(sc, sweepWorkers)},
	}
	return bs
}

// systemsBench runs one Figure 7 panel for both the Redis and the
// Lucene system, as the figures CLI does.
func systemsBench(sc experiments.Scale, job func(experiments.SystemKind, experiments.Scale) *experiments.Job) func() error {
	return func() error {
		_, err := experiments.RunJobs(sc, job(experiments.Redis, sc), job(experiments.Lucene, sc))
		return err
	}
}

// sweepBench runs the full deterministic figure grid (the golden
// suite) through the sweep harness at the given worker-pool size —
// the end-to-end wall clock the parallel harness exists to shrink.
func sweepBench(sc experiments.Scale, workers int) func() error {
	return func() error {
		scW := sc
		scW.Workers = workers
		_, err := experiments.RunJobs(scW, experiments.SweepJobs(scW)...)
		return err
	}
}

// desFresh schedules and drains 10k randomly-timed events on a brand
// new engine — the des schedule/fire cost including first-run slab
// and heap growth.
func desFresh() error {
	s := des.New()
	r := stats.NewRNG(1)
	cb := func(now float64, arg int, x float64) {}
	for j := 0; j < 10000; j++ {
		s.AtArg(r.Float64()*1000, cb, j, 0)
	}
	s.Run()
	if s.Fired() != 10000 {
		return fmt.Errorf("fired %d events, want 10000", s.Fired())
	}
	return nil
}

// desReusedBench returns the steady-state variant: the engine is
// Reset and reused, so schedule+fire runs allocation-free.
func desReusedBench() func() error {
	s := des.New()
	cb := func(now float64, arg int, x float64) {}
	return func() error {
		s.Reset()
		r := stats.NewRNG(1)
		for j := 0; j < 10000; j++ {
			s.AtArg(r.Float64()*1000, cb, j, 0)
		}
		s.Run()
		if s.Fired() != 10000 {
			return fmt.Errorf("fired %d events, want 10000", s.Fired())
		}
		return nil
	}
}

// batchedBench runs the inference workload through the simulator's
// Batch discipline — the batched serving regime's engine cost (the
// shared sched queue, linger-window events, size-dependent service
// times, and batch-membership records) on the trajectory alongside
// the unbatched figures.
func batchedBench(sc experiments.Scale) func() error {
	return func() error {
		w, err := inference.Generate(inference.Config{Requests: sc.Queries, Seed: sc.Seed})
		if err != nil {
			return err
		}
		warmup := sc.Queries / 10
		c, err := cluster.New(cluster.Config{
			Servers:     4,
			ArrivalRate: 0.5 * 4 / w.MeanServiceMS(),
			Queries:     sc.Queries - warmup,
			Warmup:      warmup,
			Source:      &cluster.TraceSource{Times: w.Times},
			Discipline:  cluster.Batch,
			Batch:       w.BatchConfig(4, 2),
			Seed:        sc.Seed,
		})
		if err != nil {
			return err
		}
		res := c.RunDetailed(reissue.SingleR{D: 12, Q: 0.2})
		if res.Log.Len() != sc.Queries-warmup {
			return fmt.Errorf("measured %d queries, want %d", res.Log.Len(), sc.Queries-warmup)
		}
		return nil
	}
}

// optimizerBench solves the paper's Figure 1 optimization on a fixed
// 100k-sample Pareto log — the offline optimizer's end-to-end cost
// including its sorts.
func optimizerBench() func() error {
	r := stats.NewRNG(7)
	dist := stats.NewPareto(1, 1.1)
	rx := make([]float64, 100_000)
	for i := range rx {
		rx[i] = dist.Sample(r)
	}
	return func() error {
		_, _, err := reissue.ComputeOptimalSingleR(rx, nil, 0.99, 0.02)
		return err
	}
}

// correlatedOptimizerBench solves the correlation-aware optimization
// (Section 4.2) on 20k correlated (primary, reissue) pairs, Y = X/2 +
// Z: the conditional-CDF sweep and its sorts.
func correlatedOptimizerBench() func() error {
	r := stats.NewRNG(1)
	dist := stats.NewPareto(1.1, 2)
	rx := make([]float64, 20_000)
	pairs := make([]reissue.Point, len(rx))
	for i := range rx {
		rx[i] = dist.Sample(r)
		pairs[i] = reissue.Point{X: rx[i], Y: 0.5*rx[i] + dist.Sample(r)}
	}
	return func() error {
		_, _, err := reissue.ComputeOptimalSingleRCorrelated(rx, pairs, 0.99, 0.05)
		return err
	}
}

// measure runs fn once untimed (warming caches and pools), then
// averages iters timed runs, tracking allocations via MemStats
// deltas.
func measure(name string, iters int, fn func() error) (benchResult, error) {
	if err := fn(); err != nil {
		return benchResult{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return benchResult{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// goMinor reduces a runtime.Version() string to its minor release
// ("go1.24.3" -> "go1.24"); non-release strings (devel builds) pass
// through unchanged.
func goMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) >= 2 && strings.HasPrefix(parts[0], "go") {
		return parts[0] + "." + parts[1]
	}
	return v
}

func readBenchFile(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compare reports regressions of current against base. Allocations
// are gated with a small absolute slack (runtime-internal allocations
// jitter by a few objects); ns/op only when timeGate is set.
func compare(base, current benchFile, maxRegress float64, timeGate bool) []string {
	var failures []string
	if base.Short != current.Short || base.Queries != current.Queries ||
		base.AdaptiveTrials != current.AdaptiveTrials ||
		base.SweepWorkers != current.SweepWorkers {
		return []string{fmt.Sprintf(
			"workload mismatch: baseline (short=%v queries=%d trials=%d sweep-workers=%d) vs current (short=%v queries=%d trials=%d sweep-workers=%d); re-record the baseline",
			base.Short, base.Queries, base.AdaptiveTrials, base.SweepWorkers,
			current.Short, current.Queries, current.AdaptiveTrials, current.SweepWorkers)}
	}
	// Allocation counts shift across Go runtime releases, so a
	// cross-version comparison would fire (or mask) the allocs gate
	// spuriously. Patch releases are fine; minor releases are not.
	if bm, cm := goMinor(base.GoVersion), goMinor(current.GoVersion); bm != cm {
		return []string{fmt.Sprintf(
			"go version mismatch: baseline %s vs current %s; re-record the baseline with this toolchain",
			base.GoVersion, current.GoVersion)}
	}
	cur := make(map[string]benchResult, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	names := make([]string, 0, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	baseBy := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	const allocSlack = 16 // absolute objects of runtime jitter
	for _, name := range names {
		b := baseBy[name]
		c, ok := cur[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but not measured (coverage dropped)", name))
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp*(1+maxRegress)+allocSlack {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f vs baseline %.0f (>%+.0f%%)",
				name, c.AllocsPerOp, b.AllocsPerOp, (c.AllocsPerOp/b.AllocsPerOp-1)*100))
		}
		if timeGate && c.NsPerOp > b.NsPerOp*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f vs baseline %.0f (>%+.0f%%)",
				name, c.NsPerOp, b.NsPerOp, (c.NsPerOp/b.NsPerOp-1)*100))
		}
	}
	return failures
}
